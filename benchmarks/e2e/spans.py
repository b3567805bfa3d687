"""Host-time layer spans, recorded from outside the program.

A :class:`Tracer` swaps each public function in :data:`TARGETS` for a
timing shim, in the defining module or class and in every loaded module
that imported it by name, and puts every original back on
:meth:`Tracer.uninstall`. No file of the program changes. Spans nest
through one stack (the program is single-threaded), so a layer's self
time is its span's duration minus the time its direct child spans
cover. Counts are read off arguments and return values at the same
boundary.

:func:`chrome_trace` lays the recorded spans out as a Chrome
trace-event file: one process per workload, one thread per nesting
depth, so spans on one track never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "Span",
    "Target",
    "TARGETS",
    "Tracer",
    "SPAN_NAMES",
    "COUNT_NAMES",
    "chrome_trace",
    "layer_metrics",
]

#: spans shorter than this stay out of the Chrome file (they still count
#: in every total); tens of thousands of cost-model evaluations would
#: otherwise swamp it
MIN_FILE_SPAN_S = 100e-6


@dataclass(frozen=True)
class Span:
    """One finished call of a wrapped target."""

    name: str
    op_id: Optional[str]
    depth: int
    start_s: float
    end_s: float


def _count_cache_get(counts, args, kwargs, result, seconds):
    counts["bench.cache.gets"] += 1
    counts["bench.cache.hits"] += result is not None


def _count_compress(counts, args, kwargs, result, seconds):
    counts["compression.bytes"] += len(args[1])


def _count_schedule(counts, args, kwargs, result, seconds):
    warm_start = kwargs.get("warm_start", args[2] if len(args) > 2 else None)
    kind = "warm" if warm_start is not None else "cold"
    counts[f"core.scheduler.{kind}_calls"] += 1
    counts[f"core.scheduler.{kind}_s"] += seconds
    stats = result.search_stats
    if stats is not None:
        counts["core.scheduler.nodes_expanded"] += stats.nodes_expanded
        counts["core.scheduler.branches_pruned"] += stats.branches_pruned
        counts["core.scheduler.warm_start_hits"] += stats.warm_start_hits


def _count_run(counts, args, kwargs, result, seconds):
    counts["runtime.executor.batches"] += sum(
        len(repetition.batches) for repetition in result.repetitions
    )


def _count_run_session(counts, args, kwargs, result, seconds):
    counts["runtime.executor.batches"] += len(result.batches)


def _count_export(counts, args, kwargs, result, seconds):
    counts["obs.trace.events"] += len(args[0].events)


def _count_on_window(counts, args, kwargs, result, seconds):
    if result is not None and result.replanned:
        counts["control.replans"] += 1
        counts["control.adopted"] += result.adopted


def _count_admission(counts, args, kwargs, result, seconds):
    counts["fleet.admission.attempts"] += 1
    counts["fleet.admission.admitted"] += result.admitted


@dataclass(frozen=True)
class Target:
    """A public callable to wrap: ``module:qualname`` under a span name.

    ``count(counts, args, kwargs, result, seconds)`` adds the call's
    counts; ``subclasses`` extends a method target to every subclass
    that overrides it (codec ``compress``, mechanism ``prepare``)."""

    span: str
    module: str
    qualname: str
    count: Optional[Callable] = None
    subclasses: bool = False


TARGETS: Tuple[Target, ...] = (
    Target("bench.harness.run", "repro.bench.harness", "Harness.run"),
    Target("bench.harness.run_traced", "repro.bench.harness", "Harness.run_traced"),
    Target("bench.cache.get", "repro.bench.cache", "ResultCache.get", _count_cache_get),
    Target("bench.cache.put", "repro.bench.cache", "ResultCache.put"),
    Target("core.profiler.profile_workload", "repro.core.profiler", "profile_workload"),
    Target(
        "compression.compress", "repro.compression.base",
        "StreamCompressor.compress", _count_compress, subclasses=True,
    ),
    Target("compression.stats.analyze_batch", "repro.compression.stats", "analyze_batch"),
    Target("datasets.generate", "repro.datasets.base", "Dataset.generate"),
    Target("core.baselines.context_build", "repro.core.baselines", "WorkloadContext.build"),
    Target(
        "core.baselines.prepare", "repro.core.baselines", "Mechanism.prepare",
        subclasses=True,
    ),
    Target("core.decomposition.decompose", "repro.core.decomposition", "decompose"),
    Target(
        "core.profiler.measure_communication", "repro.core.profiler",
        "measure_communication",
    ),
    Target("core.cost_model.calibrate_curves", "repro.core.cost_model", "calibrate_curves"),
    Target(
        "core.scheduler.schedule", "repro.core.scheduler", "Scheduler.schedule",
        _count_schedule,
    ),
    Target("core.cost_model.evaluate", "repro.core.cost_model", "CostModel.evaluate"),
    Target("runtime.executor.run", "repro.runtime.executor", "PipelineExecutor.run", _count_run),
    Target(
        "runtime.executor.run_session", "repro.runtime.executor",
        "PipelineExecutor.run_session", _count_run_session,
    ),
    Target("simcore.engine.run", "repro.simcore.engine", "Simulator.run"),
    Target(
        "obs.export.write_chrome_trace", "repro.obs.export", "write_chrome_trace",
        _count_export,
    ),
    Target("obs.residuals.observe", "repro.obs.residuals", "ResidualLedger.observe"),
    Target(
        "obs.residuals.collect_window", "repro.obs.residuals",
        "TelemetryCollector.collect_window",
    ),
    Target("control.controller.init", "repro.control.controller", "SessionController.__init__"),
    Target(
        "control.controller.on_window", "repro.control.controller",
        "SessionController.on_window", _count_on_window,
    ),
    Target("control.heartbeat.observe", "repro.control.heartbeat", "ExternalHeartbeat.observe"),
    Target(
        "control.session.run_adaptive_session", "repro.control.session",
        "run_adaptive_session",
    ),
    Target("control.session.build_drift_stream", "repro.control.session", "build_drift_stream"),
    Target("faults.chaos.run_chaos_session", "repro.faults.chaos", "run_chaos_session"),
    Target("fleet.scenario.run_fleet_scenario", "repro.fleet.scenario", "run_fleet_scenario"),
    Target("fleet.tenants.build_tenant_workloads", "repro.fleet.tenants", "build_tenant_workloads"),
    Target("fleet.gateway.run", "repro.fleet.gateway", "Gateway.run"),
    Target(
        "fleet.admission.evaluate_admission", "repro.fleet.admission",
        "evaluate_admission", _count_admission,
    ),
    Target("fleet.placement.candidate", "repro.fleet.placement", "FleetScheduler.candidate"),
    Target("fleet.placement.context", "repro.fleet.placement", "FleetScheduler.context"),
    Target(
        "fleet.placement.failover_placement", "repro.fleet.placement",
        "FleetScheduler.failover_placement",
    ),
)

SPAN_NAMES: Tuple[str, ...] = tuple(target.span for target in TARGETS)

#: per-layer metrics derived from counts, besides ``<span>.calls`` and
#: ``<span>.self_s``; the ``host.*`` ones are filled in by ``run.py``
COUNT_NAMES: Dict[str, str] = {
    "bench.cache.hit_ratio": "ratio",
    "bench.cache.put_mb": "MB",
    "compression.mb_per_s": "MB/s",
    "core.scheduler.nodes_expanded": "count",
    "core.scheduler.branches_pruned": "count",
    "core.scheduler.warm_start_hit_ratio": "ratio",
    "core.scheduler.warm_us_per_call": "us",
    "core.scheduler.cold_us_per_call": "us",
    "core.cost_model.us_per_eval": "us",
    "runtime.executor.sim_batches_per_s": "1/s",
    "obs.trace.events": "count",
    "obs.export.events_per_s": "1/s",
    "control.replans": "count",
    "control.replan_adopt_ratio": "ratio",
    "fleet.admission.admit_ratio": "ratio",
    "host.cpu_s": "s",
    "host.offcpu_frac": "ratio",
    "host.kernel_ms": "ms",
    "host.trace_overhead": "ratio",
}


def _resolve(qualname: str, module) -> Tuple[object, str]:
    owner = module
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute


def _all_subclasses(cls) -> List[type]:
    found = []
    for subclass in cls.__subclasses__():
        found.append(subclass)
        found.extend(_all_subclasses(subclass))
    return found


class Tracer:
    """Records nested host-time spans around :data:`TARGETS`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.origin = clock()
        #: id of the op being timed; every span records it
        self.op_id: Optional[str] = None
        #: span name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        self.counts: Counter = Counter()
        #: spans long enough for the Chrome file (see MIN_FILE_SPAN_S)
        self.spans: List[Span] = []
        self._stack: List[List[float]] = []
        #: (owner, attribute, the original value in the owner's namespace)
        self._patched: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------------

    def wrap(self, name: str, function: Callable, count: Optional[Callable] = None):
        """``function`` behind a span named ``name``."""
        tracer = self
        clock = self.clock

        @functools.wraps(function)
        def shim(*args, **kwargs):
            stack = tracer._stack
            frame = [0.0]  # seconds covered by direct children
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._close(name, start, end, frame[0], len(stack))
            if count is not None:
                count(tracer.counts, args, kwargs, result, end - start)
            return result

        return shim

    def _close(self, name, start, end, children_s, depth) -> None:
        duration = end - start
        if self._stack:
            self._stack[-1][0] += duration
        entry = self.totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - children_s
        if duration >= MIN_FILE_SPAN_S:
            self.spans.append(
                Span(name, self.op_id, depth, start - self.origin, end - self.origin)
            )

    # -- patching ----------------------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        original = vars(owner)[attribute]
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def _install_method(self, cls, attribute: str, target: Target) -> None:
        raw = vars(cls)[attribute]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self.wrap(target.span, raw.__func__, target.count))
        else:
            replacement = self.wrap(target.span, raw, target.count)
        self._patch(cls, attribute, replacement)

    def _install_function(self, module, attribute: str, target: Target) -> None:
        original = getattr(module, attribute)
        shim = self.wrap(target.span, original, target.count)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if namespace is not None and namespace.get(attribute) is original:
                self._patch(loaded, attribute, shim)

    def install(self) -> "Tracer":
        """Wrap every target; call after the workload's modules loaded,
        so their by-name imports are found and wrapped too."""
        from repro.compression import codec_names, get_codec

        for name in codec_names():  # resolve lazily registered codecs
            get_codec(name)
        for target in TARGETS:
            module = importlib.import_module(target.module)
            owner, attribute = _resolve(target.qualname, module)
            if not isinstance(owner, type):
                self._install_function(owner, attribute, target)
                continue
            classes = [owner]
            if target.subclasses:
                classes += _all_subclasses(owner)
            for cls in classes:
                if attribute in vars(cls):
                    self._install_method(cls, attribute, target)
        return self

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    @property
    def patched(self) -> Tuple[Tuple[object, str, object], ...]:
        return tuple(self._patched)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, put_bytes: int = 0) -> Dict[str, float]:
    """Every span's ``.calls``/``.self_s`` plus the derived counts (all
    but ``host.*``); a layer that never ran reads 0."""
    metrics: Dict[str, float] = {}
    for name in SPAN_NAMES:
        calls, total_s, self_s = tracer.totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s

    def total_s(name: str) -> float:
        return tracer.totals.get(name, (0, 0.0, 0.0))[1]

    def calls(name: str) -> int:
        return tracer.totals.get(name, (0, 0.0, 0.0))[0]

    counts = tracer.counts
    metrics.update({
        "bench.cache.hit_ratio": _ratio(
            counts["bench.cache.hits"], counts["bench.cache.gets"]
        ),
        "bench.cache.put_mb": put_bytes / 1e6,
        "compression.mb_per_s": _ratio(
            counts["compression.bytes"] / 1e6, total_s("compression.compress")
        ),
        "core.scheduler.nodes_expanded": counts["core.scheduler.nodes_expanded"],
        "core.scheduler.branches_pruned": counts["core.scheduler.branches_pruned"],
        "core.scheduler.warm_start_hit_ratio": _ratio(
            counts["core.scheduler.warm_start_hits"],
            counts["core.scheduler.branches_pruned"],
        ),
        "core.scheduler.warm_us_per_call": _ratio(
            counts["core.scheduler.warm_s"] * 1e6, counts["core.scheduler.warm_calls"]
        ),
        "core.scheduler.cold_us_per_call": _ratio(
            counts["core.scheduler.cold_s"] * 1e6, counts["core.scheduler.cold_calls"]
        ),
        "core.cost_model.us_per_eval": _ratio(
            total_s("core.cost_model.evaluate") * 1e6,
            calls("core.cost_model.evaluate"),
        ),
        "runtime.executor.sim_batches_per_s": _ratio(
            counts["runtime.executor.batches"],
            total_s("runtime.executor.run") + total_s("runtime.executor.run_session"),
        ),
        "obs.trace.events": counts["obs.trace.events"],
        "obs.export.events_per_s": _ratio(
            counts["obs.trace.events"], total_s("obs.export.write_chrome_trace")
        ),
        "control.replans": counts["control.replans"],
        "control.replan_adopt_ratio": _ratio(
            counts["control.adopted"], counts["control.replans"]
        ),
        "fleet.admission.admit_ratio": _ratio(
            counts["fleet.admission.admitted"], counts["fleet.admission.attempts"]
        ),
    })
    return metrics


def chrome_trace(tracks: List[Tuple[str, List[dict]]]) -> dict:
    """A Chrome trace-event object from ``(workload, spans)`` tracks.

    ``spans`` are :class:`Span` fields as dicts (what ``child.py``
    prints). Each workload is one process (pid = its position), each
    nesting depth one thread; timestamps are µs since the traced
    repeat's tracer was created.
    """
    events: List[dict] = []
    timeline: List[dict] = []
    for pid, (workload, spans) in enumerate(tracks):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": workload},
        })
        for depth in sorted({span["depth"] for span in spans}):
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": depth,
                "args": {"name": f"host depth {depth}"},
            })
        for span in spans:
            timeline.append({
                "name": span["name"],
                "ph": "X",
                "ts": span["start_s"] * 1e6,
                "dur": (span["end_s"] - span["start_s"]) * 1e6,
                "pid": pid,
                "tid": span["depth"],
                "cat": "host",
                "args": {"op": span["op_id"]},
            })
    timeline.sort(key=lambda event: (event["ts"], event["tid"]))
    return {
        "traceEvents": events + timeline,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "benchmarks/e2e",
            "clock": "host perf_counter",
            "min_span_us": MIN_FILE_SPAN_S * 1e6,
        },
    }
