"""Experiment harness regenerating the paper's tables and figures.

The harness owns a process-wide cache of profiled workloads, workload
contexts and measurement runs, so the figure benches (which share many
cells — Fig 7 and Fig 8 are the same runs read out two ways) never
repeat a simulation. Two optional layers extend that:

* a **persistent result cache** (:mod:`repro.bench.cache`): point
  ``REPRO_CACHE_DIR`` at a directory (or pass ``cache=``) and profiles
  and run results survive the process, keyed by a content digest of
  everything that affects them — board, spec, mechanism, repetitions,
  seed, executor overrides, code-version salt;
* a **parallel grid executor** (:mod:`repro.bench.parallel`):
  ``grid(..., jobs=N)`` (or ``REPRO_PARALLEL=N``) fans independent
  cells out over worker processes; each cell is one self-contained DES
  run, so results are byte-identical to the serial order.

Conventions:

* the default batch size is 64 KiB rather than the paper's 932 800 bytes
  — all metrics are batch-normalized (µs/byte, µJ/byte) so the operating
  point is unchanged, while pure-Python codecs stay fast; set
  ``REPRO_BATCH_BYTES`` to the paper's value for full parity;
* repetitions default to the paper's 100 (``REPRO_REPETITIONS``
  overrides; the test suite uses fewer).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.bench.cache import ResultCache, default_cache, stable_digest
from repro.compression import get_codec
from repro.core.baselines import (
    MechanismOutcome,
    WorkloadContext,
    get_mechanism,
)
from repro.core.profiler import WorkloadProfile, profile_workload
from repro.datasets import get_dataset
from repro.obs.trace import TraceRecorder
from repro.runtime.executor import ExecutionConfig, PipelineExecutor
from repro.runtime.metrics import RunResult
from repro.simcore.boards import BoardSpec, rk3399

__all__ = ["WorkloadSpec", "Harness", "default_harness", "format_table"]

#: environment variable: write a Chrome trace per computed cell here
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: paper defaults
PAPER_LATENCY_CONSTRAINT = 26.0
PAPER_BATCH_BYTES = 932_800

#: process-wide dry-run memo, (spec, batches, seed) -> WorkloadProfile
_PROFILE_MEMO: Dict[Tuple, WorkloadProfile] = {}

DEFAULT_BATCH_BYTES = int(os.environ.get("REPRO_BATCH_BYTES", 65536))
DEFAULT_REPETITIONS = int(os.environ.get("REPRO_REPETITIONS", 100))

#: sentinel distinguishing "use the env-configured default cache" from
#: an explicit ``cache=None`` (no persistent cache)
_DEFAULT_CACHE = object()


def _freeze(value):
    """Recursively convert mappings/lists into hashable tuples."""
    if isinstance(value, Mapping):
        return tuple(
            (key, _freeze(value[key])) for key in sorted(value, key=repr)
        )
    if isinstance(value, (list, set, frozenset)):
        return tuple(_freeze(item) for item in sorted(value, key=repr))
    if isinstance(value, tuple):
        return tuple(_freeze(item) for item in value)
    return value


def _frozen(mapping: Optional[Mapping]) -> Tuple:
    if not mapping:
        return ()
    return tuple((key, _freeze(mapping[key])) for key in sorted(mapping))


def _normalize_fault_override(plan):
    """Cache-key form of a ``fault_plan`` override: its content digest.

    A faulted cell must never hit a fault-free cache entry (nor one
    injected with a different plan), so keys carry a stable fingerprint
    of the plan rather than the object identity. ``None`` passes
    through so fault-free keys stay byte-identical to pre-fault harness
    versions and warm caches remain valid."""
    if plan is None:
        return None
    return ("fault-plan", plan.fingerprint())


@dataclass(frozen=True)
class WorkloadSpec:
    """One Algorithm-Dataset procedure (paper Definition 1)."""

    codec: str
    dataset: str
    codec_options: Tuple = ()
    dataset_options: Tuple = ()
    batch_size: int = DEFAULT_BATCH_BYTES
    latency_constraint: float = PAPER_LATENCY_CONSTRAINT

    @classmethod
    def of(
        cls,
        codec: str,
        dataset: str,
        codec_options: Optional[Mapping] = None,
        dataset_options: Optional[Mapping] = None,
        **overrides,
    ) -> "WorkloadSpec":
        return cls(
            codec=codec,
            dataset=dataset,
            codec_options=_frozen(codec_options),
            dataset_options=_frozen(dataset_options),
            **overrides,
        )

    @property
    def label(self) -> str:
        return f"{self.codec}-{self.dataset}"

    def make_codec(self):
        return get_codec(self.codec, **dict(self.codec_options))

    def make_dataset(self):
        return get_dataset(self.dataset, **dict(self.dataset_options))


class Harness:
    """Caching experiment runner.

    ``cache`` attaches a persistent :class:`~repro.bench.cache.ResultCache`
    (default: the one named by ``REPRO_CACHE_DIR``, if set; pass ``None``
    to disable). ``jobs`` is the default process-parallelism of
    :meth:`grid` (default: ``REPRO_PARALLEL``, else serial).
    ``trace_dir`` (default: ``REPRO_TRACE_DIR``, else off) makes every
    *computed* cell run traced and drop a Chrome trace JSON into that
    directory — cached cells are served as usual, and the traced numbers
    are byte-identical to untraced ones so the cache stays valid.
    """

    def __init__(
        self,
        board: Optional[BoardSpec] = None,
        repetitions: int = DEFAULT_REPETITIONS,
        batches_per_repetition: int = 6,
        profile_batches: int = 4,
        seed: int = 0,
        cache=_DEFAULT_CACHE,
        jobs: Optional[int] = None,
        chunk: Optional[int] = None,
        trace_dir: Optional[str] = None,
    ) -> None:
        self.board = board if board is not None else rk3399()
        self.repetitions = repetitions
        self.batches_per_repetition = batches_per_repetition
        self.profile_batches = profile_batches
        self.seed = seed
        self.cache: Optional[ResultCache] = (
            default_cache() if cache is _DEFAULT_CACHE else cache
        )
        if jobs is None:
            jobs = int(os.environ.get("REPRO_PARALLEL", "1"))
        self.jobs = max(1, jobs)
        #: default cells-per-worker-task of :meth:`grid` (None = auto)
        self.chunk = chunk
        if trace_dir is None:
            trace_dir = os.environ.get(TRACE_DIR_ENV) or None
        self.trace_dir = trace_dir
        self._profiles: Dict = {}
        self._contexts: Dict = {}
        self._runs: Dict = {}

    # -- cache keys ---------------------------------------------------------

    def board_fingerprint(self) -> str:
        """Stable digest of the board spec (``repr`` covers every field
        that shapes the simulation). Recomputed per call so a mutated
        ``harness.board`` can never serve another board's cells."""
        return stable_digest(repr(self.board), salt="board")[:16]

    def profile_key(self, spec: WorkloadSpec) -> Tuple:
        """Everything :func:`profile_workload` depends on."""
        return (
            "profile",
            spec.codec, spec.codec_options,
            spec.dataset, spec.dataset_options,
            spec.batch_size,
            max(self.profile_batches, self.batches_per_repetition),
            self.seed,
        )

    def context_key(
        self, spec: WorkloadSpec, frequency_map: Optional[Mapping] = None
    ) -> Tuple:
        return (
            "context",
            self.board_fingerprint(),
            self.profile_key(spec),
            spec.latency_constraint,
            _frozen(frequency_map),
        )

    def run_key(
        self,
        spec: WorkloadSpec,
        mechanism: str,
        repetitions: Optional[int] = None,
        config_overrides: Optional[Mapping] = None,
    ) -> Tuple:
        """Everything a measured cell depends on: board, workload spec,
        mechanism, repetition/batch counts, seed and executor overrides.
        Used both for the in-memory map and (digested, salted with the
        cache version) for the persistent store. Fault overrides are
        replaced by their plan fingerprint (see
        :func:`_normalize_fault_override`)."""
        if config_overrides and "fault_plan" in config_overrides:
            config_overrides = dict(
                config_overrides,
                fault_plan=_normalize_fault_override(
                    config_overrides["fault_plan"]
                ),
            )
        return (
            "run",
            self.board_fingerprint(),
            spec,
            mechanism,
            repetitions or self.repetitions,
            self.batches_per_repetition,
            max(self.profile_batches, self.batches_per_repetition),
            self.seed,
            _frozen(config_overrides),
        )

    def clear_caches(self) -> None:
        """Drop the in-memory caches (workers call this between grids to
        bound memory; the persistent cache is unaffected)."""
        self._profiles.clear()
        self._contexts.clear()
        self._runs.clear()

    # -- cached building blocks ---------------------------------------------

    def profile(self, spec: WorkloadSpec) -> WorkloadProfile:
        key = self.profile_key(spec)
        if key not in self._profiles:
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is None:
                batches = max(
                    self.profile_batches, self.batches_per_repetition
                )
                # Process-wide memo: a dry run is a pure function of
                # (spec, batches, seed) — WorkloadSpec names codec and
                # dataset by registry name plus options — and the
                # returned profile is frozen, so harnesses in one
                # process (grid workers, benchmarks) share the
                # measurement instead of re-compressing sample batches.
                memo_key = (spec, batches, self.seed)
                cached = _PROFILE_MEMO.get(memo_key)
                if cached is None:
                    cached = profile_workload(
                        spec.make_codec(),
                        spec.make_dataset(),
                        spec.batch_size,
                        batches=batches,
                        seed=self.seed,
                    )
                    if len(_PROFILE_MEMO) >= 64:
                        _PROFILE_MEMO.clear()
                    _PROFILE_MEMO[memo_key] = cached
                if self.cache is not None:
                    self.cache.put(key, cached)
            self._profiles[key] = cached
        return self._profiles[key]

    def context(
        self, spec: WorkloadSpec, frequency_map: Optional[Mapping] = None
    ) -> WorkloadContext:
        key = self.context_key(spec, frequency_map)
        if key not in self._contexts:
            self._contexts[key] = WorkloadContext.build(
                self.board,
                self.profile(spec),
                spec.latency_constraint,
                seed=self.seed,
                frequency_map=dict(frequency_map) if frequency_map else None,
            )
        return self._contexts[key]

    # -- measurement -----------------------------------------------------------

    def cached_run(
        self,
        spec: WorkloadSpec,
        mechanism: str,
        repetitions: Optional[int] = None,
        config_overrides: Optional[Mapping] = None,
    ) -> Optional[RunResult]:
        """The cached result of a cell, or None without computing it.

        Checks the in-memory map first, then the persistent cache
        (promoting a persistent hit into memory).
        """
        key = self.run_key(spec, mechanism, repetitions, config_overrides)
        if key in self._runs:
            return self._runs[key]
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                self._runs[key] = cached
                return cached
        return None

    def store_run(
        self,
        spec: WorkloadSpec,
        mechanism: str,
        repetitions: Optional[int],
        config_overrides: Optional[Mapping],
        result: RunResult,
        force: bool = False,
    ) -> None:
        """Merge an externally computed cell (e.g. from a worker process)
        into the in-memory and persistent caches. ``force`` overwrites an
        existing persistent entry (used to upgrade a cached result with a
        trace summary — the numbers are identical either way)."""
        key = self.run_key(spec, mechanism, repetitions, config_overrides)
        self._runs[key] = result
        if self.cache is not None and (force or key not in self.cache):
            self.cache.put(key, result)

    def run(
        self,
        spec: WorkloadSpec,
        mechanism: str,
        repetitions: Optional[int] = None,
        **config_overrides,
    ) -> RunResult:
        """Measure one (workload, mechanism) cell; results are cached."""
        cached = self.cached_run(spec, mechanism, repetitions, config_overrides)
        if cached is not None:
            return cached

        if self.trace_dir is not None:
            result, recorder = self.run_traced(
                spec, mechanism, repetitions=repetitions, **config_overrides
            )
            self._write_trace(spec, mechanism, recorder)
            return result

        context = self.context(spec)
        outcome = get_mechanism(mechanism).prepare(context)
        result = self.run_outcome(
            spec, outcome, repetitions=repetitions, **config_overrides
        )
        self.store_run(spec, mechanism, repetitions, config_overrides, result)
        return result

    def run_traced(
        self,
        spec: WorkloadSpec,
        mechanism: str,
        repetitions: Optional[int] = None,
        trace: Optional[TraceRecorder] = None,
        process_events: bool = False,
        **config_overrides,
    ) -> Tuple[RunResult, TraceRecorder]:
        """Measure one cell with tracing on.

        Always re-simulates (events cannot come from the cache), then
        stores the result — whose numbers are byte-identical to the
        untraced run — *with* its :class:`TraceSummary` into both cache
        layers, upgrading any summary-less entry. Returns the result and
        the recorder (for export / Gantt rendering).
        """
        recorder = trace if trace is not None else TraceRecorder(
            process_events=process_events
        )
        context = self.context(spec)
        outcome = get_mechanism(mechanism).prepare(context)
        result = self.run_outcome(
            spec,
            outcome,
            repetitions=repetitions,
            trace=recorder,
            **config_overrides,
        )
        if outcome.search_stats is not None and result.trace_summary is not None:
            summary = replace(
                result.trace_summary,
                scheduler=outcome.search_stats.as_pairs(),
            )
            result = replace(result, trace_summary=summary)
        self.store_run(
            spec, mechanism, repetitions, config_overrides, result, force=True
        )
        return result, recorder

    def _write_trace(
        self, spec: WorkloadSpec, mechanism: str, recorder: TraceRecorder
    ) -> str:
        """Export a recorder to ``trace_dir`` (one JSON per cell)."""
        from repro.obs.export import write_chrome_trace

        os.makedirs(self.trace_dir, exist_ok=True)
        stem = re.sub(r"[^A-Za-z0-9._-]+", "_", f"{spec.label}-{mechanism}")
        path = os.path.join(self.trace_dir, f"{stem}.trace.json")
        return write_chrome_trace(recorder, path, board=self.board)

    def run_outcome(
        self,
        spec: WorkloadSpec,
        outcome: MechanismOutcome,
        repetitions: Optional[int] = None,
        shared_state_stages=frozenset(),
        trace: Optional[TraceRecorder] = None,
        **config_overrides,
    ) -> RunResult:
        """Measure an already-prepared mechanism outcome (not cached)."""
        profile = self.profile(spec)
        config_kwargs = {
            "latency_constraint_us_per_byte": spec.latency_constraint,
            "repetitions": repetitions or self.repetitions,
            "batches_per_repetition": self.batches_per_repetition,
            "seed": self.seed,
        }
        config_kwargs.update(config_overrides)
        config = ExecutionConfig(**config_kwargs)
        executor = PipelineExecutor(self.board, config, trace=trace)
        per_batch = self._window(profile, config.batches_per_repetition)
        return executor.run(
            outcome.plan,
            per_batch,
            profile.batch_size_bytes,
            dynamics=outcome.dynamics,
            shared_state_stages=shared_state_stages,
        )

    def _window(self, profile: WorkloadProfile, batches: Optional[int] = None) -> List:
        batches = batches or self.batches_per_repetition
        per_batch = list(profile.per_batch_step_costs)
        while len(per_batch) < batches:
            per_batch.extend(profile.per_batch_step_costs)
        return per_batch[:batches]

    # -- grids -------------------------------------------------------------------

    def grid(
        self,
        specs: Sequence[WorkloadSpec],
        mechanisms: Sequence[str],
        jobs: Optional[int] = None,
        chunk: Optional[int] = None,
        **config_overrides,
    ) -> Dict[Tuple[str, str], RunResult]:
        """Run a (workload × mechanism) grid, cached cell by cell.

        ``jobs > 1`` fans uncached cells out over worker processes (see
        :mod:`repro.bench.parallel`); the default comes from the
        harness's ``jobs`` (i.e. ``REPRO_PARALLEL``, else serial), and
        requests past ``os.cpu_count()`` are clamped with a warning.
        ``chunk`` groups that many cells into one worker task (default:
        about four task waves per worker). Cell results are identical
        either way — each cell is an independent, seeded DES run.
        """
        jobs = self.jobs if jobs is None else max(1, jobs)
        if chunk is None:
            chunk = self.chunk
        if jobs > 1:
            from repro.bench.parallel import run_grid

            return run_grid(
                self, specs, mechanisms, jobs=jobs, chunk=chunk,
                **config_overrides
            )
        results = {}
        for spec in specs:
            for mechanism in mechanisms:
                results[(spec.label, mechanism)] = self.run(
                    spec, mechanism, **config_overrides
                )
        return results


_DEFAULT: Optional[Harness] = None


def default_harness() -> Harness:
    """The process-wide shared harness (what the benches use)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Harness()
    return _DEFAULT


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence],
    note: str = "",
) -> str:
    """Render an experiment table the way the paper's figures read."""
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [f"== {title} =="]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if note:
        lines.append(f"note: {note}")
    return "\n".join(lines)
