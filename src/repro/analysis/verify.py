"""Plan and trace invariant verifier (``python -m repro.analysis.verify``).

The static linter (:mod:`repro.analysis.lint`) keeps nondeterminism out
of the *source*; this module checks the *artifacts* — scheduling plans
before they are simulated, and exported trace streams after a run:

========  ==================================================================
code      invariant
========  ==================================================================
PLN001    the plan's task graph is acyclic: the declared stage
          predecessors (chain order for plans without them) plus the
          data dependencies implied by the codec's step graph must
          admit a topological order
PLN002    step coverage: the plan's tasks cover exactly the codec's step
          decomposition — no missing, duplicated or unknown steps
PLN003    every assigned core id exists on the target board
PLN004    no core hosts two replicas of the *same* stage (warning —
          legitimate for OS/EAS-style placements, pathological for
          model-guided plans)
PLN005    L_set feasibility: the cost model's estimate for the plan
          meets the latency constraint (error when the caller expects a
          feasible plan, warning otherwise)
PLN006    join coverage: the stage graph has a unique sink and every
          stage reaches it, so counting batch completions at the sink
          observes every routed batch (the executor's join barrier and
          retry accounting both rely on this)
TRC001    simulated time is non-decreasing per track (``(pid, tid)``) in
          stream order
TRC002    cumulative energy counters never decrease per track
TRC003    ``X`` spans on one track never overlap — a core cannot run
          two things at once
TRC004    same-timestamp counter updates with different values on one
          track are order-dependent pairs: swapping them changes the
          counter's value at that instant (simulation race hazard;
          warning, aggregated)
TRC005    well-formed quantities: no negative timestamps/durations, and
          integer pid/tid
TRC006    a core emits no task service spans after its permanent-failure
          (``core-failure``) event — dead hardware does no work
TRC007    every ``batch-retry`` event names a batch with a matching
          ``batch-corrupted`` event — retries only happen to batches the
          decode verification actually flagged
HLT001    in a session health report, each window's attributed component
          residuals plus the unattributed remainder sum to the window's
          latency residual
HLT002    health attributions reference live components: the named
          (kind, key) appears in the window's component list, path keys
          are known interconnect classes, stage/core keys are indices
HLT003    every quantity in a health report is finite — a NaN residual
          means the ledger divided by an empty window
FLT001    in a fleet health report (schema v2), no tenant is recorded
          ``running`` on a board recorded dead in the same window
FLT002    admission honesty: every ``admit`` event's tenant shows a
          modeled latency within its ``l_set`` in the admission window
FLT003    breaker-state legality: each board's breaker transitions
          chain legally from ``closed`` (closed→open→half-open→…), and
          replaying them reproduces the per-window recorded state
FLT004    shed-priority order: an overload shed's victim has the lowest
          priority among the tenants then running on that board
FLT005    backoff bounded: every queued retry delay is within the
          jittered cap of the default backoff policy
========  ==================================================================

Severity model: **error** findings make the CLI exit 1; **warning**
findings are printed but only fail with ``--strict``. CI runs the
verifier over every cell the smoke job traces.

Plans, cost models, traces and health reports are duck-typed (reports
are checked as parsed JSON), so :mod:`repro.obs.check` reuses these
checks as its invariant layer. Constants the invariants depend on are
read from their owners: the breaker's legal edges, the gateway's
default backoff policy and the interconnect path classes.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import re
import sys
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.fleet.breaker import LEGAL_TRANSITIONS
from repro.fleet.gateway import GatewayConfig
from repro.obs.health import FLEET_HEALTH_SCHEMA_VERSION, read_report
from repro.simcore.interconnect import Path

__all__ = [
    "VerifyFinding",
    "INVARIANTS",
    "verify_plan",
    "verify_trace_events",
    "verify_chrome_payload",
    "verify_health",
    "verify_fleet_health",
    "iter_chrome_events",
    "iter_recorder_events",
    "main",
]

#: invariant code -> one-line summary (rendered by README/DESIGN tables)
INVARIANTS: Dict[str, str] = {
    "PLN001": "plan task graph is acyclic under pipeline + data edges",
    "PLN002": "plan covers the codec's step decomposition exactly",
    "PLN003": "every assigned core id exists on the board",
    "PLN004": "no core double-booked within one stage (warning)",
    "PLN005": "plan meets the L_set latency constraint per the cost model",
    "PLN006": "stage graph has a unique sink every stage reaches",
    "TRC001": "simulated time non-decreasing per (pid, tid) track",
    "TRC002": "cumulative energy counters monotone per track",
    "TRC003": "X spans on one track never overlap",
    "TRC004": "no order-dependent same-timestamp counter pairs (warning)",
    "TRC005": "non-negative ts/dur, integer pid/tid",
    "TRC006": "no service spans on a core after its permanent failure",
    "TRC007": "every retried batch has a matching corruption event",
    "HLT001": "health components plus unattributed sum to the window "
              "residual",
    "HLT002": "health attributions reference live components (known "
              "path class, named component present in the window)",
    "HLT003": "health report quantities are all finite",
    "FLT001": "no tenant running on a dead board",
    "FLT002": "admitted implies modeled latency within l_set",
    "FLT003": "breaker transitions legal and replayable from the trace",
    "FLT004": "overload sheds evict the lowest priority first",
    "FLT005": "queued retry delays bounded by the backoff cap",
}

ERROR = "error"
WARNING = "warning"

#: span-overlap tolerance (µs) — absorbs float noise in back-dated spans
_SPAN_EPSILON_US = 1e-6


@dataclass(frozen=True)
class VerifyFinding:
    """One violated invariant."""

    code: str
    severity: str
    message: str
    location: str = ""

    def format(self) -> str:
        where = f" [{self.location}]" if self.location else ""
        return f"{self.code} {self.severity}: {self.message}{where}"


def errors_only(findings: Iterable[VerifyFinding]) -> List[VerifyFinding]:
    return [f for f in findings if f.severity == ERROR]


# ---------------------------------------------------------------------------
# plan invariants
# ---------------------------------------------------------------------------


def _plan_stages(plan: Any) -> List[Tuple[str, Tuple[str, ...]]]:
    """``(task name, step ids)`` per stage, duck-typed off the plan."""
    stages = []
    for task in plan.graph.tasks:
        stages.append((task.name, tuple(task.step_ids)))
    return stages


def _find_cycle(edges: Dict[int, set]) -> Optional[List[int]]:
    """A cycle as a node list (closed walk), or None. Iterative DFS with
    the classic white/grey/black colouring."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {node: WHITE for node in edges}
    parent: Dict[int, int] = {}
    for root in sorted(edges):
        if colour[root] != WHITE:
            continue
        stack: List[Tuple[int, Iterable[int]]] = [(root, iter(sorted(edges[root])))]
        colour[root] = GREY
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if colour.get(child, WHITE) == GREY:
                    # walk back from node to child via parent links
                    cycle = [child, node]
                    walker = node
                    while walker != child:
                        walker = parent[walker]
                        if walker != child:
                            cycle.append(walker)
                    cycle.reverse()
                    return cycle
                if colour.get(child, WHITE) == WHITE:
                    colour[child] = GREY
                    parent[child] = node
                    stack.append((child, iter(sorted(edges[child]))))
                    advanced = True
                    break
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return None


def _stage_predecessors(plan: Any) -> List[Tuple[int, ...]]:
    """Declared predecessor indices per stage, duck-typed off the plan.

    Tasks without a ``predecessors`` attribute (plans predating the DAG
    generalization, or minimal fakes in tests) get the chain shape.
    """
    tasks = list(plan.graph.tasks)
    shape: List[Tuple[int, ...]] = []
    for index, task in enumerate(tasks):
        declared = getattr(task, "predecessors", None)
        if declared is None:
            declared = () if index == 0 else (index - 1,)
        shape.append(tuple(int(p) for p in declared))
    return shape


def verify_plan(
    plan: Any,
    *,
    board: Any = None,
    expected_steps: Optional[Sequence[str]] = None,
    step_dependencies: Any = None,
    cost_model: Any = None,
    expect_feasible: bool = False,
) -> List[VerifyFinding]:
    """Check one scheduling plan against PLN001-PLN006.

    ``plan`` needs ``.graph.tasks`` (each with ``.name``/``.step_ids``,
    optionally ``.predecessors``) and ``.assignments``; ``board`` needs
    ``.core_by_id``; ``cost_model`` needs ``.evaluate(plan)`` returning
    an object with ``.feasible`` and ``.infeasibility_reason``;
    ``step_dependencies`` is the codec's step DAG (step id -> producer
    step ids) and replaces PLN001's linear step-order data edges —
    without it, consecutive ``expected_steps`` pairs are assumed to be
    data dependencies, which is only right for chain codecs. All the
    extras are optional — omitted checks are skipped, not failed.
    """
    findings: List[VerifyFinding] = []
    stages = _plan_stages(plan)
    assignments = tuple(tuple(cores) for cores in plan.assignments)

    # PLN002 — step coverage (checked first: PLN001's data edges need a
    # consistent step->stage map, which duplicates would garble)
    step_stage: Dict[str, int] = {}
    duplicated: List[str] = []
    for stage_index, (_, step_ids) in enumerate(stages):
        for step_id in step_ids:
            if step_id in step_stage:
                duplicated.append(step_id)
            else:
                step_stage[step_id] = stage_index
    if duplicated:
        findings.append(
            VerifyFinding(
                code="PLN002",
                severity=ERROR,
                message=f"steps assigned to more than one task: {duplicated}",
            )
        )
    if expected_steps is not None:
        expected = list(expected_steps)
        missing = [s for s in expected if s not in step_stage]
        unknown = [s for s in step_stage if s not in set(expected)]
        if missing:
            findings.append(
                VerifyFinding(
                    code="PLN002",
                    severity=ERROR,
                    message=f"decomposition misses codec steps: {missing}",
                )
            )
        if unknown:
            findings.append(
                VerifyFinding(
                    code="PLN002",
                    severity=ERROR,
                    message=f"decomposition has unknown steps: {unknown}",
                )
            )

    # PLN001 — acyclicity of declared pipeline edges + data edges
    shape = _stage_predecessors(plan)
    pipeline_edges: Dict[int, set] = {
        index: set() for index in range(len(stages))
    }
    for stage_index, producers in enumerate(shape):
        for producer in producers:
            if 0 <= producer < len(stages) and producer != stage_index:
                pipeline_edges[producer].add(stage_index)
            elif producer == stage_index:
                pipeline_edges[stage_index].add(stage_index)
    edges: Dict[int, set] = {
        index: set(targets) for index, targets in pipeline_edges.items()
    }
    if not duplicated:
        if step_dependencies is not None:
            for consumer_step, producer_steps in dict(step_dependencies).items():
                if consumer_step not in step_stage:
                    continue
                target = step_stage[consumer_step]
                for producer_step in producer_steps:
                    source = step_stage.get(producer_step)
                    if source is not None and source != target:
                        edges[source].add(target)
        elif expected_steps is not None:
            ordered = [s for s in expected_steps if s in step_stage]
            for producer, consumer in zip(ordered, ordered[1:]):
                source = step_stage[producer]
                target = step_stage[consumer]
                if source != target:
                    edges[source].add(target)
    cycle = _find_cycle(edges)
    if cycle is not None:
        names = " -> ".join(stages[index][0] for index in cycle + cycle[:1])
        findings.append(
            VerifyFinding(
                code="PLN001",
                severity=ERROR,
                message=(
                    "plan dependencies are cyclic (declared stage "
                    "predecessors contradict the codec's step "
                    f"dependencies): {names}"
                ),
            )
        )

    # PLN006 — join coverage over the declared pipeline edges: a unique
    # sink that every stage reaches. Skipped when PLN001 already fired —
    # reachability over a cyclic graph would only repeat the finding.
    if cycle is None and len(stages) > 0:
        sinks = sorted(
            index
            for index in range(len(stages))
            if not pipeline_edges[index]
        )
        if len(sinks) != 1:
            names = ", ".join(stages[index][0] for index in sinks)
            findings.append(
                VerifyFinding(
                    code="PLN006",
                    severity=ERROR,
                    message=(
                        f"stage graph has {len(sinks)} sinks ({names or 'none'}); "
                        "batch completion is only counted at a unique "
                        "final stage"
                    ),
                )
            )
        else:
            sink = sinks[0]
            reaches = {sink}
            frontier = [sink]
            incoming: Dict[int, set] = {i: set() for i in range(len(stages))}
            for source, targets in pipeline_edges.items():
                for target in targets:
                    incoming[target].add(source)
            while frontier:
                node = frontier.pop()
                for producer in incoming[node]:
                    if producer not in reaches:
                        reaches.add(producer)
                        frontier.append(producer)
            stranded = [
                stages[index][0]
                for index in range(len(stages))
                if index not in reaches
            ]
            if stranded:
                findings.append(
                    VerifyFinding(
                        code="PLN006",
                        severity=ERROR,
                        message=(
                            f"stage(s) {stranded} never reach the sink "
                            f"{stages[sink][0]} — their batches would be "
                            "produced but never counted complete"
                        ),
                    )
                )

    # PLN003 — core ids exist on the board
    if board is not None:
        valid = set(board.core_by_id)
        for stage_index, cores in enumerate(assignments):
            bad = sorted(set(core for core in cores if core not in valid))
            if bad:
                findings.append(
                    VerifyFinding(
                        code="PLN003",
                        severity=ERROR,
                        message=(
                            f"stage {stage_index} assigns unknown core "
                            f"id(s) {bad}; board has {sorted(valid)}"
                        ),
                        location=f"stage {stage_index}",
                    )
                )

    # PLN004 — within-stage double-booking (warning: EAS/OS placements
    # legitimately stack two workers on one little core)
    for stage_index, cores in enumerate(assignments):
        seen: Dict[int, int] = {}
        for core in cores:
            seen[core] = seen.get(core, 0) + 1
        booked = sorted(core for core, count in seen.items() if count > 1)
        if booked:
            findings.append(
                VerifyFinding(
                    code="PLN004",
                    severity=WARNING,
                    message=(
                        f"stage {stage_index} places multiple replicas on "
                        f"core(s) {booked}; replicas of one stage share "
                        "that core's capacity"
                    ),
                    location=f"stage {stage_index}",
                )
            )

    # PLN005 — L_set feasibility per the cost model
    if cost_model is not None:
        estimate = cost_model.evaluate(plan)
        if not estimate.feasible:
            findings.append(
                VerifyFinding(
                    code="PLN005",
                    severity=ERROR if expect_feasible else WARNING,
                    message=(
                        "plan misses the latency constraint: "
                        f"{estimate.infeasibility_reason or 'infeasible'}"
                    ),
                )
            )

    return findings


# ---------------------------------------------------------------------------
# trace invariants
# ---------------------------------------------------------------------------


def iter_chrome_events(payload: Any) -> Iterable[Dict[str, Any]]:
    """Normalized event dicts from a parsed Chrome trace-event object.

    Metadata (``ph == "M"``) events are skipped — they carry no
    timeline. Malformed entries are passed through with defaulted fields
    so TRC005 can report them instead of crashing.
    """
    events = payload.get("traceEvents", []) if isinstance(payload, dict) else []
    for index, event in enumerate(events):
        if not isinstance(event, dict) or event.get("ph") == "M":
            continue
        args = event.get("args")
        yield {
            "index": index,
            "name": event.get("name", ""),
            "ph": event.get("ph", ""),
            "ts": event.get("ts", 0),
            "pid": event.get("pid", 0),
            "tid": event.get("tid", 0),
            "dur": event.get("dur", 0),
            "cat": event.get("cat", ""),
            "args": dict(args) if isinstance(args, dict) else {},
        }


def iter_recorder_events(recorder: Any) -> Iterable[Dict[str, Any]]:
    """Normalized event dicts straight from a live
    :class:`repro.obs.trace.TraceRecorder` (duck-typed: anything with an
    ``events`` list of ``TraceEvent``-shaped objects). A recorder builds
    that list from its row buffer on every read, so it is read once."""
    for index, event in enumerate(recorder.events):
        yield {
            "index": index,
            "name": event.name,
            "ph": event.phase,
            "ts": event.ts_us,
            "pid": event.pid,
            "tid": event.tid,
            "dur": event.dur_us,
            "cat": event.category,
            "args": dict(event.args),
        }


def _is_energy_counter(event: Dict[str, Any]) -> bool:
    name = event["name"]
    return event["ph"] == "C" and (
        event.get("cat") == "energy" or name.startswith("energy.")
    )


def _counter_value(event: Dict[str, Any]) -> Optional[float]:
    value = event["args"].get("value")
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    return None


def _track(event: Dict[str, Any]) -> Tuple[Any, Any]:
    return (event["pid"], event["tid"])


def verify_trace_events(
    events: Iterable[Dict[str, Any]],
) -> List[VerifyFinding]:
    """Check a normalized event stream against TRC001-TRC007.

    ``events`` must be in *stream order* (the order the recorder emitted
    them / the order they appear in the exported file) — TRC001 and
    TRC004 are statements about that order.
    """
    findings: List[VerifyFinding] = []

    last_ts: Dict[Tuple[Any, Any], float] = {}
    ts_violations: Dict[Tuple[Any, Any], Tuple[int, int]] = {}
    energy_last: Dict[Tuple[Any, Any, str], float] = {}
    spans: Dict[Tuple[Any, Any], List[Tuple[float, float, int]]] = {}
    hazard_count = 0
    hazard_example: Optional[str] = None
    previous: Optional[Dict[str, Any]] = None
    malformed = 0
    malformed_example: Optional[str] = None
    # TRC006/TRC007 raw material
    core_failures: Dict[Tuple[Any, Any], float] = {}
    task_spans: List[Tuple[Any, Any, float, int]] = []
    corrupted: Dict[Any, set] = {}
    retries: List[Tuple[Any, Any, int]] = []

    for event in events:
        index = event["index"]
        ts = event["ts"]
        dur = event["dur"]

        # TRC005 — well-formed quantities
        bad_ts = (
            not isinstance(ts, numbers.Real) or isinstance(ts, bool) or ts < 0
        )
        bad_dur = (
            not isinstance(dur, numbers.Real)
            or isinstance(dur, bool)
            or dur < 0
        )
        bad_track = any(
            not isinstance(event[key], int) or isinstance(event[key], bool)
            for key in ("pid", "tid")
        )
        if bad_ts or bad_dur or bad_track:
            malformed += 1
            if malformed_example is None:
                what = "ts" if bad_ts else ("dur" if bad_dur else "pid/tid")
                malformed_example = (
                    f"traceEvents[{index}] {event['name']!r}: bad {what}"
                )
            previous = event
            continue
        ts = float(ts)
        track = _track(event)

        # TRC001 — per-track monotone simulated time
        seen = last_ts.get(track)
        if seen is not None and ts < seen:
            count, first = ts_violations.get(track, (0, index))
            ts_violations[track] = (count + 1, first)
        if seen is None or ts > seen:
            last_ts[track] = ts

        # TRC002 — cumulative energy counters never decrease
        if _is_energy_counter(event):
            value = _counter_value(event)
            if value is not None:
                key = (event["pid"], event["tid"], event["name"])
                before = energy_last.get(key)
                if before is not None and value < before:
                    findings.append(
                        VerifyFinding(
                            code="TRC002",
                            severity=ERROR,
                            message=(
                                f"cumulative counter {event['name']!r} "
                                f"drops {before} -> {value}"
                            ),
                            location=(
                                f"traceEvents[{index}] pid={event['pid']} "
                                f"tid={event['tid']}"
                            ),
                        )
                    )
                energy_last[key] = value

        # TRC003 — collect X spans per track
        if event["ph"] == "X":
            spans.setdefault(track, []).append((ts, ts + float(dur), index))

        # TRC006/TRC007 — collect fault events and task spans
        if event["ph"] == "X" and event.get("cat") == "task":
            task_spans.append((event["pid"], event["tid"], ts, index))
        elif event["name"] == "core-failure":
            core = event["args"].get("core")
            if core is not None:
                key = (event["pid"], core)
                if key not in core_failures or ts < core_failures[key]:
                    core_failures[key] = ts
        elif event["name"] == "batch-corrupted":
            batch = event["args"].get("batch")
            if batch is not None:
                corrupted.setdefault(event["pid"], set()).add(batch)
        elif event["name"] == "batch-retry":
            batch = event["args"].get("batch")
            if batch is not None:
                retries.append((event["pid"], batch, index))

        # TRC004 — order-dependent same-timestamp counter pairs
        if (
            previous is not None
            and event["ph"] == "C"
            and previous.get("ph") == "C"
            and _track(previous) == track
            and previous.get("ts") == event["ts"]
            and previous.get("name") == event["name"]
        ):
            before_value = _counter_value(previous)
            after_value = _counter_value(event)
            if (
                before_value is not None
                and after_value is not None
                and before_value != after_value
            ):
                hazard_count += 1
                if hazard_example is None:
                    hazard_example = (
                        f"traceEvents[{index}] {event['name']!r} at "
                        f"ts={ts}: {before_value} vs {after_value}"
                    )
        previous = event

    if malformed:
        findings.append(
            VerifyFinding(
                code="TRC005",
                severity=ERROR,
                message=(
                    f"{malformed} event(s) with negative or non-numeric "
                    "ts/dur or non-integer pid/tid"
                ),
                location=malformed_example or "",
            )
        )
    for track, (count, first) in sorted(ts_violations.items(), key=str):
        findings.append(
            VerifyFinding(
                code="TRC001",
                severity=ERROR,
                message=(
                    f"simulated time goes backwards {count} time(s) on "
                    f"track pid={track[0]} tid={track[1]}"
                ),
                location=f"first at traceEvents[{first}]",
            )
        )
    for track, track_spans in sorted(spans.items(), key=str):
        track_spans.sort(key=lambda span: (span[0], span[1], span[2]))
        open_end = None
        open_index = None
        for start, end, index in track_spans:
            if open_end is not None and start < open_end - _SPAN_EPSILON_US:
                findings.append(
                    VerifyFinding(
                        code="TRC003",
                        severity=ERROR,
                        message=(
                            f"span starting at ts={start} overlaps the "
                            f"span ending at ts={open_end} on track "
                            f"pid={track[0]} tid={track[1]}"
                        ),
                        location=(
                            f"traceEvents[{index}] vs "
                            f"traceEvents[{open_index}]"
                        ),
                    )
                )
            if open_end is None or end > open_end:
                open_end = end
                open_index = index
    # TRC006 — no service spans on a core after its permanent failure.
    # Strict ">": a span can legitimately *start* at the failure instant
    # (the failure fires at a batch boundary the span helped produce).
    if core_failures:
        for pid, tid, ts, index in task_spans:
            failed_at = core_failures.get((pid, tid))
            if failed_at is not None and ts > failed_at:
                findings.append(
                    VerifyFinding(
                        code="TRC006",
                        severity=ERROR,
                        message=(
                            f"task span starts at ts={ts} on core {tid} "
                            f"after its permanent failure at "
                            f"ts={failed_at}"
                        ),
                        location=f"traceEvents[{index}] pid={pid}",
                    )
                )
    # TRC007 — every retried batch was flagged corrupt first
    for pid, batch, index in retries:
        if batch not in corrupted.get(pid, ()):
            findings.append(
                VerifyFinding(
                    code="TRC007",
                    severity=ERROR,
                    message=(
                        f"batch {batch} retried without a matching "
                        "batch-corrupted event"
                    ),
                    location=f"traceEvents[{index}] pid={pid}",
                )
            )
    if hazard_count:
        findings.append(
            VerifyFinding(
                code="TRC004",
                severity=WARNING,
                message=(
                    f"{hazard_count} same-timestamp counter pair(s) whose "
                    "order changes the counter value at that instant "
                    "(simulation race hazard if emission order ever "
                    "stops being deterministic)"
                ),
                location=hazard_example or "",
            )
        )

    return findings


def verify_chrome_payload(payload: Any) -> List[VerifyFinding]:
    """Trace invariants over a parsed Chrome trace-event object."""
    return verify_trace_events(iter_chrome_events(payload))


# ---------------------------------------------------------------------------
# health-report invariants
# ---------------------------------------------------------------------------

#: HLT001 tolerance — the ledger sums residual slices with fsum, so any
#: drift beyond float noise means writer and checker disagree.
_RESIDUAL_EPSILON = 1e-6

#: interconnect path classes a "path" attribution may name
_KNOWN_PATHS = tuple(path.value for path in Path)


def _health_number(value: Any) -> Optional[float]:
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    return None


def verify_health(payload: Any) -> List[VerifyFinding]:
    """Arithmetic invariants (HLT001-HLT003) of a parsed health report.

    Expects the report to be schema-valid already
    (:func:`repro.obs.check.validate_health` runs the schema layer);
    here only the cross-field arithmetic is enforced, duck-typed over
    the raw JSON.
    """
    findings: List[VerifyFinding] = []
    if not isinstance(payload, dict):
        return findings
    windows = payload.get("windows")
    if not isinstance(windows, list):
        return findings
    for index, window in enumerate(windows):
        if not isinstance(window, dict):
            continue
        where = f"windows[{index}]"
        # HLT003 — everything finite
        numeric: List[Tuple[str, Any]] = [
            (name, window.get(name))
            for name in (
                "measured_latency_us_per_byte",
                "predicted_latency_us_per_byte",
                "latency_residual_us_per_byte",
                "measured_energy_uj_per_byte",
                "predicted_energy_uj_per_byte",
                "energy_residual_uj_per_byte",
                "unattributed_us_per_byte",
            )
        ]
        components = window.get("components")
        components = components if isinstance(components, list) else []
        for c_index, component in enumerate(components):
            if isinstance(component, dict):
                numeric.append((
                    f"components[{c_index}].residual_us_per_byte",
                    component.get("residual_us_per_byte"),
                ))
                numeric.append((
                    f"components[{c_index}].score",
                    component.get("score"),
                ))
        attribution = window.get("attribution")
        if isinstance(attribution, dict):
            for name in ("score", "residual_us_per_byte", "confidence"):
                numeric.append((f"attribution.{name}",
                                attribution.get(name)))
        finite = True
        for name, value in numeric:
            parsed = _health_number(value)
            if parsed is None or not math.isfinite(parsed):
                finite = False
                findings.append(
                    VerifyFinding(
                        code="HLT003",
                        severity=ERROR,
                        message=f"{name} is not a finite number",
                        location=where,
                    )
                )
        if not finite:
            continue
        # HLT001 — components + unattributed == window residual
        residual = float(window["latency_residual_us_per_byte"])
        attributed = sum(
            float(component["residual_us_per_byte"])
            for component in components
            if isinstance(component, dict)
        ) + float(window["unattributed_us_per_byte"])
        scale = max(abs(residual), abs(attributed), 1.0)
        if abs(residual - attributed) > _RESIDUAL_EPSILON * scale:
            findings.append(
                VerifyFinding(
                    code="HLT001",
                    severity=ERROR,
                    message=(
                        f"component residuals sum to {attributed:.9g} "
                        f"but the window residual is {residual:.9g}"
                    ),
                    location=where,
                )
            )
        # HLT002 — the attribution names a component that exists
        if isinstance(attribution, dict):
            kind = attribution.get("kind")
            key = attribution.get("key")
            named = {
                (component.get("kind"), component.get("key"))
                for component in components
                if isinstance(component, dict)
            }
            if (kind, key) not in named:
                findings.append(
                    VerifyFinding(
                        code="HLT002",
                        severity=ERROR,
                        message=(
                            f"attribution names {kind}:{key} but the "
                            "window has no such component"
                        ),
                        location=where,
                    )
                )
            if kind == "path" and key not in _KNOWN_PATHS:
                findings.append(
                    VerifyFinding(
                        code="HLT002",
                        severity=ERROR,
                        message=(
                            f"attribution names unknown interconnect "
                            f"path {key!r}"
                        ),
                        location=where,
                    )
                )
            if kind in ("retry", "core"):
                try:
                    parsed_key = int(key)
                except (TypeError, ValueError):
                    parsed_key = None
                if parsed_key is None or parsed_key < 0:
                    findings.append(
                        VerifyFinding(
                            code="HLT002",
                            severity=ERROR,
                            message=(
                                f"attribution {kind} key {key!r} is not "
                                "a non-negative index"
                            ),
                            location=where,
                        )
                    )
    return findings


# ---------------------------------------------------------------------------
# FLT001-FLT005 — fleet health reports (schema v2)
# ---------------------------------------------------------------------------

#: FLT005 bound: the default backoff policy's jittered cap,
#: cap_windows * (1 + jitter)
_FLEET_BACKOFF = GatewayConfig().backoff
_FLEET_BACKOFF_CAP_WINDOWS = _FLEET_BACKOFF.cap_windows * (
    1.0 + _FLEET_BACKOFF.jitter
)

_RETRY_DELAY_PATTERN = re.compile(r"retry in ([0-9][0-9.]*) windows")


def verify_fleet_health(payload: Any) -> List[VerifyFinding]:
    """Fleet invariants (FLT001-FLT005) of a parsed v2 health report.

    Duck-typed over the raw JSON like :func:`verify_health`; the report
    is expected to be schema-valid already
    (:func:`repro.obs.check.validate_health` handles that layer).
    """
    findings: List[VerifyFinding] = []
    if not isinstance(payload, dict):
        return findings
    windows = payload.get("windows")
    events = payload.get("events")
    windows = windows if isinstance(windows, list) else []
    events = events if isinstance(events, list) else []

    # indexed views of the window records
    tenants_by_window: Dict[int, Dict[int, dict]] = {}
    boards_by_window: Dict[int, Dict[int, dict]] = {}
    for window in windows:
        if not isinstance(window, dict):
            continue
        w_index = window.get("window_index")
        if not isinstance(w_index, int):
            continue
        tenants_by_window[w_index] = {
            t["tenant_id"]: t
            for t in window.get("tenants", [])
            if isinstance(t, dict) and isinstance(t.get("tenant_id"), int)
        }
        boards_by_window[w_index] = {
            b["board_index"]: b
            for b in window.get("boards", [])
            if isinstance(b, dict) and isinstance(b.get("board_index"), int)
        }

    # FLT001 — no tenant running on a dead board
    for w_index in sorted(tenants_by_window):
        boards = boards_by_window.get(w_index, {})
        for tenant_id in sorted(tenants_by_window[w_index]):
            tenant = tenants_by_window[w_index][tenant_id]
            if tenant.get("state") != "running":
                continue
            board = boards.get(tenant.get("board_index"))
            if board is not None and board.get("alive") is False:
                findings.append(
                    VerifyFinding(
                        code="FLT001",
                        severity=ERROR,
                        message=(
                            f"tenant {tenant_id} is running on dead "
                            f"board {tenant.get('board_index')}"
                        ),
                        location=f"windows[{w_index}]",
                    )
                )

    # FLT002 — admit events are honest about the SLO
    for event in events:
        if not isinstance(event, dict) or event.get("kind") != "admit":
            continue
        w_index = event.get("window_index")
        tenant_id = event.get("tenant_id")
        tenant = tenants_by_window.get(w_index, {}).get(tenant_id)
        if tenant is None or tenant.get("state") != "running":
            continue
        modeled = _health_number(tenant.get("modeled_latency_us_per_byte"))
        l_set = _health_number(tenant.get("l_set_us_per_byte"))
        if modeled is None or l_set is None or modeled > l_set:
            findings.append(
                VerifyFinding(
                    code="FLT002",
                    severity=ERROR,
                    message=(
                        f"tenant {tenant_id} admitted in window "
                        f"{w_index} with modeled latency {modeled} "
                        f"above its l_set {l_set}"
                    ),
                    location=f"events[{event.get('sequence')}]",
                )
            )

    # FLT003 — breaker transitions chain legally and replay to the
    # per-window recorded states
    transitions_by_board: Dict[int, List[Tuple[int, str, str]]] = {}
    for event in events:
        if not isinstance(event, dict) or event.get("kind") != "breaker":
            continue
        board_index = event.get("board_index")
        detail = str(event.get("detail", ""))
        edge = detail.split(" (")[0]
        if "->" not in edge or not isinstance(board_index, int):
            findings.append(
                VerifyFinding(
                    code="FLT003",
                    severity=ERROR,
                    message=f"malformed breaker event detail {detail!r}",
                    location=f"events[{event.get('sequence')}]",
                )
            )
            continue
        from_state, to_state = edge.split("->", 1)
        transitions_by_board.setdefault(board_index, []).append(
            (event.get("window_index"), from_state, to_state)
        )
    for board_index in sorted(transitions_by_board):
        state = "closed"
        for w_index, from_state, to_state in transitions_by_board[
            board_index
        ]:
            if from_state != state:
                findings.append(
                    VerifyFinding(
                        code="FLT003",
                        severity=ERROR,
                        message=(
                            f"board {board_index} breaker trace broken: "
                            f"at {state!r} but transition departs from "
                            f"{from_state!r} in window {w_index}"
                        ),
                        location=f"windows[{w_index}]",
                    )
                )
            if (from_state, to_state) not in LEGAL_TRANSITIONS:
                findings.append(
                    VerifyFinding(
                        code="FLT003",
                        severity=ERROR,
                        message=(
                            f"board {board_index} illegal breaker "
                            f"transition {from_state}->{to_state} in "
                            f"window {w_index}"
                        ),
                        location=f"windows[{w_index}]",
                    )
                )
            state = to_state
    # replay check: the state recorded for a board each window equals
    # the state after all transitions up to and including that window
    for board_index in sorted(
        set().union(*[set(b) for b in boards_by_window.values()] or [set()])
    ):
        trace = transitions_by_board.get(board_index, [])
        for w_index in sorted(boards_by_window):
            board = boards_by_window[w_index].get(board_index)
            if board is None:
                continue
            state = "closed"
            for t_window, _from, to_state in trace:
                if isinstance(t_window, int) and t_window <= w_index:
                    state = to_state
            if board.get("breaker_state") != state:
                findings.append(
                    VerifyFinding(
                        code="FLT003",
                        severity=ERROR,
                        message=(
                            f"board {board_index} records breaker state "
                            f"{board.get('breaker_state')!r} in window "
                            f"{w_index} but the transition trace "
                            f"replays to {state!r}"
                        ),
                        location=f"windows[{w_index}]",
                    )
                )

    # FLT004 — overload sheds evict the lowest priority first
    for event in events:
        if not isinstance(event, dict) or event.get("kind") != "shed":
            continue
        if not str(event.get("detail", "")).startswith("overload"):
            continue
        w_index = event.get("window_index")
        victim = tenants_by_window.get(w_index, {}).get(
            event.get("tenant_id")
        )
        if victim is None:
            continue
        victim_priority = victim.get("priority")
        for tenant_id in sorted(tenants_by_window.get(w_index, {})):
            tenant = tenants_by_window[w_index][tenant_id]
            if (
                tenant.get("state") == "running"
                and tenant.get("board_index") == event.get("board_index")
                and isinstance(tenant.get("priority"), int)
                and isinstance(victim_priority, int)
                and tenant["priority"] < victim_priority
            ):
                findings.append(
                    VerifyFinding(
                        code="FLT004",
                        severity=ERROR,
                        message=(
                            f"shed victim {event.get('tenant_id')} "
                            f"(priority {victim_priority}) outranks "
                            f"still-running tenant {tenant_id} "
                            f"(priority {tenant['priority']}) on board "
                            f"{event.get('board_index')}"
                        ),
                        location=f"events[{event.get('sequence')}]",
                    )
                )

    # FLT005 — queued retry delays bounded by the backoff cap
    for event in events:
        if not isinstance(event, dict):
            continue
        if event.get("kind") not in ("queue", "shed"):
            continue
        match = _RETRY_DELAY_PATTERN.search(str(event.get("detail", "")))
        if match is None:
            continue
        delay = float(match.group(1))
        if delay > _FLEET_BACKOFF_CAP_WINDOWS + 1e-9:
            findings.append(
                VerifyFinding(
                    code="FLT005",
                    severity=ERROR,
                    message=(
                        f"retry delay {delay} windows exceeds the "
                        f"backoff cap {_FLEET_BACKOFF_CAP_WINDOWS}"
                    ),
                    location=f"events[{event.get('sequence')}]",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.verify",
        description=(
            "trace-stream and health-report invariant verifier "
            "(TRC001-TRC007, HLT001-HLT003, FLT001-FLT005)"
        ),
    )
    parser.add_argument("traces", nargs="+", metavar="TRACE.json")
    parser.add_argument(
        "--strict", action="store_true",
        help="fail on warnings too, not only errors",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print findings as JSON instead of human output",
    )
    args = parser.parse_args(argv)

    all_findings: List[Tuple[str, VerifyFinding]] = []
    status = 0
    for path in args.traces:
        try:
            payload = read_report(path)
        except (OSError, json.JSONDecodeError) as error:
            print(f"{path}: unreadable trace: {error}", file=sys.stderr)
            status = 2
            continue
        if isinstance(payload, list):
            # An NDJSON tail of per-window health records (the format
            # `cstream --health-out` streams): a session without header.
            payload = {"windows": payload}
        if (
            isinstance(payload, dict)
            and payload.get("schema_version") == FLEET_HEALTH_SCHEMA_VERSION
        ):
            checked = verify_fleet_health(payload)
        elif isinstance(payload, dict) and "windows" in payload:
            checked = verify_health(payload)
        else:
            checked = verify_chrome_payload(payload)
        for finding in checked:
            all_findings.append((path, finding))

    errors = sum(1 for _, f in all_findings if f.severity == ERROR)
    warnings = len(all_findings) - errors
    if args.as_json:
        json.dump(
            {
                "version": 1,
                "findings": [
                    dict(asdict(finding), path=path)
                    for path, finding in all_findings
                ],
                "errors": errors,
                "warnings": warnings,
                "invariants": INVARIANTS,
            },
            sys.stdout,
            indent=2,
        )
        print()
    else:
        for path, finding in all_findings:
            print(f"{path}: {finding.format()}")
        print(
            f"checked {len(args.traces)} trace(s): "
            f"{errors} error(s), {warnings} warning(s)"
        )
    if status == 0 and (errors or (args.strict and warnings)):
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
