"""Plan and artifact checker (``python -m repro.analysis.verify``).

The static linter (:mod:`repro.analysis.lint`) keeps nondeterminism out
of the *source*; this module checks the *artifacts* — scheduling plans
before they are simulated, and the trace streams and health reports a
run leaves behind. Each artifact's schema and its invariants are
checked here and only here:

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
TRC005    the trace-event schema: every event has a known phase
          (``X``/``i``/``C``/``M``), a non-empty name, integer pid/tid
          and args that are an object; timeline events a non-negative
          ``ts``, ``X`` spans a non-negative ``dur``, counters non-empty
          numeric args, instants a ``t``/``p``/``g`` scope; metadata
          events name a process or thread in ``args.name``. An exported
          file is an object whose ``traceEvents`` array holds at least
          one non-metadata event
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
HLT003    a health report (session, NDJSON tail — its header line and
          window lines — or fleet report) matches the schema derived
          from its dataclasses
          (:func:`repro.obs.health.schema_problems`), every float finite
          — a NaN residual means the ledger divided by an empty window.
          The other HLT and FLT invariants run only on a sound shape
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
findings are printed but only fail with ``--strict``; an unreadable
file exits 2. The CLI reads the artifact's kind from its content
(:func:`repro.obs.health.read_artifact`), so one command checks every
trace and health file CI uploads.

Plans, cost models and traces are duck-typed; reports are checked as
parsed JSON. Constants the invariants depend on are read from their
owners: the breaker's legal edges, the gateway's default backoff policy
and the interconnect path classes.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import re
import sys
from dataclasses import asdict, dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ArtifactError
from repro.fleet.breaker import LEGAL_TRANSITIONS
from repro.fleet.gateway import GatewayConfig
from repro.obs.health import (
    FleetHealth,
    SessionHealth,
    Tail,
    TailHeader,
    WindowHealth,
    read_artifact,
    schema_problems,
)
from repro.simcore.interconnect import Path

__all__ = [
    "VerifyFinding",
    "INVARIANTS",
    "verify_plan",
    "verify_trace_events",
    "verify_chrome_payload",
    "verify_health",
    "verify_fleet_health",
    "errors_only",
    "iter_chrome_events",
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
    "TRC005": "every event matches the trace-event schema; the file "
              "holds at least one timeline event",
    "TRC006": "no service spans on a core after its permanent failure",
    "TRC007": "every retried batch has a matching corruption event",
    "HLT001": "health components plus unattributed sum to the window "
              "residual",
    "HLT002": "health attributions reference live components (known "
              "path class, named component present in the window)",
    "HLT003": "health report matches the dataclass-derived schema, "
              "every float finite",
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

    Fields keep their raw values (``None`` when absent; missing args
    read as ``{}``) so TRC005 can report malformed entries instead of
    crashing; an entry that is not an object reads as one with no
    fields.
    """
    events = payload.get("traceEvents", []) if isinstance(payload, dict) else []
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            event = {}
        args = event.get("args", {})
        yield {
            "index": index,
            "name": event.get("name"),
            "ph": event.get("ph"),
            "ts": event.get("ts"),
            "pid": event.get("pid"),
            "tid": event.get("tid"),
            "dur": event.get("dur"),
            "cat": event.get("cat", ""),
            "s": event.get("s"),
            "args": dict(args) if isinstance(args, dict) else args,
        }


#: phases the exporter emits (the subset of the trace-event spec checked)
_KNOWN_PHASES = ("X", "i", "C", "M")
_METADATA_NAMES = ("process_name", "thread_name")
_INSTANT_SCOPES = (None, "t", "p", "g")


def _is_number(value: Any) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _event_problems(event: Dict[str, Any]) -> List[str]:
    """TRC005: every way one normalized event departs from the
    trace-event schema (empty = well-formed)."""
    problems: List[str] = []
    name = event["name"]
    phase = event["ph"]
    if not isinstance(name, str) or not name:
        problems.append("missing or empty name")
    if phase not in _KNOWN_PHASES:
        problems.append(f"unknown phase {phase!r}")
        return problems
    if not all(
        isinstance(event[key], int) and not isinstance(event[key], bool)
        for key in ("pid", "tid")
    ):
        problems.append("non-integer pid/tid")
    args = event["args"]
    if not isinstance(args, dict):
        problems.append("args is not an object")
        args = {}
    if phase == "M":
        if name not in _METADATA_NAMES:
            problems.append("metadata event is not process_name/thread_name")
        if not isinstance(args.get("name"), str):
            problems.append("metadata event without an args.name string")
        return problems
    if not _is_number(event["ts"]) or event["ts"] < 0:
        problems.append("negative or non-numeric ts")
    if phase == "X" and (not _is_number(event["dur"]) or event["dur"] < 0):
        problems.append("complete event without a dur >= 0")
    if phase == "C":
        if not args:
            problems.append("counter event without args")
        elif not all(_is_number(value) for value in args.values()):
            problems.append("counter event with a non-numeric value")
    if phase == "i" and event["s"] not in _INSTANT_SCOPES:
        problems.append("instant scope not one of t/p/g")
    return problems


def _is_energy_counter(event: Dict[str, Any]) -> bool:
    name = event["name"]
    return event["ph"] == "C" and (
        event.get("cat") == "energy" or name.startswith("energy.")
    )


def _counter_value(event: Dict[str, Any]) -> Optional[float]:
    value = event["args"].get("value")
    return float(value) if _is_number(value) else None


def _track(event: Dict[str, Any]) -> Tuple[Any, Any]:
    return (event["pid"], event["tid"])


def verify_trace_events(
    events: Iterable[Dict[str, Any]],
) -> List[VerifyFinding]:
    """Check a normalized event stream against TRC001-TRC007.

    ``events`` must be in *stream order* (the order the recorder emitted
    them / the order they appear in the exported file) — TRC001 and
    TRC004 are statements about that order. Events that break the
    TRC005 schema are reported once per kind of problem and left out of
    the other invariants; metadata events carry no timeline.
    """
    findings: List[VerifyFinding] = []

    last_ts: Dict[Tuple[Any, Any], float] = {}
    ts_violations: Dict[Tuple[Any, Any], Tuple[int, int]] = {}
    energy_last: Dict[Tuple[Any, Any, str], float] = {}
    spans: Dict[Tuple[Any, Any], List[Tuple[float, float, int]]] = {}
    hazard_count = 0
    hazard_example: Optional[str] = None
    previous: Optional[Dict[str, Any]] = None
    #: TRC005 problem -> (event count, first offending event)
    malformed: Dict[str, Tuple[int, str]] = {}
    timeline = False
    # TRC006/TRC007 raw material
    core_failures: Dict[Tuple[Any, Any], float] = {}
    task_spans: List[Tuple[Any, Any, float, int]] = []
    corrupted: Dict[Any, set] = {}
    retries: List[Tuple[Any, Any, int]] = []

    for event in events:
        index = event["index"]
        timeline = timeline or event["ph"] not in (None, "M")

        # TRC005 — the event schema
        problems = _event_problems(event)
        if problems:
            for problem in problems:
                count, first = malformed.get(
                    problem, (0, f"traceEvents[{index}] {event['name']!r}")
                )
                malformed[problem] = (count + 1, first)
            previous = event
            continue
        if event["ph"] == "M":
            continue
        ts = float(event["ts"])
        dur = event["dur"]
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

    for problem, (count, first) in malformed.items():
        findings.append(
            VerifyFinding(
                code="TRC005",
                severity=ERROR,
                message=f"{count} event(s): {problem}",
                location=f"first at {first}",
            )
        )
    if not timeline:
        findings.append(
            VerifyFinding(
                code="TRC005",
                severity=ERROR,
                message="no non-metadata events recorded",
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
    """TRC001-TRC007 over a parsed Chrome trace-event object, which must
    be an object whose ``traceEvents`` is an array (TRC005)."""
    if not isinstance(payload, dict) or not isinstance(
        payload.get("traceEvents"), list
    ):
        return [
            VerifyFinding(
                code="TRC005",
                severity=ERROR,
                message="expected an object whose 'traceEvents' is an array",
                location="top level",
            )
        ]
    return verify_trace_events(iter_chrome_events(payload))


# ---------------------------------------------------------------------------
# health-report invariants
# ---------------------------------------------------------------------------

#: HLT001 tolerance — the ledger sums residual slices with fsum, so any
#: drift beyond float noise means writer and checker disagree.
_RESIDUAL_EPSILON = 1e-6

#: interconnect path classes a "path" attribution may name
_KNOWN_PATHS = tuple(path.value for path in Path)


def _index(key: str) -> Optional[int]:
    """``key`` as a non-negative stage/core index, or None."""
    try:
        index = int(key)
    except ValueError:
        return None
    return index if index >= 0 else None


def _schema_findings(problems: List[str]) -> List[VerifyFinding]:
    """HLT003 — one finding per departure from the report schema."""
    return [
        VerifyFinding(code="HLT003", severity=ERROR, message=problem)
        for problem in problems
    ]


def verify_health(payload: Any) -> List[VerifyFinding]:
    """HLT001-HLT003 of a parsed session report, or of an NDJSON
    :class:`~repro.obs.health.Tail`.

    The schema (HLT003) is checked first — a tail's header, when it has
    one, as a :class:`~repro.obs.health.TailHeader` and its window
    records as the ``windows`` of a report; the cross-field arithmetic
    runs only on a sound shape.
    """
    if isinstance(payload, Tail):
        problems = [] if payload.header is None else schema_problems(
            TailHeader, payload.header, "header"
        )
        problems += schema_problems(
            Tuple[WindowHealth, ...], payload.windows, "windows"
        )
        windows = payload.windows
    else:
        problems = schema_problems(SessionHealth, payload)
        windows = [] if problems else payload["windows"]
    if problems:
        return _schema_findings(problems)
    findings: List[VerifyFinding] = []
    for index, window in enumerate(windows):
        where = f"windows[{index}]"
        components = window["components"]
        # HLT001 — components + unattributed == window residual
        residual = float(window["latency_residual_us_per_byte"])
        attributed = sum(
            float(component["residual_us_per_byte"])
            for component in components
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
        attribution = window["attribution"]
        if attribution is None:
            continue
        kind = attribution["kind"]
        key = attribution["key"]
        named = {
            (component["kind"], component["key"]) for component in components
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
        if kind in ("retry", "core") and _index(key) is None:
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
    """HLT003 and FLT001-FLT005 of a parsed v2 fleet health report.

    The schema (HLT003) is checked first; the fleet invariants run only
    on a sound shape.
    """
    problems = schema_problems(FleetHealth, payload)
    if problems:
        return _schema_findings(problems)
    findings: List[VerifyFinding] = []
    events = payload["events"]

    # indexed views of the window records
    tenants_by_window: Dict[int, Dict[int, dict]] = {}
    boards_by_window: Dict[int, Dict[int, dict]] = {}
    for window in payload["windows"]:
        w_index = window["window_index"]
        tenants_by_window[w_index] = {
            t["tenant_id"]: t for t in window["tenants"]
        }
        boards_by_window[w_index] = {
            b["board_index"]: b for b in window["boards"]
        }

    # FLT001 — no tenant running on a dead board
    for w_index in sorted(tenants_by_window):
        boards = boards_by_window[w_index]
        for tenant_id in sorted(tenants_by_window[w_index]):
            tenant = tenants_by_window[w_index][tenant_id]
            if tenant["state"] != "running":
                continue
            board = boards.get(tenant["board_index"])
            if board is not None and not board["alive"]:
                findings.append(
                    VerifyFinding(
                        code="FLT001",
                        severity=ERROR,
                        message=(
                            f"tenant {tenant_id} is running on dead "
                            f"board {tenant['board_index']}"
                        ),
                        location=f"windows[{w_index}]",
                    )
                )

    # FLT002 — admit events are honest about the SLO
    for event in events:
        if event["kind"] != "admit":
            continue
        w_index = event["window_index"]
        tenant_id = event["tenant_id"]
        tenant = tenants_by_window.get(w_index, {}).get(tenant_id)
        if tenant is None or tenant["state"] != "running":
            continue
        modeled = tenant["modeled_latency_us_per_byte"]
        l_set = tenant["l_set_us_per_byte"]
        if modeled > l_set:
            findings.append(
                VerifyFinding(
                    code="FLT002",
                    severity=ERROR,
                    message=(
                        f"tenant {tenant_id} admitted in window "
                        f"{w_index} with modeled latency {modeled} "
                        f"above its l_set {l_set}"
                    ),
                    location=f"events[{event['sequence']}]",
                )
            )

    # FLT003 — breaker transitions chain legally and replay to the
    # per-window recorded states
    transitions_by_board: Dict[int, List[Tuple[int, str, str]]] = {}
    for event in events:
        if event["kind"] != "breaker":
            continue
        board_index = event["board_index"]
        detail = event["detail"]
        edge = detail.split(" (")[0]
        if "->" not in edge or board_index is None:
            findings.append(
                VerifyFinding(
                    code="FLT003",
                    severity=ERROR,
                    message=f"malformed breaker event detail {detail!r}",
                    location=f"events[{event['sequence']}]",
                )
            )
            continue
        from_state, to_state = edge.split("->", 1)
        transitions_by_board.setdefault(board_index, []).append(
            (event["window_index"], from_state, to_state)
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
                if t_window <= w_index:
                    state = to_state
            if board["breaker_state"] != state:
                findings.append(
                    VerifyFinding(
                        code="FLT003",
                        severity=ERROR,
                        message=(
                            f"board {board_index} records breaker state "
                            f"{board['breaker_state']!r} in window "
                            f"{w_index} but the transition trace "
                            f"replays to {state!r}"
                        ),
                        location=f"windows[{w_index}]",
                    )
                )

    # FLT004 — overload sheds evict the lowest priority first
    for event in events:
        if event["kind"] != "shed" or not event["detail"].startswith(
            "overload"
        ):
            continue
        w_index = event["window_index"]
        victim = tenants_by_window.get(w_index, {}).get(event["tenant_id"])
        if victim is None:
            continue
        victim_priority = victim["priority"]
        for tenant_id in sorted(tenants_by_window[w_index]):
            tenant = tenants_by_window[w_index][tenant_id]
            if (
                tenant["state"] == "running"
                and tenant["board_index"] == event["board_index"]
                and tenant["priority"] < victim_priority
            ):
                findings.append(
                    VerifyFinding(
                        code="FLT004",
                        severity=ERROR,
                        message=(
                            f"shed victim {event['tenant_id']} "
                            f"(priority {victim_priority}) outranks "
                            f"still-running tenant {tenant_id} "
                            f"(priority {tenant['priority']}) on board "
                            f"{event['board_index']}"
                        ),
                        location=f"events[{event['sequence']}]",
                    )
                )

    # FLT005 — queued retry delays bounded by the backoff cap
    for event in events:
        if event["kind"] not in ("queue", "shed"):
            continue
        match = _RETRY_DELAY_PATTERN.search(event["detail"])
        if match is None:
            continue
        try:
            delay = float(match.group(1))
        except ValueError:
            delay = math.nan
        if not delay <= _FLEET_BACKOFF_CAP_WINDOWS + 1e-9:
            findings.append(
                VerifyFinding(
                    code="FLT005",
                    severity=ERROR,
                    message=(
                        f"retry delay {match.group(1)} windows is not "
                        f"within the backoff cap {_FLEET_BACKOFF_CAP_WINDOWS}"
                    ),
                    location=f"events[{event['sequence']}]",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


#: artifact kind (:func:`repro.obs.health.read_artifact`) -> its checker
_CHECKERS: Dict[str, Callable[[Any], List[VerifyFinding]]] = {
    "trace": verify_chrome_payload,
    "session": verify_health,
    "tail": verify_health,
    "fleet": verify_fleet_health,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.verify",
        description=(
            "trace and health-report checker: schema and invariants "
            "(TRC001-TRC007, HLT001-HLT003, FLT001-FLT005); the kind of "
            "each file is read from its content"
        ),
    )
    parser.add_argument("artifacts", nargs="+", metavar="FILE")
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
    for path in args.artifacts:
        try:
            kind, payload = read_artifact(path)
        except (OSError, ArtifactError) as error:
            # both errors name the path in their message; print it once
            reason = (
                error.reason if isinstance(error, ArtifactError)
                else error.strerror or error
            )
            print(f"{path}: unreadable: {reason}", file=sys.stderr)
            status = 2
            continue
        for finding in _CHECKERS[kind](payload):
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
            f"checked {len(args.artifacts)} file(s): "
            f"{errors} error(s), {warnings} warning(s)"
        )
    if status == 0 and (errors or (args.strict and warnings)):
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
