"""The four workloads of the end-to-end host-time benchmark.

A workload turns a seed into a list of :class:`Op` — one figure-grid
cell, one control-loop session, or one fleet scenario. ``child.py``
builds that list (the set-up), then calls every ``Op.run`` back to back
(the timed region), and only afterwards reads work units, canonical
outputs and verifier findings off the results.

The program receives only the generated specs: ``seed`` feeds
``Harness(seed=)``, ``FleetScenarioSpec(seed=)`` and the session
harness seeds, nothing else.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, Dict, List, Tuple

from repro.analysis.verify import (
    errors_only,
    verify_chrome_payload,
    verify_fleet_health,
    verify_health,
)
from repro.bench.cache import ResultCache
from repro.bench.harness import Harness, WorkloadSpec
from repro.control import ControllerConfig, SessionSpec, run_adaptive_session
from repro.faults.chaos import CHAOS_SCENARIOS, ChaosSpec, run_chaos_session
from repro.fleet.scenario import FleetScenarioSpec, run_fleet_scenario
from repro.obs.export import write_chrome_trace
from repro.simcore.boards import jetson_tx2_like, rk3399

__all__ = ["Op", "SCALES", "WORKLOADS", "build_ops", "canonical", "digest"]


@dataclass(frozen=True)
class Op:
    """One timed operation and the checks made on its result."""

    op_id: str
    #: the timed call; returns the op's result
    run: Callable[[], object]
    #: work units the result stands for (cells, windows, tenant-windows)
    units: Callable[[object], int]
    #: the result's outputs, digested for the correctness check
    outputs: Callable[[object], object]
    #: error findings of the repo's own verifiers on the result
    problems: Callable[[object], List[str]] = lambda result: []


# -- canonical outputs ---------------------------------------------------------


def canonical(value):
    """JSON-ready form of a result: dataclasses become dicts of their
    comparison fields (so ``RunResult.trace_summary`` and search wall
    clocks drop out), enums their names. Anything else is refused, so a
    repr carrying a memory address can never reach a digest."""
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical(getattr(value, f.name))
            for f in fields(value)
            if f.compare
        }
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, dict):
        return {str(canonical(key)): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(outputs) -> str:
    """sha256 of the canonical JSON; floats keep every digit."""
    text = json.dumps(
        canonical(outputs), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _findings(findings) -> List[str]:
    return [finding.format() for finding in errors_only(findings)]


# -- sizes -----------------------------------------------------------------------


@dataclass(frozen=True)
class GridSize:
    codecs: Tuple[str, ...]
    datasets: Tuple[str, ...]
    mechanisms: Tuple[str, ...]
    repetitions: int
    #: (codec, dataset, mechanism) cells left out of the grid
    skip: Tuple[Tuple[str, str, str], ...] = ()


@dataclass(frozen=True)
class SessionSize:
    boards: Tuple[str, ...]
    harness_seeds: int
    codecs: Tuple[str, ...]
    drifts: Tuple[str, ...]
    chaos: Tuple[str, ...]


@dataclass(frozen=True)
class FleetSize:
    boards: int
    tenants: int
    windows: int
    scenarios: Tuple[str, ...]


_CODECS = ("tcomp32", "tdic32", "lz4", "unlz4", "mltc")

#: ``full`` is the benchmark; ``quick`` is the smoke scale the tests run
SCALES: Dict[str, Dict[str, object]] = {
    "full": {
        "figgrid": GridSize(
            codecs=_CODECS,
            datasets=("rovio", "stock", "sensor"),
            mechanisms=("CStream", "OS", "CS", "RR", "BO", "LO"),
            repetitions=100,
        ),
        "traced": GridSize(
            codecs=_CODECS,
            datasets=("rovio", "sensor"),
            mechanisms=("CStream", "OS", "RR"),
            repetitions=20,
            # Its trace breaks TRC001 on every seed: a core's
            # context-switch counter is emitted ahead of a task span
            # that started earlier, a defect of the traced executor.
            skip=(("lz4", "rovio", "CStream"),),
        ),
        "session": SessionSize(
            boards=("rk3399", "jetson_tx2_like"),
            harness_seeds=3,
            codecs=("tcomp32", "tdic32"),
            drifts=("ramp", "burst", "phase-shift"),
            chaos=CHAOS_SCENARIOS,
        ),
        "fleet": FleetSize(
            boards=12,
            tenants=24,
            windows=24,
            scenarios=("board-crash", "board-crash-reboot", "board-throttle"),
        ),
    },
    "quick": {
        "figgrid": GridSize(
            codecs=("tcomp32", "unlz4"),
            datasets=("rovio",),
            mechanisms=("CStream", "RR"),
            repetitions=4,
        ),
        "traced": GridSize(
            codecs=("tcomp32",),
            datasets=("rovio",),
            mechanisms=("CStream", "OS"),
            repetitions=2,
        ),
        "session": SessionSize(
            boards=("rk3399",),
            harness_seeds=1,
            codecs=("tcomp32",),
            drifts=("phase-shift",),
            chaos=("core-failure",),
        ),
        "fleet": FleetSize(
            boards=3,
            tenants=6,
            windows=6,
            scenarios=("board-crash",),
        ),
    },
}

#: figure-grid settings shared by ``figgrid`` and ``traced``
GRID_BATCH_BYTES = 16384
GRID_BATCHES_PER_REPETITION = 5
GRID_PROFILE_BATCHES = 4

_BOARDS = {"rk3399": rk3399, "jetson_tx2_like": jetson_tx2_like}

#: ``cstream adapt``'s per-board L_set, µs/byte
ADAPT_L_SET = {"rk3399": 20.0, "jetson_tx2_like": 8.0}

#: batch size of the chaos sessions, bytes
CHAOS_BATCH_BYTES = 8192


# -- workloads -------------------------------------------------------------------


def _grid_harness(seed: int, size: GridSize, scratch: str) -> Harness:
    """A serial harness with a fresh on-disk cache, so every lookup in a
    repeat misses and every result is stored — what a cold figure run
    pays."""
    return Harness(
        repetitions=size.repetitions,
        batches_per_repetition=GRID_BATCHES_PER_REPETITION,
        profile_batches=GRID_PROFILE_BATCHES,
        seed=seed,
        cache=ResultCache(os.path.join(scratch, "cache")),
        jobs=1,
    )


def _grid_specs(size: GridSize):
    for codec in size.codecs:
        for dataset in size.datasets:
            spec = WorkloadSpec.of(codec, dataset, batch_size=GRID_BATCH_BYTES)
            for mechanism in size.mechanisms:
                if (codec, dataset, mechanism) not in size.skip:
                    yield spec, mechanism


def figgrid_ops(seed: int, size: GridSize, scratch: str) -> List[Op]:
    harness = _grid_harness(seed, size, scratch)
    return [
        Op(
            op_id=f"{spec.label}/{mechanism}",
            run=lambda spec=spec, mechanism=mechanism: harness.run(
                spec, mechanism
            ),
            units=lambda result: 1,
            outputs=lambda result: result,
        )
        for spec, mechanism in _grid_specs(size)
    ]


def _trace_findings(result) -> List[str]:
    with open(result[1], "r", encoding="utf-8") as source:
        return _findings(verify_chrome_payload(json.load(source)))


def traced_ops(seed: int, size: GridSize, scratch: str) -> List[Op]:
    harness = _grid_harness(seed, size, scratch)
    ops = []
    for spec, mechanism in _grid_specs(size):
        path = os.path.join(scratch, f"{spec.label}-{mechanism}.trace.json")

        def run(spec=spec, mechanism=mechanism, path=path):
            result, recorder = harness.run_traced(spec, mechanism)
            write_chrome_trace(recorder, path, board=harness.board)
            return result, path

        ops.append(
            Op(
                op_id=f"{spec.label}/{mechanism}",
                run=run,
                units=lambda result: 1,
                outputs=lambda result: result[0],
                problems=_trace_findings,
            )
        )
    return ops


def _arm_outputs(result) -> Dict[str, object]:
    return {
        "batches": result.batches,
        "windows": result.windows,
        "replans": result.replans,
        "plans_adopted": result.plans_adopted,
        "migration_pause_us": result.migration_pause_us,
        "migration_energy_uj": result.migration_energy_uj,
        "plan_descriptions": result.plan_descriptions,
        "completion_ts_us": result.completion_ts_us,
    }


_SESSION_ARMS = ("baseline", "static", "adaptive")


def _session_outputs(comparison) -> Dict[str, object]:
    """The comparison's numbers, every arm's batches, the controller's
    events and the health report."""
    numbers = {
        f.name: getattr(comparison, f.name)
        for f in fields(comparison)
        if isinstance(getattr(comparison, f.name), (int, float, type(None)))
    }
    return {
        "numbers": numbers,
        "arms": {
            arm: _arm_outputs(getattr(comparison, arm))
            for arm in _SESSION_ARMS
            if hasattr(comparison, arm)
        },
        "controller_events": comparison.controller_events,
        "failover_events": getattr(comparison, "failover_events", ()),
        "health": comparison.health,
    }


def _session_windows(comparison) -> int:
    return sum(
        getattr(comparison, arm).windows
        for arm in _SESSION_ARMS
        if hasattr(comparison, arm)
    )


def _health_findings(comparison) -> List[str]:
    if comparison.health is None:
        return ["no health report"]
    return _findings(verify_health(json.loads(comparison.health.to_json())))


def _session_op(op_id: str, run: Callable[[], object]) -> Op:
    return Op(
        op_id=op_id,
        run=run,
        units=_session_windows,
        outputs=_session_outputs,
        problems=_health_findings,
    )


def session_ops(seed: int, size: SessionSize, scratch: str) -> List[Op]:
    ops = []
    for board_name in size.boards:
        for offset in range(size.harness_seeds):
            harness_seed = seed * size.harness_seeds + offset

            def harness(board=board_name, harness_seed=harness_seed) -> Harness:
                # a fresh harness per session, as each `cstream adapt` or
                # `cstream chaos` invocation builds one
                return Harness(board=_BOARDS[board](), cache=None, seed=harness_seed)

            for codec in size.codecs:
                prefix = f"{board_name}/s{harness_seed}/{codec}"
                for drift in size.drifts:
                    spec = SessionSpec(
                        codec=codec,
                        scenario=drift,
                        latency_constraint=ADAPT_L_SET[board_name],
                        controller=ControllerConfig(horizon_windows=4),
                    )
                    ops.append(_session_op(
                        f"{prefix}/adapt:{drift}",
                        lambda harness=harness, spec=spec: run_adaptive_session(
                            harness(), spec, telemetry=True
                        ),
                    ))
                for scenario in size.chaos:
                    spec = ChaosSpec(
                        codec=codec, scenario=scenario, batch_bytes=CHAOS_BATCH_BYTES
                    )
                    ops.append(_session_op(
                        f"{prefix}/chaos:{scenario}",
                        lambda harness=harness, spec=spec: run_chaos_session(
                            harness(), spec
                        ),
                    ))
    return ops


def _fleet_outputs(comparison) -> Dict[str, object]:
    return {
        arm: json.loads(health.to_json())
        for arm, health in comparison.healths.items()
    }


def _tenant_windows(comparison) -> int:
    return sum(
        len(window.tenants)
        for health in comparison.healths.values()
        for window in health.windows
    )


def _fleet_findings(comparison) -> List[str]:
    problems = []
    for arm, health in comparison.healths.items():
        payload = json.loads(health.to_json())
        problems.extend(
            f"{arm}: {line}" for line in _findings(verify_fleet_health(payload))
        )
    return problems


def fleet_ops(seed: int, size: FleetSize, scratch: str) -> List[Op]:
    return [
        Op(
            op_id=scenario,
            run=lambda spec=FleetScenarioSpec(
                boards=size.boards,
                tenants=size.tenants,
                windows=size.windows,
                scenario=scenario,
                seed=seed,
            ): run_fleet_scenario(spec),
            units=_tenant_windows,
            outputs=_fleet_outputs,
            problems=_fleet_findings,
        )
        for scenario in size.scenarios
    ]


WORKLOADS = {
    "figgrid": figgrid_ops,
    "traced": traced_ops,
    "session": session_ops,
    "fleet": fleet_ops,
}


def build_ops(workload: str, seed: int, scale: str, scratch: str) -> List[Op]:
    """The ops of ``workload`` at ``scale`` for ``seed``; ``scratch`` is
    an empty directory the ops may write to."""
    return WORKLOADS[workload](seed, SCALES[scale][workload], scratch)
