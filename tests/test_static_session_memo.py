"""The process-wide static-session memo
(:func:`repro.control.session.run_static_session`) and the trimmed
drift-stream profiles.

A controller-less, untraced session is a pure function of its inputs,
so the chaos sessions' fault-free baselines and the adaptive sessions'
static arms are simulated once per distinct input. These tests pin
that a hit is the result a fresh simulation returns, that every input
is in the key, that ``abl_regulator`` simulates its static arm once,
and that profiling each drift range only up to the last row its stream
reads leaves the stream unchanged.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace

import pytest

from repro.bench.exp_ablations import abl_regulator
from repro.bench.harness import Harness, WorkloadSpec
from repro.compression import get_codec
from repro.control import session as session_module
from repro.control.session import (
    SESSION_BATCH_BYTES,
    SessionSpec,
    build_drift_stream,
    run_adaptive_session,
    run_static_session,
)
from repro.core.profiler import profile_workload
from repro.datasets import MicroDataset, drift_schedule
from repro.faults.chaos import CHAOS_SCENARIOS, ChaosSpec, run_chaos_session
from repro.faults.fleet import FLEET_SCENARIOS
from repro.fleet.scenario import FleetScenarioSpec, run_fleet_arm
from repro.runtime.executor import ExecutionConfig, PipelineExecutor
from repro.simcore.boards import jetson_tx2_like, rk3399

TEST_BATCH = 8192


def small_harness(board=None, seed=0):
    return Harness(
        board=board,
        repetitions=1,
        batches_per_repetition=3,
        profile_batches=3,
        seed=seed,
        cache=None,
    )


@pytest.fixture
def simulated(monkeypatch):
    """Start from an empty memo and record the ``controller`` of every
    session the executor simulates behind it."""
    monkeypatch.setattr(session_module, "_STATIC_SESSIONS", OrderedDict())
    controllers = []
    run_session = PipelineExecutor.run_session

    def recording(self, *args, **kwargs):
        controllers.append(kwargs.get("controller"))
        return run_session(self, *args, **kwargs)

    monkeypatch.setattr(PipelineExecutor, "run_session", recording)
    return controllers


def controllerless(controllers):
    return sum(1 for controller in controllers if controller is None)


class TestHitEqualsFresh:
    def test_chaos_baselines(self, simulated):
        harness = small_harness()
        memoized = {
            scenario: run_chaos_session(
                harness,
                ChaosSpec(scenario=scenario, batch_bytes=TEST_BATCH),
                telemetry=False,
            )
            for scenario in CHAOS_SCENARIOS
        }
        # one fault-free baseline, then one faulted static arm and one
        # controlled arm per scenario
        scenarios = len(CHAOS_SCENARIOS)
        assert controllerless(simulated) == 1 + scenarios
        assert len(simulated) == 1 + 2 * scenarios
        for scenario, comparison in memoized.items():
            session_module._STATIC_SESSIONS.clear()
            fresh = run_chaos_session(
                harness,
                ChaosSpec(scenario=scenario, batch_bytes=TEST_BATCH),
                telemetry=False,
            )
            assert comparison.baseline == fresh.baseline, scenario
            assert comparison.baseline_energy_uj_per_byte == (
                fresh.baseline_energy_uj_per_byte
            ), scenario

    def test_adaptive_static_arm(self, simulated):
        spec = SessionSpec(scenario="phase-shift")
        first = run_adaptive_session(small_harness(), spec)
        second = run_adaptive_session(small_harness(), spec)
        assert controllerless(simulated) == 1
        assert second.static is first.static
        session_module._STATIC_SESSIONS.clear()
        fresh = run_adaptive_session(small_harness(), spec)
        assert fresh.static is not first.static
        assert fresh.static == first.static
        assert fresh.static_energy_uj_per_byte == first.static_energy_uj_per_byte


@pytest.fixture(scope="module")
def session_inputs():
    """The fault-free baseline's inputs for tcomp32/rovio on rk3399."""
    harness = small_harness(rk3399())
    workload = WorkloadSpec.of("tcomp32", "rovio", batch_size=TEST_BATCH)
    context = harness.context(workload)
    per_batch = harness.profile(workload).per_batch_step_costs
    return {
        "board": harness.board,
        "config": ExecutionConfig(
            latency_constraint_us_per_byte=26.0,
            repetitions=1,
            batches_per_repetition=9,
            warmup_batches=2,
            seed=0,
        ),
        "plan": context.plan(context.fine_graph).plan,
        "stream": [per_batch[index % len(per_batch)] for index in range(9)],
        "batch_bytes": TEST_BATCH,
        "window_batches": 3,
    }


def _changed_row(stream, index):
    stream = list(stream)
    stream[index] = {
        step_id: replace(cost, instructions=cost.instructions * 1.01)
        for step_id, cost in stream[index].items()
    }
    return stream


#: one input of the session changed at a time; each must miss the memo
KEY_VARIANTS = {
    "l_set": lambda inputs: {"config": replace(
        inputs["config"], latency_constraint_us_per_byte=24.0)},
    "seed": lambda inputs: {"config": replace(inputs["config"], seed=1)},
    "window-batches": lambda inputs: {"window_batches": 2},
    "batch-bytes": lambda inputs: {"batch_bytes": 2 * TEST_BATCH},
    "board": lambda inputs: {"board": jetson_tx2_like()},
    "plan": lambda inputs: {"plan": replace(
        inputs["plan"],
        assignments=tuple((0,) for _ in inputs["plan"].assignments),
    )},
    "stream-row": lambda inputs: {"stream": _changed_row(inputs["stream"], 4)},
}


class TestKey:
    def test_equal_inputs_built_afresh_hit(self, simulated, session_inputs):
        first = run_static_session(**session_inputs)
        rebuilt = dict(
            session_inputs,
            board=rk3399(),
            config=replace(session_inputs["config"]),
            stream=[dict(row) for row in session_inputs["stream"]],
        )
        assert run_static_session(**rebuilt) is first
        assert len(simulated) == 1

    @pytest.mark.parametrize("variant", sorted(KEY_VARIANTS))
    def test_changed_input_misses(self, simulated, session_inputs, variant):
        changed = dict(session_inputs, **KEY_VARIANTS[variant](session_inputs))
        base = run_static_session(**session_inputs)
        result = run_static_session(**changed)
        assert len(simulated) == 2
        fresh = PipelineExecutor(changed["board"], changed["config"]).run_session(
            changed["plan"], changed["stream"], changed["batch_bytes"],
            window_batches=changed["window_batches"], controller=None,
        )
        assert result == fresh
        assert result != base

    def test_memo_is_bounded(self, simulated, session_inputs, monkeypatch):
        monkeypatch.setattr(session_module, "_STATIC_SESSIONS_MAX", 2)

        def run(seed):
            run_static_session(**dict(
                session_inputs,
                config=replace(session_inputs["config"], seed=seed),
            ))

        for seed in range(3):
            run(seed)
        assert len(session_module._STATIC_SESSIONS) == 2
        run(2)
        assert len(simulated) == 3
        run(0)
        assert len(simulated) == 4


def test_abl_regulator_simulates_static_arm_once(simulated):
    abl_regulator(small_harness())
    detectors = 2
    assert controllerless(simulated) == 1
    assert len(simulated) == 1 + detectors


class TestTrimmedDriftStream:
    """Each dynamic range is profiled up to the last row its stream
    reads; the rows equal those of a full three-batch profile."""

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("codec", ["tcomp32", "tdic32"])
    @pytest.mark.parametrize("scenario", ["ramp", "burst", "phase-shift"])
    def test_stream_equals_full_cycle_stream(self, scenario, codec, seed):
        harness = small_harness(seed=seed)
        spec = SessionSpec(codec=codec, scenario=scenario)
        _, stream, batch_bytes = build_drift_stream(harness, spec)
        assert batch_bytes == SESSION_BATCH_BYTES

        ranges = drift_schedule(
            scenario, spec.batches, low=spec.low_range, high=spec.high_range
        )
        full = {
            value: profile_workload(
                get_codec(codec),
                MicroDataset(dynamic_range=value),
                SESSION_BATCH_BYTES,
                batches=3,
                seed=seed + 1 + index,
            )
            for index, value in enumerate(sorted(set(ranges)))
        }
        expected = [
            full[value].per_batch_step_costs[batch_index % 3]
            for batch_index, value in enumerate(ranges)
        ]
        assert len(stream) == len(expected)
        for batch_index, (row, want) in enumerate(zip(stream, expected)):
            assert sorted(row.items()) == sorted(want.items()), batch_index


@pytest.mark.parametrize(
    "scenario", [name for name in FLEET_SCENARIOS if name != "none"]
)
def test_default_fleet_fault_board_runs_a_tenant(scenario):
    """At the default 3x6 fleet, board 0 runs a tenant when its fault
    fires at ``at_window``, so every arm has a victim."""
    spec = FleetScenarioSpec(scenario=scenario)
    health = run_fleet_arm(spec, "static")
    before = health.windows[spec.at_window - 1]
    assert before.boards[spec.fault_board].tenants_running >= 1
    hosted = [
        tenant.tenant_id
        for tenant in health.windows[spec.at_window].tenants
        if tenant.board_index == spec.fault_board
    ]
    assert hosted
