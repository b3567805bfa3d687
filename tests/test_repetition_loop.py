"""The executor's repetition loop: calendar thunks, the static-governor
feed skip, the repetition-seed memo, the exact small mean, the random
placement draw, the per-run plan layout and its hop-price memo.

Every one of these removes host work and must change no simulated
number. The golden suite pins CStream and OS under the default
governor; the digests below pin the other mechanisms and the governor
paths, computed before the loop was slimmed, and the cells that read
what the plan layout holds (an interconnect fault mid-run, a fork-join
DAG with a replicated producer, shared-state locks, EAS placement),
computed before the layout existed.
"""

import gc
import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import Harness, WorkloadSpec
from repro.core.baselines import (
    MechanismOutcome,
    _random_plan_provider,
    get_mechanism,
)
from repro.core.plan import SchedulingPlan
from repro.core.task import Task, TaskGraph
from repro.errors import SimulationError
from repro.faults.model import FaultPlan, InterconnectDegradation
from repro.numerics import mean
from repro.obs.trace import TraceRecorder
from repro.runtime import executor as executor_module
from repro.runtime.executor import (
    ExecutionConfig,
    MechanismDynamics,
    PipelineExecutor,
    _CoreServer,
    _seed_state,
)
from repro.simcore.boards import rk3399
from repro.simcore.dvfs import get_governor
from repro.simcore.engine import Simulator
from repro.simcore.power import EnergyMeter


def result_digest(result) -> str:
    """sha256 over every float (as hex), flag and description of a run."""
    lines = []
    for rep in result.repetitions:
        lines.append(
            f"{rep.repetition} {rep.latency_us_per_byte.hex()} "
            f"{rep.energy_uj_per_byte.hex()} {rep.violated} "
            f"{rep.plan_description}"
        )
        for batch in rep.batches:
            lines.append(
                f" {batch.batch_index} {batch.latency_us_per_byte.hex()} "
                f"{batch.energy_uj_per_byte.hex()} {batch.violated}"
            )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def small_harness() -> Harness:
    return Harness(
        repetitions=4,
        batches_per_repetition=5,
        profile_batches=4,
        seed=0,
        cache=None,
        jobs=1,
    )


#: a non-max static map: little cores at 600 MHz, big cores at 1200 MHz
STATIC_MAP = {0: 600.0, 1: 600.0, 2: 600.0, 3: 600.0, 4: 1200.0, 5: 1200.0}

#: tdic32/rovio at 8 KiB: cell -> (mechanism, executor overrides)
CELLS = {
    "RR": ("RR", {}),
    "CS": ("CS", {}),
    "BO": ("BO", {}),
    "LO": ("LO", {}),
    "CStream-conservative": ("CStream", {"governor": "conservative"}),
    "CStream-ondemand": ("CStream", {"governor": "ondemand"}),
    "CStream-static-map": ("CStream", {"frequency_map": STATIC_MAP}),
    "OS": ("OS", {}),
    # the little cluster's c0 path slows x3 after batch 2 of every
    # repetition: RR's tdic32 chain sits on cores 0-3, so every hop
    # after the fault must be priced on the degraded interconnect
    "RR-c0-degraded": ("RR", {"fault_plan": FaultPlan(
        events=(InterconnectDegradation(at_batch=2, path="c0", factor=3.0),),
    )}),
}

PINNED = {
    "RR": (
        "f6d641ea85961f7c6ba6fc0ab348c8c3"
        "805851742ff7f4955468184602abc901"
    ),
    "CS": (
        "a535f2b9a08bfac988f2b12f2a1000db"
        "515b6cfa6814832a95289f383dda4506"
    ),
    "BO": (
        "eb42b94439e13cc8cccc0abb3abbd3f5"
        "8ac5b333d2e0c166a211f2f80deaf06c"
    ),
    "LO": (
        "03e4d46e4856498880e6bcf2371ca9c6"
        "3b16b3e9313942557229b76a5a6306a9"
    ),
    "CStream-conservative": (
        "b8f3c85fa4c3848715d1a4dd25fe7e7d"
        "964226cdf14455bb9739000290d58f0c"
    ),
    "CStream-ondemand": (
        "1c08e65897921244cc6d1614612c7f88"
        "99a33ac14e544e0df20a6a0193f31147"
    ),
    "CStream-static-map": (
        "33265244852a99a9ff04af0c835906a8"
        "b0314ad823e93c05ee23b17c0d824eca"
    ),
    "OS": (
        "34101a54e821ae15796b4941a5b05a0c"
        "5a7ce275d7167abc42a613b2f539c55d"
    ),
    "RR-c0-degraded": (
        "814db9bf9fe7fe96def0cedb2814b5dc"
        "da0df1a6822310ff480bb72b112edf15"
    ),
    "unlz4-fork-join": (
        "0e4e7d3500929b0d64b33530a48e85b5"
        "e23b814fb180824e7ef5f6872710c26d"
    ),
    "tdic32-shared-state": (
        "838c2d5a95b6a0f227db6b6181c75d75"
        "6f192e01789a9a7f464068fc85afe78a"
    ),
}


def fixed_plan_run(codec, assignments, **run_kwargs):
    """``assignments`` on ``codec``'s fine graph over rovio at 8 KiB."""
    harness = small_harness()
    spec = WorkloadSpec.of(codec, "rovio", batch_size=8192)
    graph = harness.context(spec).fine_graph
    outcome = MechanismOutcome(
        mechanism="fixed",
        graph=graph,
        plan=SchedulingPlan(graph=graph, assignments=assignments),
        dynamics=MechanismDynamics(context_switches_per_kb=0.05),
    )
    return harness.run_outcome(spec, outcome, **run_kwargs)


#: unlz4's fine graph is t0[d0+d1] -> t1[d2], with the join t2[d3]
#: reading both: t0 on both big cores puts t1's share at producer
#: offset 2 of t2's four inboxes
FORK_JOIN = ((4, 5), (0, 1), (2,))
#: tdic32's state stage t1[s2] replicated on both big cores
SHARED_STATE = ((0,), (4, 5), (1,), (2,))


def pinned_run(cell):
    if cell == "unlz4-fork-join":
        return fixed_plan_run("unlz4", FORK_JOIN)
    if cell == "tdic32-shared-state":
        return fixed_plan_run(
            "tdic32", SHARED_STATE,
            shared_state=True, shared_state_stages=frozenset({1}),
        )
    mechanism, overrides = CELLS[cell]
    spec = WorkloadSpec.of("tdic32", "rovio", batch_size=8192)
    return small_harness().run(spec, mechanism, **overrides)


class TestPinnedCells:
    @pytest.mark.parametrize("cell", sorted(PINNED))
    def test_digest_unchanged(self, cell):
        assert result_digest(pinned_run(cell)) == PINNED[cell]

    def test_governor_cells_differ_from_default(self):
        spec = WorkloadSpec.of("tdic32", "rovio", batch_size=8192)
        default = result_digest(small_harness().run(spec, "CStream"))
        for cell, digest in PINNED.items():
            if cell.startswith("CStream"):
                assert digest != default, cell

    def test_fault_and_lock_cells_bind(self):
        # each pin reads the path it names: the degradation, the locks
        assert PINNED["RR-c0-degraded"] != PINNED["RR"]
        private = fixed_plan_run("tdic32", SHARED_STATE)
        assert result_digest(private) != PINNED["tdic32-shared-state"]


def chain_twin(graph):
    """``graph``'s step groups as a plain chain (same stage count)."""
    return TaskGraph(
        codec_name=graph.codec_name,
        tasks=tuple(
            Task(task.name, task.step_ids, task.stage_index)
            for task in graph.tasks
        ),
    )


class TestPlanLayoutKey:
    """One executor reuses each plan's layout across its repetitions;
    a plan on another graph or with other assignments must get its own."""

    def setup_method(self):
        harness = small_harness()
        spec = WorkloadSpec.of("unlz4", "rovio", batch_size=8192)
        self.graph = harness.context(spec).fine_graph
        self.costs = harness._window(harness.profile(spec), 5)
        self.config = ExecutionConfig(
            latency_constraint_us_per_byte=spec.latency_constraint,
            repetitions=2,
            batches_per_repetition=5,
        )

    def fresh(self, plan):
        return PipelineExecutor(rk3399(), self.config).run(
            plan, self.costs, 8192
        )

    def test_same_assignments_on_another_graph(self):
        dag = SchedulingPlan(graph=self.graph, assignments=FORK_JOIN)
        chain = SchedulingPlan(
            graph=chain_twin(self.graph), assignments=FORK_JOIN
        )
        executor = PipelineExecutor(rk3399(), self.config)
        first = executor.run(dag, self.costs, 8192)
        second = executor.run(chain, self.costs, 8192)
        assert first == self.fresh(dag)
        assert second == self.fresh(chain)
        assert first != second

    def test_other_assignments_on_the_same_graph(self):
        plans = [
            SchedulingPlan(graph=self.graph, assignments=FORK_JOIN),
            SchedulingPlan(graph=self.graph, assignments=((4,), (0,), (2,))),
        ]
        executor = PipelineExecutor(rk3399(), self.config)
        runs = [executor.run(plan, self.costs, 8192) for plan in plans]
        assert runs == [self.fresh(plan) for plan in plans]

    def test_other_locked_stages(self):
        config = replace(self.config, shared_state=True)
        plan = SchedulingPlan(graph=self.graph, assignments=FORK_JOIN)
        executor = PipelineExecutor(rk3399(), config)
        runs = [
            executor.run(plan, self.costs, 8192, shared_state_stages=stages)
            for stages in (frozenset({0}), frozenset())
        ]
        assert runs[0] != runs[1]
        assert runs[1] == self.fresh(plan)


class TestCalendarThunks:
    def server(self, switch_instructions=1000.0):
        simulator = Simulator()
        board = rk3399()
        meter = EnergyMeter(clock=lambda: simulator.now)
        core = board.cores[0]
        return simulator, _CoreServer(
            simulator, core, core.max_frequency_mhz, meter,
            switch_instructions,
        )

    def test_negative_service_duration_rejected(self):
        simulator, server = self.server()
        server.submit("t", 0, -1.0, 1.0)
        with pytest.raises(SimulationError):
            simulator.run()

    def test_negative_switch_duration_rejected(self):
        simulator, server = self.server(switch_instructions=-1000.0)
        server.submit("a", 0, 1.0, 1.0)
        server.submit("b", 0, 1.0, 1.0)
        with pytest.raises(SimulationError):
            simulator.run()


class TestStaticGovernorFeed:
    def test_only_static_governor_skips_the_feed(self):
        board = rk3399()
        assert not get_governor("default", board).adapts
        assert get_governor("conservative", board).adapts
        assert get_governor("ondemand", board).adapts


class TestSeedStates:
    def test_state_matches_default_rng(self):
        for seed in (0, 1, 7919, 2**40 + 3):
            expected = np.random.default_rng(seed)
            bit_generator = np.random.PCG64(0)
            bit_generator.state = _seed_state(seed)
            rng = np.random.Generator(bit_generator)
            assert rng.random(4).tolist() == expected.random(4).tolist()
            assert rng.lognormal(0.0, 0.01) == expected.lognormal(0.0, 0.01)

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_SEED_STATES_MAX", 3)
        monkeypatch.setattr(
            executor_module, "_SEED_STATES", type(executor_module._SEED_STATES)()
        )
        for seed in range(5):
            _seed_state(seed)
        _seed_state(2)
        assert list(executor_module._SEED_STATES) == [3, 4, 2]


class TestLastTrace:
    def test_last_trace_is_the_final_repetition(self):
        """The last repetition a recorder holds, which ``render_gantt``
        draws, is what ``run_single`` traces for that repetition."""
        board = rk3399()
        harness = small_harness()
        spec = WorkloadSpec.of("tcomp32", "rovio", batch_size=8192)
        costs = harness.profile(spec).per_batch_step_costs
        plan = SchedulingPlan(
            graph=harness.context(spec).fine_graph,
            assignments=((4,), (0,)),
        )
        config = ExecutionConfig(
            latency_constraint_us_per_byte=26.0, repetitions=2, seed=3
        )

        def task_spans(recorder, repetition):
            return [
                (event.tid, event.name, event.ts_us, event.dur_us)
                for event in recorder.events
                if event.category == "task" and event.name != "ctx-switch"
                and event.pid == repetition
            ]

        recorder = TraceRecorder()
        PipelineExecutor(board, config, trace=recorder).run(plan, costs, 8192)
        assert max(event.pid for event in recorder.events) == 1
        trace = task_spans(recorder, 1)
        assert [name for tid, name, _, _ in trace if tid == 4] == (
            ["s0r0"] * len(costs)
        )
        assert [span for span in trace if span[0] == 1] == []

        single_recorder = TraceRecorder()
        single_recorder.begin_repetition(1)
        PipelineExecutor(board, config, trace=single_recorder).run_single(
            plan, costs, 8192, np.random.default_rng(3 + 7919), repetition=1
        )
        assert task_spans(single_recorder, 1) == trace


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("mechanism", ["CStream", "OS", "BO"])
    def test_finished_run_is_freed_by_reference_counting(self, mechanism):
        harness = small_harness()
        spec = WorkloadSpec.of("lz4", "rovio", batch_size=8192)
        outcome = get_mechanism(mechanism).prepare(harness.context(spec))
        harness.run_outcome(spec, outcome)
        gc.collect()
        harness.run_outcome(spec, outcome)
        assert gc.collect() == 0


class TestRandomPlacementDraw:
    @pytest.mark.parametrize("pool_size", range(1, 7))
    def test_draws_equal_rng_choice(self, pool_size):
        board = rk3399()
        harness = small_harness()
        spec = WorkloadSpec.of("lz4", "rovio", batch_size=8192)
        graph = harness.context(spec).fine_graph
        pool = tuple(core.core_id for core in board.cores)[:pool_size]
        provider = _random_plan_provider(graph, pool)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            reference = np.random.default_rng(seed)
            plan = provider(0, rng)
            expected = tuple(
                (int(reference.choice(pool)),) for _ in graph.tasks
            )
            assert plan.assignments == expected
            assert rng.random() == reference.random()


finite = st.floats(
    min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False
)
magnitudes = st.builds(
    lambda mantissa, exponent: mantissa * 10.0 ** exponent,
    st.floats(min_value=-10.0, max_value=10.0),
    st.integers(min_value=-300, max_value=299),
)


class TestSmallMean:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(finite, magnitudes), min_size=1, max_size=12))
    def test_equals_numpy_mean_bit_for_bit(self, values):
        assert mean(values).hex() == float(np.mean(values)).hex()

    @pytest.mark.parametrize("count", [7, 8])
    def test_both_sides_of_the_pairwise_boundary(self, count):
        values = [1e16] + [1.0] * (count - 1)
        assert mean(values).hex() == float(np.mean(values)).hex()
