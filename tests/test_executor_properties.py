"""Property tests: invariants of the pipeline executor.

These use synthetic stage costs and hypothesis-drawn plans so the
invariants are checked far from the calibrated operating point.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.base import StepCost
from repro.core.plan import SchedulingPlan
from repro.core.task import Task, TaskGraph
from repro.obs.trace import TraceRecorder
from repro.runtime.executor import ExecutionConfig, PipelineExecutor
from repro.simcore.boards import rk3399

BATCH_BYTES = 8192

GRAPH = TaskGraph(
    codec_name="synthetic",
    tasks=(
        Task(name="t0", step_ids=("s0",), stage_index=0),
        Task(name="t1", step_ids=("s1",), stage_index=1),
    ),
)


def synthetic_costs(instructions_0=400_000, instructions_1=300_000):
    return {
        "s0": StepCost(
            instructions=instructions_0,
            memory_accesses=instructions_0 / 200.0,
            input_bytes=BATCH_BYTES,
            output_bytes=BATCH_BYTES,
        ),
        "s1": StepCost(
            instructions=instructions_1,
            memory_accesses=instructions_1 / 100.0,
            input_bytes=BATCH_BYTES,
            output_bytes=BATCH_BYTES // 2,
        ),
    }


def run_plan(
    plan, costs=None, batches=5, noise=0.0, trace=None, **config_overrides
):
    board = rk3399()
    options = {
        "latency_constraint_us_per_byte": 1e9,  # effectively unconstrained
        "repetitions": 1,
        "batches_per_repetition": batches,
        "warmup_batches": 2,
        "noise_sigma": noise,
        "overload_penalty": 0.0,
    }
    options.update(config_overrides)
    executor = PipelineExecutor(board, ExecutionConfig(**options), trace=trace)
    result = executor.run(
        plan, [costs or synthetic_costs()] * batches, BATCH_BYTES
    )
    return result, executor


core_ids = st.sampled_from([0, 1, 2, 3, 4, 5])
plans = st.tuples(
    st.lists(core_ids, min_size=1, max_size=3, unique=True),
    st.lists(core_ids, min_size=1, max_size=3, unique=True),
).map(
    lambda pair: SchedulingPlan(
        graph=GRAPH,
        assignments=(tuple(pair[0]), tuple(pair[1])),
    )
)


class TestInvariants:
    @given(plans)
    @settings(max_examples=25, deadline=None)
    def test_all_batches_complete_under_any_plan(self, plan):
        result, _ = run_plan(plan)
        assert len(result.repetitions[0].batches) == 5
        assert all(
            batch.latency_us_per_byte > 0
            for batch in result.repetitions[0].batches
        )

    @given(plans)
    @settings(max_examples=25, deadline=None)
    def test_period_at_least_bottleneck_compute(self, plan):
        """The pipeline can never beat its slowest stage."""
        board = rk3399()
        result, _ = run_plan(plan)
        floor = 0.0
        for stage_index, cores in enumerate(plan.assignments):
            cost = GRAPH.tasks[stage_index].merged_cost(synthetic_costs())
            for core_id in cores:
                core = board.core_by_id[core_id]
                compute = (
                    cost.instructions
                    / len(cores)
                    / core.eta_at(cost.operational_intensity)
                    / BATCH_BYTES
                )
                floor = max(floor, compute)
        assert result.mean_latency_us_per_byte >= floor * 0.99

    @given(plans)
    @settings(max_examples=20, deadline=None)
    def test_trace_spans_never_overlap_per_core(self, plan):
        """A core is a serial resource: its busy spans cannot overlap."""
        recorder = TraceRecorder()
        run_plan(plan, trace=recorder)
        spans = {}
        for event in recorder.events:
            if event.category == "task" and event.name != "ctx-switch":
                spans.setdefault(event.tid, []).append(
                    (event.ts_us, event.ts_us + event.dur_us)
                )
        assert spans
        for core_spans in spans.values():
            ordered = sorted(core_spans)
            for earlier, later in zip(ordered, ordered[1:]):
                assert later[0] >= earlier[1] - 1e-9

    @given(plans)
    @settings(max_examples=20, deadline=None)
    def test_energy_positive_and_finite(self, plan):
        result, _ = run_plan(plan)
        energy = result.mean_energy_uj_per_byte
        assert np.isfinite(energy)
        assert energy > 0


class TestScalingBehaviour:
    def test_more_replicas_never_slower(self):
        latencies = []
        for replicas in (1, 2, 3):
            plan = SchedulingPlan(
                graph=GRAPH,
                assignments=((4,), tuple(range(replicas))),
            )
            result, _ = run_plan(plan)
            latencies.append(result.mean_latency_us_per_byte)
        assert latencies[1] <= latencies[0]

    def test_noise_inflates_variance_not_mean_much(self):
        plan = SchedulingPlan(graph=GRAPH, assignments=((4,), (0,)))
        quiet, _ = run_plan(plan, noise=0.0)
        noisy, _ = run_plan(plan, noise=0.02, repetitions=10)
        assert noisy.mean_latency_us_per_byte == pytest.approx(
            quiet.mean_latency_us_per_byte, rel=0.05
        )
        spread = {
            r.latency_us_per_byte for r in noisy.repetitions
        }
        assert len(spread) > 1

    def test_faster_cores_shorter_window(self):
        big_plan = SchedulingPlan(graph=GRAPH, assignments=((4,), (5,)))
        little_plan = SchedulingPlan(graph=GRAPH, assignments=((0,), (1,)))
        big_result, _ = run_plan(big_plan)
        little_result, _ = run_plan(little_plan)
        assert (
            big_result.mean_latency_us_per_byte
            < little_result.mean_latency_us_per_byte
        )

    def test_batch_energy_accumulates_all_stage_work(self):
        """Busy energy per batch matches instructions/ζ within the
        replication/noise-free model."""
        board = rk3399()
        plan = SchedulingPlan(graph=GRAPH, assignments=((4,), (0,)))
        result, _ = run_plan(plan)
        expected = 0.0
        for stage_index, cores in enumerate(plan.assignments):
            cost = GRAPH.tasks[stage_index].merged_cost(synthetic_costs())
            core = board.core_by_id[cores[0]]
            expected += cost.instructions / core.zeta.value(
                cost.operational_intensity
            )
        # Per-byte energy must be at least the instructions/ζ busy floor
        # and within 20 % of it (static power and message overheads).
        floor = expected / BATCH_BYTES
        assert floor <= result.mean_energy_uj_per_byte <= floor * 1.2
