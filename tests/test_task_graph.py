"""Task graphs and scheduling plans (Definitions 1-2)."""

import pytest

from repro.compression.base import StepCost
from repro.core.plan import SchedulingPlan, TaskEstimate
from repro.core.task import Task, TaskGraph
from repro.errors import ConfigurationError


def make_graph():
    return TaskGraph(
        codec_name="tcomp32",
        tasks=(
            Task(name="t0", step_ids=("s0", "s1"), stage_index=0),
            Task(name="t1", step_ids=("s2",), stage_index=1),
        ),
    )


STEP_COSTS = {
    "s0": StepCost(instructions=10, memory_accesses=2, input_bytes=100,
                   output_bytes=100),
    "s1": StepCost(instructions=90, memory_accesses=1, input_bytes=100,
                   output_bytes=120),
    "s2": StepCost(instructions=50, memory_accesses=5, input_bytes=120,
                   output_bytes=60),
}


class TestTask:
    def test_merged_cost(self):
        task = Task(name="t0", step_ids=("s0", "s1"), stage_index=0)
        merged = task.merged_cost(STEP_COSTS)
        assert merged.instructions == 100
        assert merged.input_bytes == 100
        assert merged.output_bytes == 120

    def test_missing_step_rejected(self):
        task = Task(name="t9", step_ids=("s9",), stage_index=0)
        with pytest.raises(ConfigurationError):
            task.merged_cost(STEP_COSTS)

    def test_empty_steps_rejected(self):
        with pytest.raises(ConfigurationError):
            Task(name="t0", step_ids=(), stage_index=0)

    def test_negative_stage_rejected(self):
        with pytest.raises(ConfigurationError):
            Task(name="t0", step_ids=("s0",), stage_index=-1)


class TestTaskGraph:
    def test_stage_count(self):
        assert make_graph().stage_count == 2

    def test_covered_steps_in_order(self):
        graph = make_graph()
        steps = tuple(step for task in graph.tasks for step in task.step_ids)
        assert steps == ("s0", "s1", "s2")

    def test_upstream_of_first_stage_is_none(self):
        graph = make_graph()
        assert graph.predecessors_of(0) == ()
        assert graph.predecessors_of(1) == (0,)

    def test_misnumbered_stages_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskGraph(
                codec_name="x",
                tasks=(Task(name="t0", step_ids=("s0",), stage_index=1),),
            )

    def test_duplicate_steps_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskGraph(
                codec_name="x",
                tasks=(
                    Task(name="t0", step_ids=("s0",), stage_index=0),
                    Task(name="t1", step_ids=("s0",), stage_index=1),
                ),
            )

    def test_empty_graph_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskGraph(codec_name="x", tasks=())

    def test_coarse_graph(self):
        graph = TaskGraph.coarse("lz4", ("s0", "s1", "s2", "s3", "s4"))
        assert graph.stage_count == 1
        assert graph.tasks[0].name == "t_all"
        assert graph.tasks[0].step_ids == ("s0", "s1", "s2", "s3", "s4")

    def test_describe(self):
        assert make_graph().describe() == "t0[s0+s1] -> t1[s2]"


class TestSchedulingPlan:
    def test_replicas_per_stage(self):
        plan = SchedulingPlan(graph=make_graph(), assignments=((4,), (0, 1)))
        assert plan.describe() == "t0[s0+s1]@[4] -> t1[s2]@[0, 1]"


    def test_cores_used_sorted_unique(self):
        plan = SchedulingPlan(graph=make_graph(), assignments=((4,), (0, 4)))
        assert plan.cores_used() == (0, 4)

    def test_wrong_stage_count_rejected(self):
        with pytest.raises(ConfigurationError):
            SchedulingPlan(graph=make_graph(), assignments=((0,),))

    def test_empty_stage_rejected(self):
        with pytest.raises(ConfigurationError):
            SchedulingPlan(graph=make_graph(), assignments=((0,), ()))

    def test_describe_mentions_cores(self):
        plan = SchedulingPlan(graph=make_graph(), assignments=((4,), (0,)))
        assert "@[4]" in plan.describe()
        assert "@[0]" in plan.describe()


class TestTaskEstimate:
    def test_latency_is_comp_plus_comm(self):
        estimate = TaskEstimate(
            stage_index=0, replica_index=0, core_id=4, kappa=100.0,
            l_comp_us_per_byte=10.0, l_comm_us_per_byte=2.5,
            energy_uj_per_byte=0.3,
        )
        assert estimate.l_us_per_byte == pytest.approx(12.5)
