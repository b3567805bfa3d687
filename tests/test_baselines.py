"""The six mechanisms and the break-down ablations."""

import numpy as np
import pytest

from repro.core.baselines import (
    MECHANISM_NAMES,
    AsymmetricComputationAblation,
    BigOnlyMechanism,
    CStreamMechanism,
    CoarseGrainedMechanism,
    DecompositionAblation,
    LittleOnlyMechanism,
    OSMechanism,
    RoundRobinMechanism,
    SimpleAblation,
    get_mechanism,
)
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def context():
    from repro.core.baselines import WorkloadContext
    from repro.core.profiler import profile_workload
    from repro.compression import get_codec
    from repro.datasets import get_dataset
    from repro.simcore.boards import rk3399

    profile = profile_workload(
        get_codec("tcomp32"), get_dataset("rovio"), 8192, batches=4
    )
    return WorkloadContext.build(rk3399(), profile, 26.0)


class TestRegistry:
    def test_paper_names(self):
        assert MECHANISM_NAMES == ("CStream", "OS", "CS", "RR", "BO", "LO")

    def test_all_resolve(self):
        for name in MECHANISM_NAMES:
            assert get_mechanism(name).name == name

    def test_ablation_aliases(self):
        assert isinstance(get_mechanism("+asy-comm."), CStreamMechanism)
        assert isinstance(
            get_mechanism("+asy-comp."), AsymmetricComputationAblation
        )

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            get_mechanism("magic")


class TestCStream:
    def test_uses_fine_graph(self, context):
        outcome = CStreamMechanism().prepare(context)
        assert outcome.graph is context.fine_graph
        assert outcome.scheduled_feasible

    def test_plan_is_model_optimal(self, context):
        outcome = CStreamMechanism().prepare(context)
        assert outcome.estimate is not None
        assert outcome.estimate.feasible

    def test_minimal_context_switching(self, context):
        outcome = CStreamMechanism().prepare(context)
        assert outcome.dynamics.context_switches_per_kb < 0.1


class TestCS:
    def test_uses_coarse_graph(self, context):
        outcome = CoarseGrainedMechanism().prepare(context)
        assert outcome.graph is context.coarse_graph
        assert outcome.graph.stage_count == 1

    def test_more_energy_than_cstream(self, context):
        cstream = CStreamMechanism().prepare(context)
        coarse = CoarseGrainedMechanism().prepare(context)
        assert (
            coarse.estimate.energy_uj_per_byte
            > cstream.estimate.energy_uj_per_byte
        )


class TestRR:
    def test_sequential_core_mapping(self, context):
        outcome = RoundRobinMechanism().prepare(context)
        cores = [cores[0] for cores in outcome.plan.assignments]
        assert cores == list(
            context.board.core_ids[: context.fine_graph.stage_count]
        )


class TestRandomizedMechanisms:
    def test_bo_only_big_cores(self, context):
        outcome = BigOnlyMechanism().prepare(context)
        big = set(context.board.big_core_ids)
        for repetition in range(5):
            plan = outcome.plan(repetition, np.random.default_rng(repetition))
            assert set(plan.cores_used()) <= big

    def test_lo_only_little_cores(self, context):
        outcome = LittleOnlyMechanism().prepare(context)
        little = set(context.board.little_core_ids)
        for repetition in range(5):
            plan = outcome.plan(repetition, np.random.default_rng(repetition))
            assert set(plan.cores_used()) <= little

    def test_placements_vary_across_repetitions(self, context):
        outcome = LittleOnlyMechanism().prepare(context)
        plans = {
            outcome.plan(r, np.random.default_rng(r)).assignments
            for r in range(20)
        }
        assert len(plans) > 1


class TestOS:
    def test_worker_count_defaults_to_cores(self, context):
        outcome = OSMechanism().prepare(context)
        plan = outcome.plan(0, np.random.default_rng(0))
        assert sum(map(len, plan.assignments)) == len(context.board.cores)

    def test_heavy_context_switching(self, context):
        outcome = OSMechanism().prepare(context)
        assert outcome.dynamics.context_switches_per_kb > 10
        assert outcome.dynamics.migration_rate_per_batch > 0

    def test_custom_worker_count(self, context):
        outcome = OSMechanism(worker_count=3).prepare(context)
        plan = outcome.plan(0, np.random.default_rng(0))
        assert sum(map(len, plan.assignments)) == 3


class TestAblations:
    def test_simple_replicates_whole_procedure(self, context):
        outcome = SimpleAblation(replicas=2).prepare(context)
        plan = outcome.plan(0, np.random.default_rng(0))
        assert plan.graph.stage_count == 1
        assert len(plan.assignments[0]) == 2
        # Replicas land on distinct cores.
        assert len(set(plan.assignments[0])) == 2

    def test_simple_rejects_zero_replicas(self):
        with pytest.raises(ConfigurationError):
            SimpleAblation(replicas=0)

    def test_decomposition_ablation_uses_fine_graph(self, context):
        outcome = DecompositionAblation().prepare(context)
        plan = outcome.plan(0, np.random.default_rng(0))
        assert plan.graph is context.fine_graph

    def test_asy_comp_blind_to_communication(self, context):
        """The +asy-comp. plan is chosen with l_comm = 0, so its real
        latency exceeds its belief."""
        outcome = AsymmetricComputationAblation().prepare(context)
        aware_model = context.cost_model(context.fine_graph)
        true_estimate = aware_model.evaluate(outcome.plan)
        assert (
            true_estimate.latency_us_per_byte
            > outcome.estimate.latency_us_per_byte
        )
