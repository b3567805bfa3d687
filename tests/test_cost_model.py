"""Cost model (Eqs 4-7): per-task estimates and plan evaluation."""

import math
import random

import pytest

from repro.core.cost_model import CostModel, calibrate_curves
from repro.core.plan import SchedulingPlan
from repro.errors import ConfigurationError
from repro.simcore.hardware import CoreType
from tests import cost_oracle

BIG, LITTLE = 4, 0


@pytest.fixture(scope="module")
def model(tcomp32_rovio_context):
    context = tcomp32_rovio_context
    return context.cost_model(context.fine_graph)


# conftest fixtures are function-scoped per module here; re-export.
@pytest.fixture(scope="module")
def tcomp32_rovio_context(request):
    from repro.core.baselines import WorkloadContext
    from repro.core.profiler import profile_workload
    from repro.compression import get_codec
    from repro.datasets import get_dataset
    from repro.simcore.boards import rk3399

    profile = profile_workload(
        get_codec("tcomp32"), get_dataset("rovio"), 8192, batches=4
    )
    return WorkloadContext.build(rk3399(), profile, 26.0)


class TestCalibration:
    def test_curves_for_both_core_types(self):
        from repro.simcore.boards import rk3399

        curves = calibrate_curves(rk3399())
        assert CoreType.BIG in curves.eta
        assert CoreType.LITTLE in curves.zeta

    def test_invalid_constraint_rejected(self, tcomp32_rovio_context):
        context = tcomp32_rovio_context
        with pytest.raises(ConfigurationError):
            CostModel(
                board=context.board,
                graph=context.fine_graph,
                profile=context.profile,
                curves=context.curves,
                communication=context.communication,
                latency_constraint_us_per_byte=0.0,
            )

    def test_invalid_guard_band_rejected(self, tcomp32_rovio_context):
        context = tcomp32_rovio_context
        with pytest.raises(ConfigurationError):
            context.cost_model(context.fine_graph, guard_band=1.5)


class TestComputeLatency:
    def test_eq6_linear_in_instructions(self, model):
        """Twice the replicas, half the per-replica latency (mod the
        replication overhead)."""
        single = model.compute_latency(0, BIG, replicas=1)
        double = model.compute_latency(0, BIG, replicas=2)
        # Latency overhead per extra replica is 7% (energy's is 27%).
        assert double == pytest.approx(single / 2 * 1.07, rel=0.01)

    def test_big_faster_for_high_kappa(self, model):
        assert model.compute_latency(0, BIG) < model.compute_latency(0, LITTLE)

    def test_latency_scale_applies(self, model):
        base = model.compute_latency(0, BIG)
        model.latency_scale[0] = 2.0
        try:
            assert model.compute_latency(0, BIG) == pytest.approx(2 * base)
        finally:
            model.latency_scale.clear()

    def test_anchor_t0_on_big(self, model):
        # Paper Table IV: t0 ~15 µs/B on a big core.
        assert model.compute_latency(0, BIG) == pytest.approx(15.0, rel=0.12)

    def test_anchor_t1_on_little(self, model):
        # Paper Table IV: t1 ~21.7 µs/B on a little core.
        assert model.compute_latency(1, LITTLE) == pytest.approx(
            21.7, rel=0.12
        )


class TestTaskEnergy:
    def test_eq4_energy_is_instructions_over_zeta(self, model):
        """e = η·l/ζ reduces to instructions/ζ."""
        kappa = model.stage_kappa(1)
        expected = (
            model.stage_instructions(1)
            / model._zeta(kappa, LITTLE)
            / model.profile.batch_size_bytes
        )
        assert model.task_energy(1, LITTLE) == pytest.approx(expected)

    def test_t1_cheaper_on_little(self, model):
        assert model.task_energy(1, LITTLE) < model.task_energy(1, BIG)

    def test_replication_energy_overhead(self, model):
        # Each of two replicas does half the work at a 27 % premium.
        single = model.task_energy(1, LITTLE, replicas=1)
        double = model.task_energy(1, LITTLE, replicas=2)
        assert double == pytest.approx(single * 1.27 / 2, rel=0.01)


class TestCommunicationLatency:
    """l_comm (Eq 7) as evaluate() prices it on two-stage plans."""

    @staticmethod
    def l_comm(model, producers, consumers):
        """l_comm per replica, by stage, of plan (producers, consumers)."""
        plan = SchedulingPlan(
            graph=model.graph, assignments=(producers, consumers)
        )
        by_stage = ([], [])
        for task in model.evaluate(plan).task_estimates:
            by_stage[task.stage_index].append(task.l_comm_us_per_byte)
        return by_stage

    def test_first_stage_free(self, model):
        first, second = self.l_comm(model, (BIG, 5), (LITTLE,))
        assert first == [0.0, 0.0]
        assert second[0] > 0.0

    def test_colocated_cluster_cheaper_than_cross(self, model):
        _, same_cluster = self.l_comm(model, (LITTLE,), (1,))
        _, cross = self.l_comm(model, (BIG,), (1,))
        assert same_cluster[0] < cross[0]

    def test_c2_dearer_than_c1(self, model):
        _, big_to_little = self.l_comm(model, (BIG,), (LITTLE,))
        _, little_to_big = self.l_comm(model, (LITTLE,), (BIG,))
        assert little_to_big[0] > big_to_little[0]

    def test_communication_blind_model_sees_zero(self, tcomp32_rovio_context):
        context = tcomp32_rovio_context
        blind = context.cost_model(
            context.fine_graph, communication_aware=False
        )
        _, second = self.l_comm(blind, (BIG,), (LITTLE,))
        assert second == [0.0]

    def test_more_consumers_less_volume_each(self, model):
        _, one = self.l_comm(model, (BIG,), (LITTLE,))
        _, two = self.l_comm(model, (BIG,), (LITTLE, 1))
        assert two[0] < one[0]


class TestEvaluate:
    def plan(self, context, assignments):
        return SchedulingPlan(graph=context.fine_graph, assignments=assignments)

    def test_paper_optimal_plan(self, tcomp32_rovio_context, model):
        """t0@big + t1@little: the paper's Table IV 'right place'."""
        estimate = model.evaluate(
            self.plan(tcomp32_rovio_context, ((BIG,), (LITTLE,)))
        )
        assert estimate.feasible
        assert estimate.latency_us_per_byte == pytest.approx(24.9, rel=0.05)
        assert estimate.energy_uj_per_byte == pytest.approx(0.40, rel=0.08)

    def test_all_little_single_replica_infeasible(
        self, tcomp32_rovio_context, model
    ):
        estimate = model.evaluate(
            self.plan(tcomp32_rovio_context, ((LITTLE,), (1,)))
        )
        assert not estimate.feasible
        assert "exceeds budget" in estimate.infeasibility_reason

    def test_colocation_serializes(self, tcomp32_rovio_context, model):
        apart = model.evaluate(self.plan(tcomp32_rovio_context, ((4,), (5,))))
        together = model.evaluate(
            self.plan(tcomp32_rovio_context, ((4,), (4,)))
        )
        assert (
            together.latency_us_per_byte > apart.latency_us_per_byte
        )

    def test_energy_sums_over_tasks(self, tcomp32_rovio_context, model):
        estimate = model.evaluate(
            self.plan(tcomp32_rovio_context, ((BIG,), (LITTLE,)))
        )
        assert estimate.energy_uj_per_byte == pytest.approx(
            sum(t.energy_uj_per_byte for t in estimate.task_estimates)
        )

    def test_bottleneck_identifies_slowest(self, tcomp32_rovio_context, model):
        estimate = model.evaluate(
            self.plan(tcomp32_rovio_context, ((BIG,), (LITTLE,)))
        )
        bottleneck = estimate.bottleneck()
        assert bottleneck.l_us_per_byte == max(
            t.l_us_per_byte for t in estimate.task_estimates
        )

    def test_core_load_tracked(self, tcomp32_rovio_context, model):
        estimate = model.evaluate(
            self.plan(tcomp32_rovio_context, ((BIG,), (BIG,)))
        )
        assert estimate.core_load_us_per_byte[BIG] == pytest.approx(
            sum(t.l_comp_us_per_byte for t in estimate.task_estimates)
        )

    def test_foreign_graph_rejected(self, model):
        from repro.core.task import TaskGraph

        foreign = TaskGraph.coarse("tcomp32", ("s0", "s1", "s2"))
        with pytest.raises(ConfigurationError):
            model.evaluate(
                SchedulingPlan(graph=foreign, assignments=((0,),))
            )


class TestFrequencyAwarePlanning:
    def test_lower_frequency_higher_latency(self, tcomp32_rovio_context):
        context = tcomp32_rovio_context
        slow = context.cost_model(
            context.fine_graph, frequency_map={BIG: 600.0}
        )
        fast = context.cost_model(context.fine_graph)
        assert slow.compute_latency(0, BIG) > fast.compute_latency(0, BIG)

    def test_unmapped_cores_at_max(self, tcomp32_rovio_context):
        context = tcomp32_rovio_context
        partial = context.cost_model(
            context.fine_graph, frequency_map={BIG: 600.0}
        )
        full = context.cost_model(context.fine_graph)
        assert partial.compute_latency(1, LITTLE) == pytest.approx(
            full.compute_latency(1, LITTLE)
        )


@pytest.fixture(scope="module")
def unlz4_rovio_context():
    from repro.core.baselines import WorkloadContext
    from repro.core.profiler import profile_workload
    from repro.compression import get_codec
    from repro.datasets import get_dataset
    from repro.simcore.boards import rk3399

    profile = profile_workload(
        get_codec("unlz4"), get_dataset("rovio"), 8192, batches=3
    )
    # tight enough that random plans straddle the budget
    return WorkloadContext.build(rk3399(), profile, 8.0)


#: model variants the scorer must track: the PID controller's κ drift, a
#: static DVFS map, its l_comp calibration, and the §VII-D ablation
SCORE_VARIANTS = {
    "nominal": {},
    "drifted": {
        "kappa_scale": {0: 1.3, 1: 0.8},
        "frequency_map": {LITTLE: 408.0, BIG: 600.0},
    },
    "latency-scaled": {"latency_scale": {0: 0.9, 1: 1.7}},
    "communication-blind": {"communication_aware": False},
}


def _random_assignments(board, stage_count, count, seed):
    """Random plans, replicated up to 4 ways and often colocated."""
    rng = random.Random(seed)
    core_ids = list(board.core_ids)
    return [
        tuple(
            tuple(rng.choice(core_ids) for _ in range(rng.randint(1, 4)))
            for _ in range(stage_count)
        )
        for _ in range(count)
    ]


class TestScore:
    """``score`` is ``evaluate``'s (L_est, E_est, feasible), bit for bit."""

    @pytest.mark.parametrize("variant", sorted(SCORE_VARIANTS))
    @pytest.mark.parametrize("shape", ["chain", "dag"])
    def test_score_equals_evaluate_on_random_plans(
        self, request, shape, variant
    ):
        context = request.getfixturevalue(
            "tcomp32_rovio_context" if shape == "chain"
            else "unlz4_rovio_context"
        )
        graph = context.fine_graph
        assert graph.is_chain == (shape == "chain")
        model = context.cost_model(graph, **SCORE_VARIANTS[variant])
        feasible = set()
        for assignments in _random_assignments(
            context.board, graph.stage_count, count=40, seed=20261017
        ):
            plan = SchedulingPlan(graph=graph, assignments=assignments)
            estimate = model.evaluate(plan)
            reference = cost_oracle.evaluate(model, plan)
            expected = (
                estimate.latency_us_per_byte,
                estimate.energy_uj_per_byte,
                estimate.feasible,
            )
            assert model.score(assignments) == expected
            assert expected == (
                reference.latency_us_per_byte,
                reference.energy_uj_per_byte,
                reference.feasible,
            )
            feasible.add(estimate.feasible)
        if variant == "nominal":
            # the random plans straddle the budget
            assert feasible == {True, False}

    def test_budget_boundary(self, tcomp32_rovio_context):
        """L_est exactly on the budget is feasible (Eq 2 is ``<=``); one
        ulp tighter it is not — for both entry points alike."""
        context = tcomp32_rovio_context
        assignments = ((BIG,), (LITTLE,))
        plan = SchedulingPlan(graph=context.fine_graph, assignments=assignments)
        latency = context.cost_model(
            context.fine_graph
        ).evaluate(plan).latency_us_per_byte
        for constraint, feasible in (
            (latency, True),
            (math.nextafter(latency, 0.0), False),
        ):
            model = context.cost_model(context.fine_graph, guard_band=1.0)
            model.latency_constraint_us_per_byte = constraint
            estimate = model.evaluate(plan)
            assert estimate.feasible is feasible
            assert model.score(assignments) == (
                latency, estimate.energy_uj_per_byte, feasible
            )

    def test_graph_checked_when_given(self, model):
        from repro.core.task import TaskGraph

        foreign = TaskGraph.coarse("tcomp32", ("s0", "s1", "s2"))
        assert model.score(((BIG,), (LITTLE,)), model.graph)[2]
        with pytest.raises(ConfigurationError):
            model.score(((0,),), foreign)
