"""Plan search and iterative scaling (§V-C, §IV-B)."""

import itertools

import pytest

from repro.core.plan import SchedulingPlan
from repro.core.scheduler import Scheduler
from repro.errors import InfeasiblePlanError


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


@pytest.fixture(scope="module")
def model(context):
    return context.cost_model(context.fine_graph)


class TestSearch:
    def test_finds_paper_optimal_plan(self, model):
        """At L_set=26 the optimum is t0@big + t1@little (Table IV/V)."""
        scheduler = Scheduler(model)
        result = scheduler.schedule()
        assert result.feasible
        plan = result.plan
        big = set(model.board.big_core_ids)
        little = set(model.board.little_core_ids)
        assert set(plan.assignments[0]) <= big
        assert set(plan.assignments[1]) <= little
        assert result.replica_counts == (1, 1)

    def test_optimal_among_exhaustive_enumeration(self, model, context):
        """The cluster-split search matches brute force over all
        single-replica core assignments."""
        scheduler = Scheduler(model)
        best, _, _ = scheduler.search((1, 1))
        brute_best = None
        for cores in itertools.product(model.board.core_ids, repeat=2):
            plan = SchedulingPlan(
                graph=context.fine_graph,
                assignments=tuple((core,) for core in cores),
            )
            estimate = model.evaluate(plan)
            if estimate.feasible and (
                brute_best is None
                or estimate.energy_uj_per_byte < brute_best.energy_uj_per_byte
            ):
                brute_best = estimate
        assert best.energy_uj_per_byte == pytest.approx(
            brute_best.energy_uj_per_byte
        )

    def test_min_latency_plan_returned(self, model):
        scheduler = Scheduler(model)
        _, min_latency, _ = scheduler.search((1, 1))
        assert min_latency is not None
        # The fastest single-replica plan uses big cores for both tasks.
        assert set(min_latency.plan.cores_used()) <= set(
            model.board.big_core_ids
        )

    def test_plan_count_reported(self, model):
        result = Scheduler(model).schedule()
        assert result.plans_evaluated > 0

    def test_pruned_search_matches_unpruned(self, model):
        """The branch-and-bound cuts must be admissible: the optimum
        equals a no-pruning enumeration over the same split space."""
        import itertools as it

        scheduler = Scheduler(model)
        for counts in ((1, 1), (2, 1), (2, 2), (1, 3)):
            best, fastest, _ = scheduler.search(counts)
            stage_splits = [
                list(scheduler._stage_placements(r)) for r in counts
            ]
            exhaustive_best = None
            exhaustive_fastest = None
            for combo in it.product(*stage_splits):
                load = {}
                assignments = []
                for stage_index, split in enumerate(combo):
                    cores = scheduler._assign_cores(split, load)
                    assignments.append(cores)
                    for core in cores:
                        load[core] = load.get(core, 0.0) + (
                            model.compute_latency(
                                stage_index, core, len(cores)
                            )
                        )
                estimate = model.evaluate(
                    SchedulingPlan(
                        graph=model.graph, assignments=tuple(assignments)
                    )
                )
                if exhaustive_fastest is None or (
                    estimate.latency_us_per_byte
                    < exhaustive_fastest.latency_us_per_byte
                ):
                    exhaustive_fastest = estimate
                if estimate.feasible and (
                    exhaustive_best is None
                    or estimate.energy_uj_per_byte
                    < exhaustive_best.energy_uj_per_byte
                ):
                    exhaustive_best = estimate
            if exhaustive_best is None:
                assert best is None
            else:
                assert best.energy_uj_per_byte == pytest.approx(
                    exhaustive_best.energy_uj_per_byte
                )
            assert fastest.latency_us_per_byte == pytest.approx(
                exhaustive_fastest.latency_us_per_byte
            )


class TestIterativeScaling:
    def test_tight_constraint_forces_replication(self, context):
        tight = context.cost_model(context.fine_graph)
        tight.latency_constraint_us_per_byte = 12.0
        result = Scheduler(tight).schedule()
        assert result.feasible
        assert sum(result.replica_counts) > 2
        assert result.estimate.latency_us_per_byte <= 12.0

    def test_infeasible_raises_without_best_effort(self, context):
        impossible = context.cost_model(context.fine_graph)
        impossible.latency_constraint_us_per_byte = 0.5
        with pytest.raises(InfeasiblePlanError):
            Scheduler(impossible).schedule()

    def test_best_effort_returns_min_latency(self, context):
        impossible = context.cost_model(context.fine_graph)
        impossible.latency_constraint_us_per_byte = 0.5
        result = Scheduler(impossible).schedule(best_effort=True)
        assert not result.feasible
        assert result.estimate.latency_us_per_byte > 0.5

    def test_energy_monotone_in_constraint(self, context):
        """Fig 10: looser constraints never cost more energy."""
        energies = []
        for constraint in (12.0, 17.0, 22.0, 27.0, 40.0):
            model = context.cost_model(context.fine_graph)
            model.latency_constraint_us_per_byte = constraint
            result = Scheduler(model).schedule(best_effort=True)
            energies.append(result.estimate.energy_uj_per_byte)
        assert all(b <= a * 1.001 for a, b in zip(energies, energies[1:]))

    def test_loose_constraint_prefers_little_cores(self, context):
        model = context.cost_model(context.fine_graph)
        model.latency_constraint_us_per_byte = 60.0
        result = Scheduler(model).schedule()
        little = set(model.board.little_core_ids)
        assert set(result.plan.cores_used()) <= little

    def test_replica_cap_respected(self, model):
        scheduler = Scheduler(model, max_replicas_per_stage=1)
        result = scheduler.schedule(best_effort=True)
        assert max(result.replica_counts) == 1


class TestCoarseGraphScheduling:
    def test_coarse_graph_needs_replication(self, context):
        """CS's behaviour: the whole procedure is too slow on one core,
        so data parallelism is its only lever (paper §VII-A)."""
        model = context.cost_model(context.coarse_graph)
        result = Scheduler(model).schedule(best_effort=True)
        assert result.feasible
        assert result.replica_counts[0] >= 2

    def test_coarse_costs_more_than_fine(self, context):
        """Decomposition's benefit (Fig 17): the fine-grained optimum
        beats the coarse-grained optimum on energy."""
        coarse = Scheduler(
            context.cost_model(context.coarse_graph)
        ).schedule(best_effort=True)
        fine = Scheduler(
            context.cost_model(context.fine_graph)
        ).schedule(best_effort=True)
        assert (
            fine.estimate.energy_uj_per_byte
            < coarse.estimate.energy_uj_per_byte
        )


class TestSearchInstrumentation:
    def test_schedule_attaches_search_stats(self, model):
        from repro.core.scheduler import SearchStats

        result = Scheduler(model).schedule(best_effort=True)
        stats = result.search_stats
        assert isinstance(stats, SearchStats)
        assert stats.plans_evaluated >= 1
        assert stats.nodes_expanded >= 1
        assert stats.scaling_rounds >= 1
        assert stats.wall_clock_s >= 0.0
        pairs = dict(stats.as_pairs())
        assert set(pairs) == {
            "nodes_expanded", "branches_pruned", "plans_evaluated",
            "scaling_rounds", "wall_clock_s", "warm_start_hits",
        }

    def test_stats_do_not_affect_equality(self, model):
        from dataclasses import replace

        first = Scheduler(model).schedule(best_effort=True)
        second = replace(first, search_stats=None)
        assert first == second

    def test_search_publishes_registry_counters(self, model):
        from repro.obs.registry import REGISTRY

        before = REGISTRY.counter("scheduler.plans_evaluated")
        Scheduler(model).schedule(best_effort=True)
        assert REGISTRY.counter("scheduler.plans_evaluated") > before


class TestEnergyFloorCache:
    """The per-stage energy floors are cached per scheduler; the cache
    must notice every model input they depend on, or a stale floor
    over-prunes the next search."""

    #: little cores capped to their lowest DVFS level: ζ rises there, so
    #: floors computed at full frequency are too high to be admissible
    CAP = {0: 408.0, 1: 408.0, 2: 408.0, 3: 408.0}

    def test_frequency_map_change_invalidates_floors(self, context):
        model = context.cost_model(context.fine_graph)
        scheduler = Scheduler(model)
        splits = [list(scheduler._stage_placements(1))] * 2
        uncapped = scheduler._stage_energy_floors((1, 1), splits)
        model.frequency_map = dict(self.CAP)
        capped = scheduler._stage_energy_floors((1, 1), splits)
        fresh = Scheduler(model)._stage_energy_floors((1, 1), splits)
        assert capped == fresh
        assert capped != uncapped

    def test_frequency_map_change_matches_fresh_scheduler(self, context):
        model = context.cost_model(context.fine_graph)
        scheduler = Scheduler(model)
        scheduler.schedule(best_effort=True)
        model.frequency_map = dict(self.CAP)
        reused = scheduler.schedule(best_effort=True)
        fresh = Scheduler(model).schedule(best_effort=True)
        assert reused == fresh
        assert reused.estimate == fresh.estimate
