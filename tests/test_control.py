"""The online control loop: plan diffing, migration costing,
warm-started replanning, windowed sessions, and adaptive-vs-static."""

import pytest

from repro.control import (
    ControllerConfig,
    SessionController,
    SessionSpec,
    run_adaptive_session,
)
from repro.core.plan import (
    PlanDelta,
    ReplicaMove,
    SchedulingPlan,
    migration_cost,
)
from repro.core.scheduler import Scheduler
from repro.core.task import Task, TaskGraph
from repro.datasets import DRIFT_KINDS, drift_schedule
from repro.errors import ConfigurationError, DatasetError
from repro.simcore.engine import Simulator

BIG, BIG2, LITTLE, LITTLE2 = 4, 5, 0, 1


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


def plan_of(context, *assignments):
    return SchedulingPlan(
        graph=context.fine_graph, assignments=tuple(assignments)
    )


class TestPlanDiff:
    def test_identical_plans_empty_delta(self, context):
        plan = plan_of(context, (BIG,), (LITTLE,))
        delta = plan.diff(plan_of(context, (BIG,), (LITTLE,)))
        assert delta.is_empty
        assert delta.moves == ()
        assert delta.describe() == "no-op"

    def test_single_move(self, context):
        old = plan_of(context, (BIG,), (LITTLE,))
        new = plan_of(context, (BIG2,), (LITTLE,))
        delta = old.diff(new)
        assert delta.moves == (ReplicaMove(0, BIG, BIG2),)
        assert delta.describe() == f"s0:{BIG}->{BIG2}"

    def test_replica_order_is_irrelevant(self, context):
        """Replicas of one stage are interchangeable: a reordering of
        the same core multiset is a relabeling, not a migration."""
        old = plan_of(context, (BIG, BIG2), (LITTLE,))
        new = plan_of(context, (BIG2, BIG), (LITTLE,))
        assert old.diff(new).is_empty

    def test_growth_splits_off_donor(self, context):
        old = plan_of(context, (BIG,), (LITTLE,))
        new = plan_of(context, (BIG, BIG2), (LITTLE,))
        delta = old.diff(new)
        # The new replica's state splits off the surviving one.
        assert delta.moves == (ReplicaMove(0, BIG, BIG2),)

    def test_shrink_merges_into_survivor(self, context):
        old = plan_of(context, (BIG, BIG2), (LITTLE,))
        new = plan_of(context, (BIG,), (LITTLE,))
        delta = old.diff(new)
        assert delta.moves == (ReplicaMove(0, BIG2, BIG),)

    def test_multi_stage_moves_sorted_deterministically(self, context):
        old = plan_of(context, (BIG,), (LITTLE,))
        new = plan_of(context, (LITTLE2,), (BIG2,))
        delta = old.diff(new)
        assert [move.stage_index for move in delta.moves] == [0, 1]

    def test_cross_graph_diff_rejected(self, context):
        other_graph = TaskGraph(
            codec_name="other",
            tasks=(Task(name="t0", step_ids=("x",), stage_index=0),),
        )
        other = SchedulingPlan(graph=other_graph, assignments=((BIG,),))
        with pytest.raises(ConfigurationError):
            plan_of(context, (BIG,), (LITTLE,)).diff(other)


class TestMigrationCost:
    def test_empty_delta_is_free(self, model):
        cost = migration_cost(
            PlanDelta(moves=()), model.board, model.communication, {}
        )
        assert cost.pause_us == 0.0
        assert cost.transfer_us == 0.0
        assert cost.energy_uj == 0.0

    def test_same_core_move_is_free(self, model):
        delta = PlanDelta(moves=(ReplicaMove(0, BIG, BIG),))
        cost = migration_cost(
            delta, model.board, model.communication, {0: 8192.0}
        )
        assert cost.transfer_us == 0.0
        assert cost.energy_uj == 0.0

    def test_priced_with_communication_table(self, model):
        delta = PlanDelta(moves=(ReplicaMove(0, BIG, LITTLE),))
        state_bytes = 8192.0
        cost = migration_cost(
            delta, model.board, model.communication, {0: state_bytes}
        )
        path = model.board.path_between(BIG, LITTLE)
        expected = (
            state_bytes * model.communication.unit_cost(path)
            + model.communication.overhead(path)
        )
        assert cost.transfer_us == pytest.approx(expected)
        # Both endpoints stall for the synchronous handoff.
        assert cost.pause_us == pytest.approx(expected)
        assert dict(cost.stall_us_by_core) == pytest.approx(
            {BIG: expected, LITTLE: expected}
        )
        assert cost.energy_uj > 0.0

    def test_stage_without_state_pays_overhead_only(self, model):
        delta = PlanDelta(moves=(ReplicaMove(0, BIG, LITTLE),))
        cost = migration_cost(delta, model.board, model.communication, {})
        path = model.board.path_between(BIG, LITTLE)
        assert cost.transfer_us == pytest.approx(
            model.communication.overhead(path)
        )

    def test_disjoint_moves_overlap(self, model):
        """Independent moves on disjoint cores pause for the slowest
        transfer, not the sum."""
        delta = PlanDelta(
            moves=(
                ReplicaMove(0, BIG, BIG2),
                ReplicaMove(1, LITTLE, LITTLE2),
            )
        )
        cost = migration_cost(
            delta, model.board, model.communication, {0: 4096.0, 1: 4096.0}
        )
        per_core = dict(cost.stall_us_by_core)
        assert cost.pause_us == pytest.approx(max(per_core.values()))
        assert cost.pause_us < cost.transfer_us


class TestWarmStart:
    def test_warm_matches_cold_optimum(self, model):
        cold = Scheduler(model).schedule(best_effort=True)
        warm = Scheduler(model).schedule(
            best_effort=True, warm_start=cold.estimate.plan
        )
        assert warm.estimate.energy_uj_per_byte == pytest.approx(
            cold.estimate.energy_uj_per_byte
        )
        assert warm.estimate.feasible == cold.estimate.feasible

    def test_warm_start_hits_counted(self, model):
        scheduler = Scheduler(model)
        best, _, _ = scheduler.search((1, 1))
        assert scheduler.last_search_counters["warm_pruned"] == 0
        # Seeding the bound with the optimum cuts branches a cold
        # search still has to descend into.
        scheduler.search((1, 1), initial_bound=best.energy_uj_per_byte)
        assert scheduler.last_search_counters["warm_pruned"] > 0
        warm = Scheduler(model).schedule(
            best_effort=True,
            warm_start=Scheduler(model).schedule(best_effort=True).plan,
        )
        assert warm.search_stats.warm_start_hits > 0

    def test_tie_keeps_incumbent(self, model):
        """Re-planning with the optimal incumbent must return a plan of
        the same energy — never a strictly worse one."""
        incumbent = Scheduler(model).schedule(best_effort=True).estimate
        replanned = Scheduler(model).schedule(
            best_effort=True, warm_start=incumbent.plan
        )
        assert (
            replanned.estimate.energy_uj_per_byte
            <= incumbent.energy_uj_per_byte
        )

    def test_bound_is_strict_so_equal_energy_survives(self, model):
        """The incumbent bound prunes with strict ``>``: a bound equal
        to the optimum still lets the search rediscover the optimum, so
        a warm-started replan can never return worse than cold."""
        scheduler = Scheduler(model)
        best, _, _ = scheduler.search((1, 1))
        rediscovered, _, _ = scheduler.search(
            (1, 1), initial_bound=best.energy_uj_per_byte
        )
        assert rediscovered is not None
        assert rediscovered.energy_uj_per_byte == pytest.approx(
            best.energy_uj_per_byte
        )


class TestAllOf:
    def test_values_in_passed_order(self):
        simulator = Simulator()

        def worker(delay, value):
            yield simulator.timeout(delay)
            return value

        slow = simulator.process(worker(10.0, "slow"))
        fast = simulator.process(worker(1.0, "fast"))
        join = simulator.all_of([slow, fast])
        seen = {}

        def waiter():
            values = yield join
            seen["values"] = values
            seen["now"] = simulator.now

        simulator.process(waiter())
        simulator.run()
        assert seen["values"] == ["slow", "fast"]
        assert seen["now"] == pytest.approx(10.0)

    def test_empty_join_fires(self):
        simulator = Simulator()
        seen = {}

        def waiter():
            values = yield simulator.all_of([])
            seen["values"] = values

        simulator.process(waiter())
        simulator.run()
        assert seen["values"] == []

    def test_already_triggered_members_count(self):
        simulator = Simulator()
        seen = {}

        def worker():
            yield simulator.timeout(1.0)
            return "early"

        early = simulator.process(worker())

        def waiter():
            # Join only after the member has already fired.
            yield simulator.timeout(5.0)
            values = yield simulator.all_of([early])
            seen["values"] = values

        simulator.process(waiter())
        simulator.run()
        assert seen["values"] == ["early"]


class TestDriftSchedule:
    def test_kinds_are_exported(self):
        assert DRIFT_KINDS == ("ramp", "burst", "phase-shift")

    def test_ramp_is_monotone(self):
        values = drift_schedule("ramp", 12, low=500, high=50_000)
        assert len(values) == 12
        assert values[0] == 500
        assert values[-1] == 50_000
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_phase_shift_steps_once(self):
        values = drift_schedule(
            "phase-shift", 9, low=500, high=50_000, change_at=3
        )
        assert values[:3] == (500,) * 3
        assert values[3:] == (50_000,) * 6

    def test_burst_returns_to_low(self):
        values = drift_schedule(
            "burst", 10, low=500, high=50_000, change_at=4, burst_batches=2
        )
        assert values[:4] == (500,) * 4
        assert values[4:6] == (50_000,) * 2
        assert values[6:] == (500,) * 4

    def test_deterministic(self):
        assert drift_schedule("ramp", 8) == drift_schedule("ramp", 8)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DatasetError):
            drift_schedule("sawtooth", 8)


class TestControllerConfig:
    def test_defaults_valid(self):
        ControllerConfig()

    def test_horizon_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(horizon_windows=0)

    def test_saving_ratio_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(min_saving_ratio=0.0)

    def test_unknown_drift_detector_rejected(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(drift_detector="kalman")


class TestSessionSpec:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            SessionSpec(scenario="meteor")

    def test_warmup_must_leave_batches(self):
        with pytest.raises(ConfigurationError):
            SessionSpec(batches=3, warmup_batches=3)

    def test_default_latency_constraint_is_per_board(self):
        from repro.control.session import ADAPT_L_SET
        from repro.simcore.boards import jetson_tx2_like, rk3399

        assert set(ADAPT_L_SET) == {rk3399().name, jetson_tx2_like().name}
        assert SessionSpec().for_board(rk3399()).latency_constraint == 20.0
        assert SessionSpec().for_board(
            jetson_tx2_like()
        ).latency_constraint == 8.0
        explicit = SessionSpec(latency_constraint=11.0)
        assert explicit.for_board(jetson_tx2_like()) is explicit

    def test_batch_size_is_pinned_not_environment_read(self, small_harness):
        # Sessions pass their batch size in, so REPRO_BATCH_BYTES (the
        # harness's import-time default) cannot move a session result.
        from repro.control.session import (
            SESSION_BATCH_BYTES,
            build_drift_stream,
        )

        assert SESSION_BATCH_BYTES == 65536
        _, _, batch_bytes = build_drift_stream(
            small_harness, SessionSpec(scenario="phase-shift")
        )
        assert batch_bytes == SESSION_BATCH_BYTES


@pytest.fixture(scope="module")
def phase_shift():
    from repro.obs.trace import TraceRecorder

    trace = TraceRecorder()
    comparison = run_adaptive_session(
        spec=SessionSpec(scenario="phase-shift"), trace=trace
    )
    return comparison, trace


class TestAdaptiveSession:
    def test_adaptive_saves_energy(self, phase_shift):
        comparison, _ = phase_shift
        assert comparison.energy_saving > 0.0

    def test_adaptive_cuts_steady_violations(self, phase_shift):
        comparison, _ = phase_shift
        assert (
            comparison.adaptive_steady_violations
            < comparison.static_steady_violations
        )

    def test_plan_was_adopted(self, phase_shift):
        comparison, _ = phase_shift
        assert comparison.adaptive.replans >= 1
        assert comparison.adaptive.plans_adopted >= 1
        assert comparison.adaptive.migration_pause_us > 0.0
        reasons = {event.reason for event in comparison.controller_events}
        assert reasons <= {
            "incumbent-optimal",
            "constraint-rescue",
            "amortized-saving",
            "migration-too-costly",
        }

    def test_post_adoption_steady_batches_meet_constraint(self, phase_shift):
        comparison, _ = phase_shift
        spec = comparison.spec
        adopted_windows = [
            event.window_index
            for event in comparison.controller_events
            if event.adopted
        ]
        assert adopted_windows
        # The swap happens after the adopting window drains, so batches
        # from the next window onward run the new plan.
        first_new_batch = (adopted_windows[0] + 1) * spec.window_batches
        steady_after = [
            batch
            for batch in comparison.adaptive.batches
            if batch.batch_index > first_new_batch
            and batch.batch_index % spec.window_batches != 0
        ]
        assert steady_after
        assert not any(batch.violated for batch in steady_after)

    def test_static_arm_recorded_no_replans(self, phase_shift):
        comparison, _ = phase_shift
        assert comparison.static.replans == 0
        assert comparison.static.plans_adopted == 0
        assert comparison.static.migration_pause_us == 0.0
        assert len(set(comparison.static.plan_descriptions)) == 1

    def test_trace_records_replan_and_migration(self, phase_shift):
        _, trace = phase_shift
        names = [event.name for event in trace.events]
        assert "replan" in names
        assert "plan-migration" in names
        assert trace.replans >= 1
        assert trace.plan_migrations >= 1
        assert trace.migration_pause_us > 0.0

    def test_trace_passes_invariants(self, phase_shift):
        from repro.analysis.verify import verify_trace_events
        from tests.trace_oracle import recorder_events

        _, trace = phase_shift
        findings = verify_trace_events(recorder_events(trace))
        assert not [f for f in findings if f.severity == "error"]

    def test_session_is_deterministic(self, phase_shift):
        comparison, _ = phase_shift
        again = run_adaptive_session(spec=SessionSpec(scenario="phase-shift"))
        assert again.adaptive.batches == comparison.adaptive.batches
        assert again.static.batches == comparison.static.batches
        assert again.controller_events == comparison.controller_events


class TestSessionController:
    def test_no_drift_no_decision(self, model, context):
        from repro.runtime.executor import WindowObservation

        # A stream that replays the profiled statistics verbatim never
        # trips the drift trigger.
        per_batch = context.profile.per_batch_step_costs
        stream = [per_batch[i % len(per_batch)] for i in range(6)]
        controller = SessionController(model, stream, 8192)
        decision = controller.on_window(
            WindowObservation(
                window_index=0,
                batch_start=0,
                batch_count=3,
                now_us=1000.0,
                latencies_us_per_byte=(1.0, 1.0, 1.0),
            )
        )
        assert decision is None
        assert controller.replans == 0
        assert controller.events == []
