"""The controller's one replan path: trigger bookkeeping across drift,
failover and diagnosis sessions, and the failover incumbent agreeing
with the executor's emergency routes."""

import pytest

from repro.bench.harness import Harness
from repro.control import (
    SessionController,
    SessionSpec,
    run_adaptive_session,
)
from repro.faults.chaos import CHAOS_SCENARIOS, ChaosSpec, run_chaos_session
from repro.faults.model import CoreFailure, FaultPlan
from repro.core.plan import SchedulingPlan
from repro.runtime.executor import (
    ExecutionConfig,
    PipelineExecutor,
    _RepetitionRun,
)
from repro.simcore.boards import rk3399

DRIFT_REASONS = {
    "incumbent-optimal",
    "constraint-rescue",
    "amortized-saving",
    "migration-too-costly",
}


def _chaos(scenario):
    harness = Harness(
        board=rk3399(),
        repetitions=1,
        batches_per_repetition=18,
        profile_batches=3,
        cache=None,
    )
    return run_chaos_session(
        harness, ChaosSpec(scenario=scenario, batch_bytes=8192)
    )


@pytest.fixture(scope="module")
def sessions():
    runs = {"drift:phase-shift": run_adaptive_session(
        spec=SessionSpec(scenario="phase-shift")
    )}
    for scenario in CHAOS_SCENARIOS:
        runs[f"chaos:{scenario}"] = _chaos(scenario)
    return runs


class TestTriggerBookkeeping:
    def test_every_trigger_is_exercised(self, sessions):
        reasons = {
            event.reason
            for comparison in sessions.values()
            for event in comparison.controller_events
        }
        assert {"failover", "diagnosis"} <= reasons
        assert reasons & DRIFT_REASONS
        assert reasons <= DRIFT_REASONS | {"failover", "diagnosis"}

    def test_drifted_exactly_for_drift_reasons(self, sessions):
        for label, comparison in sessions.items():
            for event in comparison.controller_events:
                assert event.drifted == (event.reason in DRIFT_REASONS), (
                    label, event,
                )

    def test_failover_events_pair_with_control_events(self, sessions):
        for label, comparison in sessions.items():
            failover_windows = [
                event.window_index
                for event in comparison.controller_events
                if event.reason == "failover"
            ]
            recorded = [
                event.window_index
                for event in getattr(comparison, "failover_events", ())
            ]
            assert recorded == failover_windows, label
            for event in comparison.controller_events:
                if event.reason == "failover":
                    assert event.adopted, (label, event)

    def test_replans_match_controller_events(self, sessions):
        for label, comparison in sessions.items():
            events = comparison.controller_events
            assert comparison.adaptive.replans == len(events), label
            assert comparison.adaptive.plans_adopted == sum(
                1 for event in events if event.adopted
            ), label


class TestFailoverIncumbentMatchesExecutor:
    """After two core failures the controller's remapped incumbent must
    name exactly the cores the executor is routing the plan's work to."""

    @pytest.mark.parametrize(
        "fail_batches", [(7, 8), (4, 10)],
        ids=["same-window", "successive-windows"],
    )
    def test_remapped_incumbent_names_routed_cores(
        self, monkeypatch, board, tcomp32_rovio_profile,
        tcomp32_rovio_context, fail_batches,
    ):
        runs, failovers = [], []
        init = _RepetitionRun.__init__

        def spy_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            runs.append(self)

        replan = SessionController._replan

        def spy_replan(self, observation, trigger, incumbent_plan):
            if trigger == "failover":
                failovers.append((self.plan, incumbent_plan))
            return replan(self, observation, trigger, incumbent_plan)

        monkeypatch.setattr(_RepetitionRun, "__init__", spy_init)
        monkeypatch.setattr(SessionController, "_replan", spy_replan)

        context = tcomp32_rovio_context
        plan = SchedulingPlan(
            graph=context.fine_graph, assignments=((4, 5), (0,))
        )
        per_batch = tcomp32_rovio_profile.per_batch_step_costs
        stream = [per_batch[index % len(per_batch)] for index in range(15)]
        first, second = fail_batches
        config = ExecutionConfig(
            latency_constraint_us_per_byte=26.0,
            repetitions=1,
            batches_per_repetition=15,
            warmup_batches=1,
            fault_plan=FaultPlan(events=(
                CoreFailure(core_id=4, at_batch=first),
                CoreFailure(core_id=5, at_batch=second),
            )),
        )
        batch_bytes = tcomp32_rovio_profile.batch_size_bytes
        controller = SessionController(
            context.cost_model(context.fine_graph),
            stream,
            batch_bytes,
            plan=plan,
        )
        PipelineExecutor(board, config).run_session(
            plan, stream, batch_bytes,
            window_batches=3, controller=controller,
        )

        (run,) = runs
        assert sorted(run.failed_cores) == [4, 5]
        assert failovers
        in_force, incumbent = failovers[-1]
        assert incumbent.assignments == tuple(
            tuple(run.route_core(core) for core in cores)
            for cores in in_force.assignments
        )
        assert not {4, 5} & set(incumbent.cores_used())
        if fail_batches == (7, 8):
            # One boundary saw both failures: the executor routed 4 to
            # 5 and then 5 to 0; the controller maps 4 straight to 0.
            assert len(failovers) == 1
            assert run.failed_cores[4] == 5
            assert run.route_core(4) == 0
