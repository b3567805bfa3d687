"""The controller's one replan path: trigger bookkeeping across drift,
failover and diagnosis sessions, and the failover incumbent agreeing
with the executor's emergency routes."""

import ast
from pathlib import Path

import pytest

import repro
from repro.bench.harness import Harness
from repro.control import (
    ControllerConfig,
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


SRC = Path(repro.__file__).parent


class TestOneSearchSite:
    """The regulators detect and recalibrate; only the session
    controller searches for a plan online."""

    @pytest.mark.parametrize(
        "module", ["core/adaptive.py", "core/statistics_regulator.py"]
    )
    def test_regulators_never_name_the_scheduler(self, module):
        tree = ast.parse((SRC / module).read_text())
        names = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        } | {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
        } | {
            alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names
        }
        assert "Scheduler" not in names
        assert "schedule" not in names

    def test_control_searches_only_in_the_session_controller(self):
        owners = []
        for path in sorted((SRC / "control").glob("*.py")):
            tree = ast.parse(path.read_text())
            for top in tree.body:
                for node in ast.walk(top):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "schedule"
                    ):
                        owner = top.name if isinstance(
                            top, (ast.ClassDef, ast.FunctionDef)
                        ) else None
                        owners.append((path.name, owner))
        assert owners
        assert set(owners) == {("controller.py", "SessionController")}


class TestPidDetector:
    def test_fig9_session_adopts_through_constraint_rescue(self):
        """The paper's Fig 9 step under the PID detector: Eq 8 needs
        three steady observations, so the replan lands at window 2."""
        comparison = run_adaptive_session(spec=SessionSpec(
            scenario="phase-shift",
            batches=15,
            latency_constraint=20.0,
            controller=ControllerConfig(drift_detector="pid"),
        ))
        adopted = [
            (event.window_index, event.reason, event.drifted)
            for event in comparison.controller_events
            if event.adopted
        ]
        assert adopted == [(2, "constraint-rescue", True)]
        assert comparison.adaptive_steady_violations < (
            comparison.static_steady_violations
        )
