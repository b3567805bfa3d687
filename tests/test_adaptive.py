"""Incremental PID and feedback regulation (§V-D, Eq 8)."""

import pytest

from repro.core.adaptive import PID_GAINS, FeedbackRegulator, IncrementalPID


class TestIncrementalPID:
    def test_eq8_first_step(self):
        # the paper's gains (§VII-A), which the literals below spell out
        assert PID_GAINS == (0.1, 0.85, 0.05)
        pid = IncrementalPID()
        # With e_{k-1} = e_{k-2} = 0: δ = (P + I + D)·e.
        assert pid.step(1.0) == pytest.approx(1.0)

    def test_eq8_second_step(self):
        pid = IncrementalPID()
        pid.step(1.0)
        # δ = P(e2-e1) + I·e2 + D(e2 - 2e1 + e0)
        expected = 0.1 * (2.0 - 1.0) + 0.85 * 2.0 + 0.05 * (2.0 - 2.0 + 0.0)
        assert pid.step(2.0) == pytest.approx(expected)

    def test_eq8_third_step_uses_both_histories(self):
        pid = IncrementalPID()
        pid.step(1.0)
        pid.step(2.0)
        expected = 0.1 * (3.0 - 2.0) + 0.85 * 3.0 + 0.05 * (3.0 - 4.0 + 1.0)
        assert pid.step(3.0) == pytest.approx(expected)

    def test_zero_error_zero_delta(self):
        pid = IncrementalPID()
        pid.step(0.0)
        assert pid.step(0.0) == 0.0

    def test_observation_counter(self):
        pid = IncrementalPID()
        assert pid.observations == 0
        pid.step(1.0)
        pid.step(1.0)
        assert pid.observations == 2
        pid.reset()
        assert pid.observations == 0

    def test_integral_dominates_defaults(self):
        """The paper's PSO-tuned gains are I-heavy: a constant error
        produces a steady corrective push."""
        pid = IncrementalPID()
        deltas = [pid.step(1.0) for _ in range(5)]
        assert all(delta >= 0.75 for delta in deltas[1:])

    def test_converges_on_simple_plant(self):
        """Closed loop: x tracks a target through the controller."""
        pid = IncrementalPID()
        x, target = 1.0, 2.0
        for _ in range(12):
            x += pid.step(target - x)
        assert x == pytest.approx(target, rel=0.05)


@pytest.fixture
def regulator():
    from repro.core.baselines import WorkloadContext
    from repro.core.profiler import profile_workload
    from repro.compression import get_codec
    from repro.datasets import get_dataset
    from repro.simcore.boards import rk3399

    profile = profile_workload(
        get_codec("tcomp32"), get_dataset("rovio"), 8192, batches=4
    )
    context = WorkloadContext.build(rk3399(), profile, 26.0)
    plan = context.plan(context.fine_graph).plan
    return FeedbackRegulator(context.cost_model(context.fine_graph)), plan


class TestFeedbackRegulator:
    def test_accurate_measurement_no_calibration(self, regulator):
        regulator, plan = regulator
        estimated = regulator.model.evaluate(plan).latency_us_per_byte
        event = regulator.observe(0, estimated * 1.02, plan)
        assert not event.calibrating
        assert not event.drifted
        assert event.latency_scale == 1.0

    def test_drift_triggers_calibration(self, regulator):
        regulator, plan = regulator
        estimated = regulator.model.evaluate(plan).latency_us_per_byte
        event = regulator.observe(0, estimated * 1.4, plan)
        assert event.calibrating
        assert event.latency_scale > 1.0

    def test_calibration_needs_three_observations(self, regulator):
        """Eq 8 references e_k, e_{k-1}, e_{k-2}; the drift report waits
        for at least three controller steps."""
        regulator, plan = regulator
        estimated = regulator.model.evaluate(plan).latency_us_per_byte
        measured = estimated * 1.4
        drift_batch = None
        for batch in range(8):
            event = regulator.observe(batch, measured, plan)
            if event.drifted:
                drift_batch = batch
                break
        assert drift_batch is not None
        assert drift_batch >= 2

    def test_model_converges_to_measurement(self, regulator):
        regulator, plan = regulator
        estimated = regulator.model.evaluate(plan).latency_us_per_byte
        measured = estimated * 1.4
        for batch in range(8):
            event = regulator.observe(batch, measured, plan)
            if event.drifted:
                break
        # Once calibration converged the model tracks the plant.
        assert regulator.model.latency_scale[0] == pytest.approx(1.4, rel=0.15)
        refreshed = regulator.model.evaluate(plan).latency_us_per_byte
        assert refreshed == pytest.approx(measured, rel=0.1)

    def test_events_recorded(self, regulator):
        regulator, plan = regulator
        estimated = regulator.model.evaluate(plan).latency_us_per_byte
        regulator.observe(0, estimated, plan)
        regulator.observe(1, estimated * 1.5, plan)
        assert len(regulator.events) == 2
        assert regulator.events[1].relative_error > 0.4
