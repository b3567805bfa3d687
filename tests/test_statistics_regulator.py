"""Statistics-aware regulation (future-work controller)."""

import pytest

from repro.compression.base import StepCost
from repro.core.statistics_regulator import StatisticsAwareRegulator


@pytest.fixture
def setup(tcomp32_rovio_context):
    context = tcomp32_rovio_context
    model = context.cost_model(context.fine_graph)
    regulator = StatisticsAwareRegulator(model)
    baseline = {
        step: context.profile.mean_step_costs[step]
        for step in context.profile.step_ids
    }
    return regulator, baseline


def scaled_costs(baseline, factor):
    return {
        step: StepCost(
            instructions=cost.instructions * factor,
            memory_accesses=cost.memory_accesses * factor,
            input_bytes=cost.input_bytes,
            output_bytes=cost.output_bytes,
        )
        for step, cost in baseline.items()
    }


class TestObservation:
    def test_stable_stream_no_replan(self, setup):
        regulator, baseline = setup
        for batch in range(4):
            event = regulator.observe(batch, baseline)
            assert not event.drifted
            assert event.max_shift < 0.05

    def test_jump_triggers_single_step_replan(self, setup):
        """The headline property: one drifted batch is enough."""
        regulator, baseline = setup
        regulator.observe(0, baseline)
        event = regulator.observe(1, scaled_costs(baseline, 1.6))
        assert event.drifted
        assert event.max_shift > 0.15

    def test_model_scale_tracks_jump(self, setup):
        regulator, baseline = setup
        regulator.observe(0, baseline)
        regulator.observe(1, scaled_costs(baseline, 1.6))
        # With smoothing 0.3 the first observation sees 70% of the jump.
        scale = regulator.model.latency_scale[0]
        assert 1.3 < scale < 1.7

    def test_small_noise_filtered(self, setup):
        regulator, baseline = setup
        for batch, factor in enumerate((1.02, 0.97, 1.05, 0.99)):
            event = regulator.observe(batch, scaled_costs(baseline, factor))
            assert not event.drifted

    def test_rebaseline_after_replan(self, setup):
        """After adapting, the new level is normal — no repeat triggers."""
        regulator, baseline = setup
        high = scaled_costs(baseline, 1.6)
        regulator.observe(0, high)   # drift
        events = [regulator.observe(batch, high) for batch in (1, 2, 3)]
        assert sum(event.drifted for event in events) <= 1  # settling only

    def test_events_recorded(self, setup):
        regulator, baseline = setup
        regulator.observe(0, baseline)
        regulator.observe(1, scaled_costs(baseline, 2.0))
        assert len(regulator.events) == 2
        assert regulator.events[1].max_shift > regulator.events[0].max_shift


class TestDetectOnly:
    """The regulator is the session controller's drift detector: it
    flags drift and recalibrates the model in place, and the controller
    owns the replan/migration decision."""

    def test_drift_flagged_without_replanning(self, setup, monkeypatch):
        from repro.core.scheduler import Scheduler

        searches = []
        monkeypatch.setattr(
            Scheduler, "schedule",
            lambda self, *args, **kwargs: searches.append(self),
        )
        regulator, baseline = setup
        regulator.observe(0, baseline)
        event = regulator.observe(1, scaled_costs(baseline, 1.6))
        assert event.drifted
        assert searches == []

    def test_stable_stream_not_flagged(self, setup):
        regulator, baseline = setup
        for batch in range(4):
            event = regulator.observe(batch, baseline)
            assert not event.drifted

    def test_model_recalibrated_on_drift(self, setup):
        """The controller's replan that follows must see the drifted
        latency scales."""
        regulator, baseline = setup
        regulator.observe(0, baseline)
        regulator.observe(1, scaled_costs(baseline, 1.6))
        assert regulator.model.latency_scale[0] > 1.2


class TestVersusPid:
    def test_faster_than_pid_on_a_jump(self, tcomp32_rovio_context):
        """The §V-D trade-off, measured: the statistics watcher reports
        drift within one observation; the PID needs at least three."""
        from repro.core.adaptive import FeedbackRegulator

        context = tcomp32_rovio_context
        baseline = {
            step: context.profile.mean_step_costs[step]
            for step in context.profile.step_ids
        }
        jumped = scaled_costs(baseline, 1.6)

        stats = StatisticsAwareRegulator(context.cost_model(context.fine_graph))
        stats_batches = 0
        for batch in range(6):
            stats_batches = batch
            if stats.observe(batch, jumped).drifted:
                break

        pid = FeedbackRegulator(context.cost_model(context.fine_graph))
        plan = context.plan(context.fine_graph).plan
        jumped_latency = pid.model.evaluate(plan).latency_us_per_byte * 1.6
        pid_batches = 0
        for batch in range(6):
            pid_batches = batch
            if pid.observe(batch, jumped_latency, plan).drifted:
                break

        assert stats_batches < pid_batches
