"""Fault-plan model: validation, schedules, fingerprints."""

import pytest

from repro.bench.cache import stable_digest
from repro.errors import ConfigurationError
from repro.faults.model import (
    BatchCorruption,
    CoreFailure,
    CoreStall,
    DvfsThrottle,
    FaultPlan,
    InterconnectDegradation,
    corruption_schedule,
)
from repro.simcore.boards import rk3399
from repro.simcore.interconnect import Path


class TestEventValidation:
    def test_negative_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            CoreFailure(core_id=4, at_batch=-1)

    def test_negative_repetition_rejected(self):
        with pytest.raises(ConfigurationError):
            DvfsThrottle(
                core_id=4, at_batch=1, frequency_mhz=600.0, repetition=-2
            )

    def test_negative_reroute_penalty_rejected(self):
        with pytest.raises(ConfigurationError):
            CoreFailure(core_id=4, at_batch=1, reroute_penalty=-0.1)

    def test_nonpositive_stall_rejected(self):
        with pytest.raises(ConfigurationError):
            CoreStall(core_id=4, at_batch=1, stall_us=0.0)

    def test_unknown_path_rejected(self):
        with pytest.raises(ConfigurationError):
            InterconnectDegradation(at_batch=1, path="c9", factor=2.0)

    def test_speedup_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            InterconnectDegradation(at_batch=1, path="c1", factor=0.5)

    def test_corruption_bounds(self):
        with pytest.raises(ConfigurationError):
            BatchCorruption(probability=1.5)
        with pytest.raises(ConfigurationError):
            BatchCorruption(probability=0.5, from_batch=3, until_batch=3)
        with pytest.raises(ConfigurationError):
            BatchCorruption(probability=0.5, max_retries=0)
        with pytest.raises(ConfigurationError):
            BatchCorruption(
                probability=0.5, backoff_us=100.0, backoff_cap_us=50.0
            )

    def test_non_event_rejected_by_plan(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(events=("not-an-event",))


class TestSchedules:
    def test_schedule_keyed_by_completed_batches(self):
        plan = FaultPlan(events=(
            CoreFailure(core_id=4, at_batch=3),
            CoreStall(core_id=0, at_batch=3, stall_us=10.0),
            DvfsThrottle(core_id=5, at_batch=7, frequency_mhz=600.0),
        ))
        schedule = plan.schedule_for(0)
        assert sorted(schedule) == [3, 7]
        assert len(schedule[3]) == 2

    def test_repetition_filtering(self):
        plan = FaultPlan(events=(
            CoreFailure(core_id=4, at_batch=3, repetition=1),
            DvfsThrottle(core_id=5, at_batch=5, frequency_mhz=600.0),
        ))
        assert sorted(plan.schedule_for(0)) == [5]
        assert sorted(plan.schedule_for(1)) == [3, 5]

    def test_corruption_excluded_from_boundary_schedule(self):
        plan = FaultPlan(events=(BatchCorruption(probability=1.0),))
        assert plan.schedule_for(0) == {}
        assert plan.corruptions(0) == plan.events

    def test_at_batch_zero_never_fires(self):
        # The executor compares after incrementing the completion
        # counter, so a key of 0 is unreachable; schedule_for keeps the
        # key and the executor's counter (starting at 1) skips it.
        plan = FaultPlan(events=(CoreFailure(core_id=4, at_batch=0),))
        assert sorted(plan.schedule_for(0)) == [0]


class TestCorruptionSchedule:
    def test_deterministic_per_seed(self):
        plan = FaultPlan(
            events=(BatchCorruption(probability=0.5),), seed=7
        )
        first = corruption_schedule(plan, 0, 50)
        second = corruption_schedule(plan, 0, 50)
        assert first == second
        assert first  # p=0.5 over 50 batches: some corruption expected

    def test_seed_and_repetition_change_outcomes(self):
        base = FaultPlan(events=(BatchCorruption(probability=0.5),), seed=7)
        other = FaultPlan(events=(BatchCorruption(probability=0.5),), seed=8)
        assert corruption_schedule(base, 0, 50) != corruption_schedule(
            other, 0, 50
        )
        assert corruption_schedule(base, 0, 50) != corruption_schedule(
            base, 1, 50
        )

    def test_range_respected(self):
        plan = FaultPlan(events=(
            BatchCorruption(probability=1.0, from_batch=2, until_batch=4),
        ))
        schedule = corruption_schedule(plan, 0, 10)
        assert sorted(schedule) == [2, 3]
        for entry in schedule.values():
            assert entry.exhausted
            assert entry.attempts == 3

    def test_backoff_capped_exponential(self):
        plan = FaultPlan(events=(
            BatchCorruption(
                probability=1.0, max_retries=4,
                backoff_us=200.0, backoff_cap_us=500.0,
            ),
        ))
        entry = corruption_schedule(plan, 0, 1)[0]
        assert entry.backoff_us == (200.0, 400.0, 500.0, 500.0)

    def test_empty_plan_is_noop(self):
        assert corruption_schedule(FaultPlan(), 0, 10) == {}


class TestFingerprint:
    def test_separates_plans(self):
        empty = FaultPlan()
        failure = FaultPlan(events=(CoreFailure(core_id=4, at_batch=3),))
        reseeded = FaultPlan(
            events=(CoreFailure(core_id=4, at_batch=3),), seed=1
        )
        prints = {stable_digest(p) for p in (empty, failure, reseeded)}
        assert len(prints) == 3

    def test_stable_across_calls(self):
        plan = FaultPlan(events=(CoreFailure(core_id=4, at_batch=3),))
        assert stable_digest(plan) == stable_digest(
            FaultPlan(events=(CoreFailure(core_id=4, at_batch=3),))
        )


class TestInterconnectDegraded:
    def test_scales_costs(self):
        spec = rk3399().interconnect
        worse = spec.degraded(Path.C1, 4.0)
        degraded, base = worse.costs[Path.C1], spec.costs[Path.C1]
        assert degraded.unit_cost_us_per_byte == pytest.approx(
            4.0 * base.unit_cost_us_per_byte
        )
        assert degraded.message_overhead_us == pytest.approx(
            4.0 * base.message_overhead_us
        )
        assert worse.message_energy(Path.C1) == pytest.approx(
            4.0 * spec.message_energy(Path.C1)
        )
        # untouched paths stay identical
        assert worse.costs[Path.C0] == spec.costs[Path.C0]

    def test_local_rejected(self):
        with pytest.raises(ConfigurationError):
            rk3399().interconnect.degraded(Path.LOCAL, 2.0)

    def test_speedup_rejected(self):
        with pytest.raises(ConfigurationError):
            rk3399().interconnect.degraded(Path.C1, 0.5)
