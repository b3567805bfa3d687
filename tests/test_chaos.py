"""Chaos sessions: failover recovery, retries, determinism, caching.

End-to-end coverage of the fault subsystem: a permanent core failure
mid-session must be survived by the adaptive controller (replan onto
surviving cores, strictly fewer steady-state violations than the static
plan limping on emergency reroutes), corruption retries must be traced
and TRC006/TRC007-clean, and the whole thing must stay byte-identical
under a fixed seed — including through the parallel grid runner and the
persistent cache (whose keys must separate faulted from fault-free
cells).
"""

import re

import pytest

from repro.analysis.verify import iter_recorder_events, verify_trace_events
from repro.bench.cache import ResultCache
from repro.bench.harness import Harness, WorkloadSpec
from repro.core.plan import SchedulingPlan
from repro.faults.chaos import ChaosSpec, run_chaos_session
from repro.faults.model import CoreFailure, DvfsThrottle, FaultPlan
from repro.obs.trace import TraceRecorder
from repro.runtime.executor import ExecutionConfig, PipelineExecutor
from repro.simcore.boards import rk3399

TEST_BATCH = 8192


def chaos_harness():
    return Harness(
        board=rk3399(),
        repetitions=1,
        batches_per_repetition=18,
        profile_batches=3,
        cache=None,
    )


def chaos_spec(**kwargs):
    kwargs.setdefault("batch_bytes", TEST_BATCH)
    return ChaosSpec(**kwargs)


def _cores_in(description):
    return {
        int(piece)
        for group in re.findall(r"@\[([^\]]+)\]", description)
        for piece in group.split(",")
    }


@pytest.fixture(scope="module")
def failure_run():
    recorder = TraceRecorder()
    comparison = run_chaos_session(
        chaos_harness(), chaos_spec(scenario="core-failure"), trace=recorder
    )
    return comparison, recorder


@pytest.fixture(scope="module")
def corruption_run():
    recorder = TraceRecorder()
    comparison = run_chaos_session(
        chaos_harness(),
        chaos_spec(scenario="corruption", corruption_probability=0.4),
        trace=recorder,
    )
    return comparison, recorder


class TestCoreFailureRecovery:
    def test_adaptive_strictly_beats_static(self, failure_run):
        comparison, _ = failure_run
        assert (
            comparison.adaptive_steady_violations
            < comparison.static_steady_violations
        )
        assert comparison.adaptive_steady_violations == 0

    def test_static_never_recovers_adaptive_does(self, failure_run):
        comparison, _ = failure_run
        assert comparison.static_recovery_us is None
        assert comparison.adaptive_recovery_us is not None
        assert comparison.adaptive_recovery_us > 0

    def test_failover_event_names_dead_core(self, failure_run):
        comparison, _ = failure_run
        (failover,) = comparison.failover_events
        assert failover.failed_cores == (comparison.victim_core,)
        assert any(
            event.reason == "failover"
            for event in comparison.controller_events
        )

    def test_final_plan_avoids_dead_core(self, failure_run):
        comparison, _ = failure_run
        final = comparison.adaptive.final_plan_description
        assert comparison.victim_core not in _cores_in(final)
        # the static arm keeps (emergency-rerouting) the original plan
        static_final = comparison.static.final_plan_description
        assert comparison.victim_core in _cores_in(static_final)

    def test_fault_event_reported_in_both_faulted_arms(self, failure_run):
        comparison, _ = failure_run
        for arm in (comparison.static, comparison.adaptive):
            assert any(
                event.kind == "core-failure"
                and event.core_id == comparison.victim_core
                for event in arm.fault_events
            )
        assert comparison.baseline.fault_events == ()

    def test_adaptive_energy_overhead_smaller(self, failure_run):
        comparison, _ = failure_run
        assert (
            comparison.adaptive_energy_overhead
            < comparison.static_energy_overhead
        )

    def test_trace_passes_invariants_including_trc006(self, failure_run):
        _, recorder = failure_run
        assert recorder.core_failures == 1
        findings = verify_trace_events(iter_recorder_events(recorder))
        assert [f for f in findings if f.severity == "error"] == []


class TestCorruptionRetries:
    def test_retries_fired_and_traced(self, corruption_run):
        comparison, recorder = corruption_run
        corrupt = [
            event
            for event in comparison.adaptive.fault_events
            if event.kind == "batch-corruption"
        ]
        assert corrupt
        assert recorder.corrupted_batches == len(corrupt)
        assert recorder.batch_retries >= len(corrupt)

    def test_trace_passes_invariants_including_trc007(self, corruption_run):
        _, recorder = corruption_run
        findings = verify_trace_events(iter_recorder_events(recorder))
        assert [f for f in findings if f.severity == "error"] == []

    def test_corruption_inflates_latency_not_correctness(
        self, corruption_run
    ):
        comparison, _ = corruption_run
        corrupt_batches = {
            event.batch for event in comparison.static.fault_events
        }
        clean = {
            b.batch_index: b.latency_us_per_byte
            for b in comparison.baseline.batches
        }
        faulted = {
            b.batch_index: b.latency_us_per_byte
            for b in comparison.static.batches
        }
        assert any(
            faulted[batch] > clean[batch] for batch in corrupt_batches
        )


class TestDeterminism:
    def test_same_seed_same_plan_byte_identical(self):
        runs = []
        for _ in range(2):
            recorder = TraceRecorder()
            comparison = run_chaos_session(
                chaos_harness(),
                chaos_spec(scenario="core-failure+corruption"),
                trace=recorder,
            )
            runs.append((comparison, recorder))
        first, second = runs
        for arm in ("baseline", "static", "adaptive"):
            a, b = getattr(first[0], arm), getattr(second[0], arm)
            assert a.batches == b.batches
            assert a.completion_ts_us == b.completion_ts_us
            assert a.fault_events == b.fault_events
            assert a.plan_descriptions == b.plan_descriptions
        assert list(iter_recorder_events(first[1])) == list(
            iter_recorder_events(second[1])
        )

    def test_fault_free_path_identical_to_empty_plan(
        self, board, tcomp32_rovio_profile, tcomp32_rovio_context
    ):
        plan = SchedulingPlan(
            graph=tcomp32_rovio_context.fine_graph, assignments=((4,), (0,))
        )

        def run(fault_plan):
            executor = PipelineExecutor(
                board,
                ExecutionConfig(
                    latency_constraint_us_per_byte=26.0,
                    repetitions=2,
                    batches_per_repetition=6,
                    warmup_batches=1,
                    fault_plan=fault_plan,
                ),
            )
            per_batch = (
                list(tcomp32_rovio_profile.per_batch_step_costs) * 6
            )[:6]
            return executor.run(
                plan, per_batch, tcomp32_rovio_profile.batch_size_bytes
            )

        assert run(None) == run(FaultPlan())


class TestGridAndCache:
    def test_serial_matches_jobs2_under_faults(self):
        spec = WorkloadSpec.of("tcomp32", "rovio", batch_size=4096)
        plan = FaultPlan(events=(CoreFailure(core_id=4, at_batch=2),))

        def grid(jobs):
            harness = Harness(
                board=rk3399(),
                repetitions=2,
                batches_per_repetition=4,
                profile_batches=3,
                cache=None,
            )
            return harness.grid(
                [spec], ["CStream", "RR"], jobs=jobs, fault_plan=plan
            )

        assert grid(1) == grid(2)

    def test_run_key_separates_fault_plans(self):
        harness = chaos_harness()
        spec = WorkloadSpec.of("tcomp32", "rovio", batch_size=TEST_BATCH)
        failure = FaultPlan(events=(CoreFailure(core_id=4, at_batch=2),))
        throttle = FaultPlan(events=(
            DvfsThrottle(core_id=4, at_batch=2, frequency_mhz=600.0),
        ))
        keys = {
            harness.run_key(spec, "CStream", None, overrides)
            for overrides in (
                {},
                {"fault_plan": failure},
                {"fault_plan": throttle},
            )
        }
        assert len(keys) == 3
        # same plan content -> same key (the fingerprint, not identity)
        assert harness.run_key(
            spec, "CStream", None,
            {"fault_plan": FaultPlan(events=failure.events)},
        ) == harness.run_key(spec, "CStream", None, {"fault_plan": failure})

    def test_faulted_cell_never_hits_fault_free_entry(self, tmp_path):
        harness = Harness(
            board=rk3399(),
            repetitions=1,
            batches_per_repetition=4,
            profile_batches=3,
            cache=ResultCache(tmp_path),
        )
        spec = WorkloadSpec.of("tcomp32", "rovio", batch_size=4096)
        clean_key = harness.run_key(spec, "CStream", None, {})
        harness.cache.put(clean_key, "fault-free-result")
        faulted_key = harness.run_key(
            spec, "CStream", None,
            {"fault_plan": FaultPlan(
                events=(CoreFailure(core_id=4, at_batch=2),)
            )},
        )
        assert harness.cache.get(faulted_key) is None
        assert harness.cache.get(clean_key) == "fault-free-result"


@pytest.fixture(scope="module")
def interconnect_run():
    return run_chaos_session(
        chaos_harness(), chaos_spec(scenario="interconnect")
    )


@pytest.fixture(scope="module")
def heavy_corruption_run():
    return run_chaos_session(
        chaos_harness(),
        chaos_spec(scenario="corruption", corruption_probability=0.6),
    )


class TestResidualDiagnosis:
    """Signal-free faults: no heartbeat, only the residual ledger."""

    def test_interconnect_health_names_degraded_link(self, interconnect_run):
        health = interconnect_run.health
        assert health is not None
        dominant = health.dominant()
        assert dominant is not None
        assert dominant.kind == "path"
        assert dominant.key == "c1"
        assert dominant.score >= 3.0

    def test_interconnect_diagnosis_replan_beats_static(
        self, interconnect_run
    ):
        assert any(
            event.reason == "diagnosis"
            for event in interconnect_run.controller_events
        )
        assert interconnect_run.failover_events == ()
        assert (
            interconnect_run.adaptive_steady_violations
            < interconnect_run.static_steady_violations
        )

    def test_corruption_health_names_retry_stage(self, heavy_corruption_run):
        health = heavy_corruption_run.health
        assert health is not None
        dominant = health.dominant()
        assert dominant is not None
        assert dominant.kind == "retry"
        assert dominant.score >= 3.0

    def test_corruption_diagnosis_replan_beats_static(
        self, heavy_corruption_run
    ):
        assert any(
            event.reason == "diagnosis"
            for event in heavy_corruption_run.controller_events
        )
        assert (
            heavy_corruption_run.adaptive_steady_violations
            < heavy_corruption_run.static_steady_violations
        )

    def test_health_report_is_schema_and_invariant_clean(
        self, interconnect_run
    ):
        import json

        from repro.analysis.verify import verify_health

        # schema (HLT003) and arithmetic (HLT001-002) in one check
        payload = json.loads(interconnect_run.health.to_json())
        assert verify_health(payload) == []

    def test_heartbeat_scenarios_stay_heartbeat_driven(self, failure_run):
        # Telemetry defaults on for chaos sessions, but the core-failure
        # win must still come from the failover path, not diagnosis.
        comparison, _ = failure_run
        assert comparison.health is not None
        reasons = {e.reason for e in comparison.controller_events}
        assert "failover" in reasons
