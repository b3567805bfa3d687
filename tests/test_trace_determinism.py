"""Tracing must observe, never perturb.

The tentpole guarantee of the observability layer: a traced run's
simulated numbers are byte-identical to the untraced run's, and traced
runs are themselves deterministic (same seed, same event stream). Plus
the paper-shape diagnostics the trace makes measurable: the OS baseline
context-switches orders of magnitude more per MB than CStream (§VI-B),
and an ondemand-governed OS cell shows nonzero context-switch,
migration and DVFS counters.
"""

import hashlib
import json

import pytest

from repro.analysis.verify import errors_only, verify_chrome_payload
from repro.bench.cache import ResultCache
from repro.bench.harness import Harness, WorkloadSpec
from repro.control.session import SessionSpec, run_adaptive_session
from repro.faults.chaos import ChaosSpec, run_chaos_session
from repro.faults.model import CoreFailure, CoreStall, DvfsThrottle, FaultPlan
from repro.obs.export import chrome_trace, write_chrome_trace
from repro.obs.trace import TraceRecorder
from repro.simcore.boards import rk3399

BATCH = 8192


def make_harness(**kwargs):
    kwargs.setdefault("repetitions", 2)
    kwargs.setdefault("batches_per_repetition", 4)
    kwargs.setdefault("cache", None)
    return Harness(**kwargs)


def spec_of(codec="tcomp32", dataset="rovio"):
    return WorkloadSpec.of(codec, dataset, batch_size=BATCH)


#: (fault, trace event it fires) on core 1, which the OS baseline uses
#: in both repetitions; the failure forwards queued work to core 0
FAULTS = {
    "core-failure": (CoreFailure(core_id=1, at_batch=1), "core-failure"),
    "core-stall": (
        CoreStall(core_id=1, at_batch=1, stall_us=500.0), "core-stall"
    ),
    "dvfs-throttle": (
        DvfsThrottle(core_id=1, at_batch=1, frequency_mhz=600.0),
        "fault-injected",
    ),
}


class TestTracedEqualsUntraced:
    @pytest.mark.parametrize(
        "mechanism, fault",
        [(mechanism, None) for mechanism in ("CStream", "OS", "RR")]
        + [("OS", kind) for kind in FAULTS],
        ids=["CStream", "OS", "RR"] + [f"OS-{kind}" for kind in FAULTS],
    )
    def test_same_numbers(self, mechanism, fault):
        overrides = {}
        if fault is not None:
            event, fired = FAULTS[fault]
            overrides["fault_plan"] = FaultPlan(events=(event,))
        plain = make_harness().run(spec_of(), mechanism, **overrides)
        traced, recorder = make_harness().run_traced(
            spec_of(), mechanism, **overrides
        )
        assert traced.repetitions == plain.repetitions
        assert traced == plain  # trace_summary is comparison-neutral
        assert traced.trace_summary is not None
        assert plain.trace_summary is None
        assert recorder.events
        if fault is not None:
            assert any(e.name == fired for e in recorder.events)

    def test_same_numbers_under_ondemand_governor(self):
        plain = make_harness().run(spec_of(), "OS", governor="ondemand")
        traced, _ = make_harness().run_traced(
            spec_of(), "OS", governor="ondemand"
        )
        assert traced.repetitions == plain.repetitions

    def test_two_traced_runs_identical_event_streams(self):
        _, first = make_harness().run_traced(spec_of(), "CStream")
        _, second = make_harness().run_traced(spec_of(), "CStream")
        assert first.events == second.events
        assert first.summary() == second.summary()

    def test_process_events_add_detail_not_perturbation(self):
        baseline, quiet = make_harness().run_traced(spec_of(), "CStream")
        verbose_result, verbose = make_harness().run_traced(
            spec_of(), "CStream", process_events=True
        )
        assert verbose_result.repetitions == baseline.repetitions
        assert len(verbose.events) > len(quiet.events)
        assert any(e.category == "process" for e in verbose.events)


class TestTraceStreamInvariants:
    def test_figure_grid_traces_keep_time_order(self):
        """Every cell of the traced figure grid passes TRC001-TRC007.

        Core servers emit spans when they start, so events on a core
        track carry non-decreasing times (TRC001) even when a task
        process reports switches on that core mid-span."""
        harness = make_harness(batches_per_repetition=6, seed=0)
        failing = []
        for codec in ("tcomp32", "tdic32", "lz4", "unlz4", "mltc"):
            for dataset in ("rovio", "sensor"):
                spec = WorkloadSpec.of(codec, dataset, batch_size=16384)
                for mechanism in ("CStream", "OS", "CS", "RR", "BO", "LO"):
                    _, recorder = harness.run_traced(spec, mechanism)
                    payload = chrome_trace(recorder, board=harness.board)
                    codes = sorted({
                        finding.code
                        for finding in errors_only(
                            verify_chrome_payload(payload)
                        )
                    })
                    if codes:
                        failing.append((codec, dataset, mechanism, codes))
        assert failing == []


class TestPaperShape:
    """Satellite: the §VI-B context-switch diagnostic."""

    def test_os_switches_orders_of_magnitude_more_than_cstream(self):
        os_result, _ = make_harness().run_traced(spec_of(), "OS")
        cs_result, _ = make_harness().run_traced(spec_of(), "CStream")
        os_rate = os_result.trace_summary.context_switches_per_mb
        cs_rate = cs_result.trace_summary.context_switches_per_mb
        # paper: ~60 000/MB under CFS vs ~10/MB per CStream stage
        assert os_rate > 10_000
        assert cs_rate < 1_000
        assert os_rate / cs_rate > 100

    def test_acceptance_cell_counters_and_export(self, tmp_path):
        """ISSUE acceptance: traced OS cell with the ondemand governor
        has nonzero switch/migration/DVFS counters and a valid trace."""
        result, recorder = make_harness().run_traced(
            spec_of(), "OS", governor="ondemand"
        )
        summary = result.trace_summary
        assert summary.context_switches > 0
        assert summary.migrations > 0
        assert summary.dvfs_transitions > 0
        assert summary.queue_depth_highwater >= 1
        assert 0.0 < max(summary.occupancy().values()) <= 1.0

        payload = chrome_trace(recorder, board=make_harness().board)
        assert errors_only(verify_chrome_payload(payload)) == []

    def test_cstream_scheduler_stats_surface_in_summary(self):
        result, _ = make_harness().run_traced(spec_of(), "CStream")
        stats = dict(result.trace_summary.scheduler)
        assert stats["plans_evaluated"] >= 1
        assert stats["nodes_expanded"] >= 1
        assert stats["wall_clock_s"] >= 0


class TestHarnessTraceRouting:
    def test_trace_dir_writes_one_valid_file_per_computed_cell(
        self, tmp_path
    ):
        harness = make_harness(trace_dir=str(tmp_path / "traces"))
        harness.run(spec_of(), "RR")
        files = list((tmp_path / "traces").glob("*.trace.json"))
        assert len(files) == 1
        assert "tcomp32-rovio-RR" in files[0].name
        with open(files[0]) as source:
            assert errors_only(verify_chrome_payload(json.load(source))) == []
        # a second run hits the in-memory cache: no new file
        harness.run(spec_of(), "RR")
        assert len(list((tmp_path / "traces").glob("*.trace.json"))) == 1

    def test_run_traced_upgrades_cached_entry_with_summary(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        harness = make_harness(cache=cache)
        plain = harness.run(spec_of(), "BO")
        assert plain.trace_summary is None
        traced, _ = harness.run_traced(spec_of(), "BO")
        assert traced == plain
        fresh = make_harness(cache=ResultCache(tmp_path / "cache"))
        served = fresh.run(spec_of(), "BO")
        assert served.trace_summary is not None
        assert served == plain


class TestPercentiles:
    """Satellite: tail percentiles on RunResult."""

    def test_percentiles_bracket_the_mean(self):
        result = make_harness(repetitions=8).run(spec_of(), "CStream")
        p50 = result.p50_latency_us_per_byte
        p95 = result.p95_latency_us_per_byte
        p99 = result.p99_latency_us_per_byte
        assert p50 <= p95 <= p99
        assert p99 <= max(
            r.latency_us_per_byte for r in result.repetitions
        ) + 1e-9
        assert result.p50_energy_uj_per_byte <= result.p99_energy_uj_per_byte
        assert "p95" in result.summary() and "p99" in result.summary()

    def test_single_repetition_percentiles_collapse(self):
        result = make_harness(repetitions=1).run(spec_of(), "RR")
        only = result.repetitions[0].latency_us_per_byte
        assert result.p50_latency_us_per_byte == pytest.approx(only)
        assert result.p99_latency_us_per_byte == pytest.approx(only)


def _golden_cell():
    """The golden suite's traced cell (tests/test_golden_identity.py)."""
    harness = Harness(
        repetitions=3, batches_per_repetition=5, profile_batches=4,
        seed=0, cache=None, jobs=1,
    )
    _, recorder = harness.run_traced(
        WorkloadSpec.of("tcomp32", "rovio", batch_size=16384), "CStream"
    )
    return recorder, harness.board


def _os_process_events():
    harness = make_harness()
    _, recorder = harness.run_traced(spec_of(), "OS", process_events=True)
    return recorder, harness.board


def _session_harness():
    return Harness(
        board=rk3399(), repetitions=1, batches_per_repetition=18,
        profile_batches=3, cache=None,
    )


def _chaos_failure_corruption():
    harness, recorder = _session_harness(), TraceRecorder()
    run_chaos_session(
        harness,
        ChaosSpec(scenario="core-failure+corruption", batch_bytes=BATCH),
        trace=recorder,
    )
    return recorder, harness.board


def _adapt_phase_shift():
    harness, recorder = _session_harness(), TraceRecorder()
    run_adaptive_session(
        harness, SessionSpec(scenario="phase-shift"), trace=recorder
    )
    return recorder, harness.board


#: sha256 of the exported file, taken from the ``json.dump`` writer that
#: preceded the chunked one; the streamed export must keep these bytes
EXPORT_SHA256 = {
    "golden-cell": (
        _golden_cell,
        "29a60c0cc4d01a5cc2d91c33ae651390120b8c26288db1d77f9a933280a82687",
    ),
    "os-process-events": (
        _os_process_events,
        "b4f1714c8c5cb31ec4b7bc249eda236a157d4937086b811295445560e401830a",
    ),
    "chaos-failure-corruption": (
        _chaos_failure_corruption,
        "64e8e46616061167b0af9e34a90c2151bfb6feadd9d85f73c74b27f47fa77058",
    ),
    "adapt-phase-shift": (
        _adapt_phase_shift,
        "401079474d7959cb3ef57b4cd6ac627d7b640c3661ea817bde4a0651d0e36bb7",
    ),
}


class TestExportBytes:
    """The Chrome export is pinned byte for byte."""

    @pytest.mark.parametrize("name", sorted(EXPORT_SHA256))
    def test_export_bytes_pinned(self, name, tmp_path):
        build, expected = EXPORT_SHA256[name]
        recorder, board = build()
        path = write_chrome_trace(recorder, str(tmp_path / "t.json"), board)
        with open(path, "rb") as source:
            data = source.read()
        assert hashlib.sha256(data).hexdigest() == expected
        # the dict API and the streamed writer describe the same trace
        # (through JSON: placement args hold tuples, the file has lists)
        payload = chrome_trace(recorder, board=board)
        assert json.loads(data) == json.loads(json.dumps(payload, default=repr))

    def test_hooks_of_interest_are_in_the_pinned_traces(self):
        names = set()
        for name in ("chaos-failure-corruption", "adapt-phase-shift"):
            recorder, _ = EXPORT_SHA256[name][0]()
            names |= {event.name for event in recorder.events}
        assert {
            "core-failure", "batch-corrupted", "batch-retry",
            "replan", "plan-migration",
        } <= names
