"""Unit tests for the observability package (repro.obs).

Recorder aggregation, Chrome trace export, the dependency-free schema
checker, and the process-wide metrics registry.
"""

import inspect
import json

import numpy as np
import pytest

from repro.obs import export
from repro.obs import (
    MetricsRegistry,
    TraceRecorder,
    active_recorder,
    chrome_trace,
    diff_snapshots,
    set_active_recorder,
    write_chrome_trace,
)
from repro.obs.check import main as check_main, validate_health, validate_trace
from repro.obs.trace import TID_GOVERNOR, TID_OS_SCHED, TID_RUNTIME
from repro.simcore.boards import rk3399


def small_recorder() -> TraceRecorder:
    """A hand-driven recorder standing in for one 2-batch repetition."""
    recorder = TraceRecorder()
    recorder.begin_repetition(0)
    # Emission order follows simulated time per track, as the DES would
    # produce it — repro.analysis.verify checks this (TRC001) via
    # repro.obs.check on every exported trace.
    recorder.span("compress", 1, 0.0, 100.0, batch=0)
    recorder.queue_depth("q.s1r0.p0", 3, 50.0)
    recorder.dvfs_transition(1, 1416.0, 1800.0, 60.0)
    recorder.fault(2, 80.0, 600.0)
    recorder.queue_depth("q.s1r0.p0", 1, 90.0)
    recorder.energy_sample("busy", 40.0, 100.0)
    recorder.energy_sample("overhead", 2.0, 100.0)
    recorder.span("flush", 2, 100.0, 140.0, batch=0)
    recorder.span("compress", 1, 120.0, 220.0, batch=1)
    recorder.batch_complete(0, 140.0)
    recorder.migration(2, 150.0)
    recorder.context_switch(1, 2.5, 220.0)
    recorder.span("ctx-switch", 2, 220.0, 230.0)
    recorder.context_switch(2, 1.0, 230.0)
    recorder.batch_complete(1, 240.0)
    recorder.end_repetition(window_us=240.0, batch_bytes=1 << 19, batches=2)
    return recorder


class TestTraceRecorder:
    def test_span_accumulates_core_busy(self):
        recorder = small_recorder()
        # two compress spans + the 10 µs ctx-switch stall on core 2
        busy = recorder.core_busy_us
        assert busy[1] == pytest.approx(200.0)
        assert busy[2] == pytest.approx(40.0 + 10.0)

    def test_context_switches_accumulate_fractionally(self):
        recorder = small_recorder()
        assert recorder.context_switches == pytest.approx(3.5)

    def test_queue_highwater_keeps_maximum(self):
        recorder = small_recorder()
        assert recorder.queue_highwater["q.s1r0.p0"] == 3

    def test_summary_per_mb_math(self):
        summary = small_recorder().summary()
        # 2 batches x 512 KiB = 1 MiB processed
        assert summary.megabytes == pytest.approx(1.0)
        assert summary.context_switches_per_mb == pytest.approx(3.5)
        assert summary.migrations_per_mb == pytest.approx(1.0)
        assert summary.queue_depth_highwater == 3
        assert summary.dvfs_transitions == 1
        assert summary.fault_injections == 1
        assert summary.energy_busy_uj == pytest.approx(40.0)
        assert summary.energy_overhead_uj == pytest.approx(2.0)

    def test_occupancy_fraction_of_window(self):
        summary = small_recorder().summary()
        occupancy = summary.occupancy()
        assert occupancy[1] == pytest.approx(200.0 / 240.0)

    def test_empty_recorder_summary_is_all_zero(self):
        summary = TraceRecorder().summary()
        assert summary.context_switches_per_mb == 0.0
        assert summary.migrations_per_mb == 0.0
        assert summary.queue_depth_highwater == 0
        assert summary.occupancy() == {}

    def test_format_lists_counters_and_scheduler(self):
        summary = small_recorder().summary(
            scheduler=(("nodes_expanded", 12.0),)
        )
        text = summary.format(board=rk3399())
        assert "context switches/MB" in text
        assert "DVFS transitions" in text
        assert "(little) occupancy" in text
        assert "scheduler nodes_expanded" in text

    def test_process_events_off_by_default(self):
        recorder = TraceRecorder()
        assert not recorder.process_events

    def test_ambient_recorder_roundtrip(self):
        recorder = TraceRecorder()
        assert active_recorder() is None
        set_active_recorder(recorder)
        try:
            assert active_recorder() is recorder
        finally:
            set_active_recorder(None)
        assert active_recorder() is None

    def test_synthetic_tracks_do_not_collide_with_cores(self):
        board = rk3399()
        core_ids = {core.core_id for core in board.cores}
        assert not core_ids & {TID_GOVERNOR, TID_OS_SCHED, TID_RUNTIME}


class TestChromeExport:
    def test_payload_shape(self):
        payload = chrome_trace(small_recorder(), board=rk3399())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        phases = {event["ph"] for event in events}
        assert phases <= {"X", "i", "C", "M"}
        complete = [e for e in events if e["ph"] == "X"]
        assert complete and all("dur" in e for e in complete)
        counters = [e for e in events if e["ph"] == "C"]
        assert counters and all(
            isinstance(value, (int, float))
            for e in counters for value in e["args"].values()
        )
        instants = [e for e in events if e["ph"] == "i"]
        assert instants and all(e["s"] == "t" for e in instants)

    def test_metadata_names_cores_and_tracks(self):
        payload = chrome_trace(small_recorder(), board=rk3399())
        names = {
            event["args"]["name"]
            for event in payload["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert any("little" in name or "big" in name for name in names)
        assert any("governor" in name.lower() for name in names)

    def test_other_data_carries_headline_counters(self):
        payload = chrome_trace(small_recorder())
        other = payload["otherData"]
        assert other["context_switches_per_mb"] == pytest.approx(3.5)
        assert other["migrations"] == 1

    def test_write_is_valid_json_and_validates(self, tmp_path):
        path = tmp_path / "out.trace.json"
        write_chrome_trace(small_recorder(), path, board=rk3399())
        with open(path) as source:
            payload = json.load(source)
        assert validate_trace(payload) == []


def _instants(count: int) -> TraceRecorder:
    recorder = TraceRecorder()
    for index in range(count):
        recorder.batch_complete(index, float(index))
    return recorder


class TestStreamedWriter:
    """``write_chrome_trace`` writes what ``json.dump`` of
    :func:`chrome_trace` would, whatever the chunking."""

    @staticmethod
    def _written(recorder, tmp_path, board=None) -> str:
        path = write_chrome_trace(recorder, str(tmp_path / "t.json"), board)
        with open(path, encoding="utf-8") as source:
            return source.read()

    @staticmethod
    def _dumped(recorder, board=None) -> str:
        payload = chrome_trace(recorder, board=board)
        return json.dumps(payload, default=repr) + "\n"

    def test_empty_recorder(self, tmp_path):
        recorder = TraceRecorder()
        text = self._written(recorder, tmp_path)
        assert text == self._dumped(recorder)
        assert [e["name"] for e in json.loads(text)["traceEvents"]] == [
            "process_name"
        ]

    # one repetition on one track: two metadata records precede the rows
    @pytest.mark.parametrize(
        "rows", [export._CHUNK - 2, export._CHUNK - 1], ids=["one", "one+1"]
    )
    def test_chunk_boundaries(self, rows, tmp_path):
        recorder = _instants(rows)
        text = self._written(recorder, tmp_path)
        assert text == self._dumped(recorder)
        assert len(json.loads(text)["traceEvents"]) == rows + 2

    def test_small_recorder_with_board(self, tmp_path):
        recorder = small_recorder()
        board = rk3399()
        assert self._written(recorder, tmp_path, board) == self._dumped(
            recorder, board
        )

    def test_args_json_cannot_hold_export_as_repr(self, tmp_path):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        recorder = TraceRecorder()
        recorder.span(
            "t", 1, 0.0, 1.0,
            count=np.int64(3), blob=Opaque(), pair=(1, (2, 3)),
        )
        event = json.loads(self._written(recorder, tmp_path))["traceEvents"][-1]
        assert event["args"] == {
            "blob": "<opaque>",
            "count": repr(np.int64(3)),
            "pair": [1, [2, 3]],
        }


#: one call per recorder hook, with the arg keys its row must carry
HOOK_CALLS = {
    "span": (("compress", 1, 0.0, 5.0), {"zeta": 1, "batch": 0},
             ("batch", "zeta")),
    "context_switch": ((1, 2.0, 5.0), {}, ("value",)),
    "migration": ((2, 6.0), {}, ("total",)),
    "dvfs_transition": ((1, 1416.0, 1800.0, 7.0), {},
                        ("core", "from_mhz", "to_mhz")),
    "fault": ((2, 8.0, 600.0), {}, ("capped_mhz", "core")),
    "core_failure": ((4, 0, 9.0), {}, ("core", "failover")),
    "core_stall": ((1, 10.0, 400.0), {}, ("core", "stall_us")),
    "interconnect_degraded": (("c1", 11.0, 6.0), {}, ("factor", "path")),
    "batch_corrupted": ((3, 12.0, 2), {"exhausted": True},
                        ("attempts", "batch", "exhausted")),
    "batch_retry": ((3, 1, 13.0), {"backoff_us": 5.0},
                    ("attempt", "backoff_us", "batch")),
    "batch_complete": ((3, 14.0), {}, ("batch",)),
    "queue_depth": (("q.s1r0.p0", 2, 15.0), {}, ("value",)),
    "energy_sample": (("busy", 3.5, 16.0), {}, ("value",)),
    "placement": (("eas_place", (4, 5)), {}, ("cores",)),
    "process_event": (("resume", "stage-1", 17.0), {}, ()),
    "replan": ((2, 18.0, True, "cheaper", 0.42), {"warm_start_hits": 3},
               ("adopted", "energy_uj_per_byte", "reason",
                "warm_start_hits", "window")),
    "plan_migration": ((2, 19.0, 250.0, 1, 12.5, "s1r0 0->4"), {},
                       ("energy_uj", "moved_replicas", "moves", "window")),
}


class TestHookContract:
    def test_every_hook_is_covered(self):
        structure = {"begin_repetition", "end_repetition", "summary"}
        hooks = {
            name
            for name, member in inspect.getmembers(TraceRecorder)
            if inspect.isfunction(member)
            and not name.startswith("_")
            and name not in structure
        }
        assert hooks == set(HOOK_CALLS)

    @pytest.mark.parametrize("hook", sorted(HOOK_CALLS))
    def test_row_args_sorted_by_key(self, hook):
        positional, keywords, keys = HOOK_CALLS[hook]
        recorder = TraceRecorder()
        recorder.begin_repetition(3)
        getattr(recorder, hook)(*positional, **keywords)
        (row,) = recorder._rows
        args = row[-1]
        assert args == tuple(sorted(args))
        assert tuple(key for key, _ in args) == keys
        (event,) = recorder.events
        assert event.pid == 3 and event.args == args


class TestChecker:
    def test_accepts_good_trace(self):
        assert validate_trace(chrome_trace(small_recorder())) == []

    def test_rejects_missing_events(self):
        assert validate_trace({}) != []
        assert validate_trace({"traceEvents": []}) != []

    def test_rejects_unknown_phase(self):
        payload = chrome_trace(small_recorder())
        payload["traceEvents"][0] = dict(
            payload["traceEvents"][0], ph="Z"
        )
        assert any("phase" in p for p in validate_trace(payload))

    def test_rejects_complete_event_without_duration(self):
        bad = {
            "traceEvents": [
                {"name": "t", "ph": "X", "ts": 0, "pid": 0, "tid": 0}
            ]
        }
        assert validate_trace(bad) != []

    def test_cli_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        write_chrome_trace(small_recorder(), good)
        assert check_main([str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": []}')
        assert check_main([str(bad)]) == 1
        assert check_main([]) == 2
        capsys.readouterr()


class TestMetricsRegistry:
    def test_counters(self):
        registry = MetricsRegistry()
        registry.inc("cells")
        registry.inc("cells", 2.0)
        assert registry.counter("cells") == 3.0
        assert registry.counter("absent") == 0.0

    def test_timer_accumulates(self):
        registry = MetricsRegistry()
        registry.observe("phase", 0.5)
        registry.observe("phase", 1.5)
        snapshot = registry.snapshot()
        entry = snapshot["timers"]["phase"]
        assert entry["count"] == 2
        assert entry["total_s"] == pytest.approx(2.0)
        assert entry["min_s"] == pytest.approx(0.5)
        assert entry["max_s"] == pytest.approx(1.5)
        assert registry.timer_total("phase") == pytest.approx(2.0)

    def test_timer_context_manager_measures(self):
        registry = MetricsRegistry()
        with registry.timer("work"):
            pass
        assert registry.timer_total("work") >= 0.0
        assert registry.snapshot()["timers"]["work"]["count"] == 1

    def test_diff_snapshots_isolates_interval(self):
        registry = MetricsRegistry()
        registry.inc("n", 5)
        registry.observe("t", 1.0)
        before = registry.snapshot()
        registry.inc("n", 2)
        registry.observe("t", 0.25)
        delta = diff_snapshots(before, registry.snapshot())
        assert delta["counters"] == {"n": 2}
        assert delta["timers"]["t"]["count"] == 1
        assert delta["timers"]["t"]["total_s"] == pytest.approx(0.25)

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.inc("n")
        registry.observe("t", 1.0)
        registry.reset()
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {} and snapshot["timers"] == {}

    def test_series_quantiles_and_edge_cases(self):
        from repro.obs import quantile

        registry = MetricsRegistry()
        # Empty series: a well-defined value, not an IndexError.
        assert registry.percentile("absent", 0.5) == 0.0
        assert quantile([], 0.99) == 0.0
        # Single sample: every quantile is that sample.
        registry.record("lat", 7.0)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert registry.percentile("lat", q) == 7.0
        # Interpolation between samples, q clamped to [0, 1].
        registry.record("lat", 9.0)
        assert registry.percentile("lat", 0.5) == pytest.approx(8.0)
        assert registry.percentile("lat", -3.0) == 7.0
        assert registry.percentile("lat", 42.0) == 9.0
        assert registry.series("lat") == [7.0, 9.0]
        registry.reset()
        assert registry.series("lat") == []


def _window_record(index=0, **overrides):
    record = {
        "window_index": index,
        "measured_latency_us_per_byte": 24.0,
        "predicted_latency_us_per_byte": 20.0,
        "latency_residual_us_per_byte": 4.0,
        "measured_energy_uj_per_byte": 0.4,
        "predicted_energy_uj_per_byte": 0.35,
        "energy_residual_uj_per_byte": 0.05,
        "components": [
            {"kind": "path", "key": "c1",
             "residual_us_per_byte": 3.5, "score": 9.0},
            {"kind": "core", "key": "4",
             "residual_us_per_byte": 0.4, "score": 0.5},
        ],
        "unattributed_us_per_byte": 0.1,
        "violated": True,
        "anomalous": True,
        "attribution": {
            "kind": "path", "key": "c1", "score": 9.0,
            "residual_us_per_byte": 3.5, "confidence": 0.94,
        },
    }
    record.update(overrides)
    return record


def _session_payload(windows=None):
    return {
        "schema_version": 1,
        "label": "chaos:interconnect",
        "board": "Radxa RockPi 4a",
        "latency_constraint_us_per_byte": 33.0,
        "windows": windows if windows is not None else [_window_record()],
    }


class TestHealthSchema:
    def test_valid_session_passes(self):
        from repro.obs.check import validate_health

        assert validate_health(_session_payload()) == []

    def test_missing_field_rejected(self):
        from repro.obs.check import validate_health

        window = _window_record()
        del window["violated"]
        findings = validate_health(_session_payload([window]))
        assert any("violated" in f for f in findings)

    def test_extra_field_rejected(self):
        from repro.obs.check import validate_health

        findings = validate_health(
            _session_payload([_window_record(surprise=1)])
        )
        assert any("surprise" in f for f in findings)

    def test_non_finite_residual_rejected(self):
        from repro.obs.check import validate_health

        bad = _window_record(latency_residual_us_per_byte=float("nan"))
        findings = validate_health(_session_payload([bad]))
        assert findings
        assert any("finite" in f for f in findings)

    def test_unknown_component_kind_rejected(self):
        from repro.obs.check import validate_health

        window = _window_record()
        window["components"][0]["kind"] = "gremlin"
        findings = validate_health(_session_payload([window]))
        assert any("gremlin" in f for f in findings)

    def test_cli_health_mode(self, tmp_path, capsys):
        good = tmp_path / "health.json"
        good.write_text(json.dumps(_session_payload()))
        assert check_main(["--health", str(good)]) == 0
        bad = tmp_path / "bad.json"
        payload = _session_payload([_window_record(surprise=1)])
        bad.write_text(json.dumps(payload))
        assert check_main(["--health", str(bad)]) == 1
        capsys.readouterr()

    def test_cli_health_ndjson_lines(self, tmp_path, capsys):
        tail = tmp_path / "health.ndjson"
        tail.write_text(
            json.dumps(_window_record(0)) + "\n"
            + json.dumps(_window_record(1)) + "\n"
        )
        assert check_main(["--health", str(tail)]) == 0
        capsys.readouterr()


class TestHealthRoundTrip:
    def _session(self):
        from repro.obs import SessionHealth

        return SessionHealth.from_json(json.dumps(_session_payload(
            [_window_record(0),
             _window_record(1, anomalous=False, attribution=None,
                            violated=False)]
        )))

    def test_json_round_trip(self):
        from repro.obs import SessionHealth

        session = self._session()
        again = SessionHealth.from_json(session.to_json())
        assert again == session
        assert again.dominant().key == "c1"
        assert len(again.anomalous_windows()) == 1
        # Optional attribution round-trips both set and null
        assert again.windows[0].attribution is not None
        assert again.windows[1].attribution is None
        assert validate_health(json.loads(again.to_json())) == []

    def test_ndjson_round_trip(self, tmp_path):
        import io

        from repro.obs import NdjsonTail, read_ndjson

        session = self._session()
        buffer = io.StringIO()
        NdjsonTail(buffer).emit_session(session)
        windows = read_ndjson(buffer.getvalue().splitlines() + ["", "  "])
        assert tuple(windows) == session.windows

    def test_prometheus_text_exposes_session_and_registry(self):
        from repro.obs import prometheus_text

        registry = MetricsRegistry()
        registry.inc("cells", 3)
        registry.observe("phase", 0.5)
        text = prometheus_text(self._session(), registry)
        assert 'cstream_windows_total{session="chaos:interconnect"} 2' in text
        assert "cstream_windows_violated_total" in text
        assert 'kind="path",key="c1"' in text
        assert "cstream_registry_cells 3" in text
        assert "cstream_registry_phase_seconds_count 1" in text

    def test_render_top_lists_windows_and_verdict(self):
        from repro.obs import render_top

        session = self._session()
        text = render_top(session.windows, 33.0, limit=10)
        assert "degraded link c1" in text
        assert "VIOL" in text
        assert "windows=2 violated=1 anomalous=1" in text
