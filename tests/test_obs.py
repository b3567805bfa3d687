"""Unit tests for the observability package (repro.obs).

Recorder aggregation, Chrome trace export, the schema checks the
artifact checker (repro.analysis.verify) makes on traces and health
reports, and the live telemetry exports.
"""

import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import export
from repro.obs import (
    TraceRecorder,
    active_recorder,
    chrome_trace,
    set_active_recorder,
    write_chrome_trace,
)
from repro.analysis.verify import (
    errors_only,
    verify_chrome_payload,
    verify_health,
)
from repro.analysis.verify import main as verify_main
from repro.obs.trace import TID_GOVERNOR, TID_OS_SCHED, TID_RUNTIME
from repro.simcore.boards import rk3399


def small_recorder() -> TraceRecorder:
    """A hand-driven recorder standing in for one 2-batch repetition."""
    recorder = TraceRecorder()
    recorder.begin_repetition(0)
    # Emission order follows simulated time per track, as the DES would
    # produce it — repro.analysis.verify checks this (TRC001) on every
    # exported trace.
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
        assert errors_only(verify_chrome_payload(payload)) == []


def _instants(count: int) -> TraceRecorder:
    recorder = TraceRecorder()
    for index in range(count):
        recorder.batch_complete(index, float(index))
    return recorder


#: values the renderer writes itself (ts, dur, a counter's value) must
#: match json.dumps, whether it takes its fast path or falls back
_NUMBERS = st.one_of(
    st.sampled_from([
        0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e22,
        0, 1, 1.0, -1, 2**63, 2**64 + 1, -(2**63) - 1, True, False,
        np.float64(1.0), np.float64(-0.0), np.float64(math.nan),
        np.int64(1), np.int64(-7),
    ]),
    st.floats(),
    st.integers(),
)
_TEXTS = st.one_of(
    st.sampled_from(['"', "\\", '\\"q\\"', "\x00\x1f\n\t", "é", "☃", "\ud800",
                     "\U0001f600", "compress"]),
    st.text(max_size=6),
)
#: names and categories are str from every recorder hook; others (1,
#: 1.0 and True are one dict key) must still render as json.dumps does
_NAMES = st.one_of(_TEXTS, st.sampled_from([1, 1.0, True, 0.0, -0.0]))
_ARG_VALUES = st.one_of(
    _NUMBERS,
    _TEXTS,
    st.none(),
    st.tuples(_NUMBERS, st.tuples(_NUMBERS, _TEXTS)),
    st.tuples(),
)
_ARGS = st.lists(st.tuples(_TEXTS, _ARG_VALUES), max_size=3).map(tuple)
_COUNTER_ARGS = st.one_of(
    _NUMBERS.map(lambda value: (("value", value),)),
    _ARGS,
    st.tuples(st.tuples(st.just("extra"), _ARG_VALUES),
              st.tuples(st.just("value"), _NUMBERS)),
)
_TIDS = st.one_of(
    st.integers(0, 5), st.sampled_from([TID_RUNTIME, True, np.int64(2)])
)


@st.composite
def _row(draw):
    """One recorder row (TraceEvent field order) of any phase."""
    phase = draw(st.sampled_from(["X", "i", "C", "M"]))
    return (
        draw(_NAMES), phase, draw(_NUMBERS), draw(_TIDS), draw(_TIDS),
        draw(_NUMBERS), draw(_NAMES),
        draw(_COUNTER_ARGS if phase == "C" else _ARGS),
    )


#: one row of each shape the renderer treats apart
_MIXED_ROWS = [
    ("compress", "X", 1.5, 0, 1, 0.0, "task", (("batch", 3),)),
    ("compress", "X", 2.5, 0, 1, -0.0, "task", ()),
    ("q.s1r0.p0", "C", 0.0, 0, TID_RUNTIME, 0.0, "queue", (("value", 2),)),
    ("energy.busy", "C", -0.0, 0, TID_RUNTIME, 0.0, "energy",
     (("value", -0.0),)),
    ("energy.busy", "C", 3.0, 0, TID_RUNTIME, 0.0, "energy",
     (("value", 0.0),)),
    ("batch-complete", "i", 1e16, 1, TID_RUNTIME, 0.0, "pipeline",
     (("batch", True),)),
    ("fault-\"x\"", "i", math.nan, 1, 2, 0.0, "fault", ()),
    ("context_switches", "C", 5e-324, 1, 2, 0.0, "os",
     (("value", np.float64(2.5)),)),
    ("context_switches", "C", 1.0, 1, 2, 0.0, "os", (("value", True),)),
    ("q.s1r0.p0", "C", 1, 1, 2, 0.0, "queue", (("value", 1),)),
    ("ctx-switch", "X", 1e22, 1, 2, math.inf, "task", (("pair", (1, (2,))),)),
]


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

    # one repetition on one track: two metadata records, then instants
    # just short of one chunk
    @pytest.mark.parametrize(
        "rows", [export._CHUNK - 2, export._CHUNK - 1], ids=["one", "one+1"]
    )
    def test_chunk_boundaries(self, rows, tmp_path):
        recorder = _instants(rows)
        text = self._written(recorder, tmp_path)
        assert text == self._dumped(recorder)
        assert len(json.loads(text)["traceEvents"]) == rows + 2

    @pytest.mark.parametrize("rows", [0, 511, 512, 513, 1025])
    def test_row_chunks_of_mixed_rows(self, rows, tmp_path):
        # the fixed rows again and again, so the float memo carries
        # across chunks (0.0 and -0.0 on both sides of every boundary)
        recorder = TraceRecorder()
        recorder._rows = [
            _MIXED_ROWS[index % len(_MIXED_ROWS)] for index in range(rows)
        ]
        text = self._written(recorder, tmp_path)
        assert text == self._dumped(recorder)
        events = json.loads(text)["traceEvents"]
        assert sum(1 for event in events if event["ph"] != "M") == rows

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(_row(), max_size=24))
    def test_rendered_rows_equal_json_dumps(self, rows, tmp_path_factory):
        recorder = TraceRecorder()
        recorder._rows = rows
        written = self._written(recorder, tmp_path_factory.getbasetemp())
        assert written == self._dumped(recorder)

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


def _trace_errors(payload):
    return [f.format() for f in errors_only(verify_chrome_payload(payload))]


class TestChecker:
    def test_accepts_good_trace(self):
        assert _trace_errors(chrome_trace(small_recorder())) == []

    def test_rejects_missing_events(self):
        assert _trace_errors({}) != []
        assert _trace_errors({"traceEvents": []}) != []

    def test_rejects_unknown_phase(self):
        payload = chrome_trace(small_recorder())
        payload["traceEvents"][0] = dict(
            payload["traceEvents"][0], ph="Z"
        )
        assert any("phase" in p for p in _trace_errors(payload))

    def test_rejects_complete_event_without_duration(self):
        bad = {
            "traceEvents": [
                {"name": "t", "ph": "X", "ts": 0, "pid": 0, "tid": 0}
            ]
        }
        assert any("dur" in p for p in _trace_errors(bad))

    def test_cli_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        write_chrome_trace(small_recorder(), good)
        assert verify_main([str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": []}')
        assert verify_main([str(bad)]) == 1
        assert verify_main([str(tmp_path / "absent.json")]) == 2
        with pytest.raises(SystemExit) as usage:
            verify_main([])
        assert usage.value.code == 2
        capsys.readouterr()


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


def _health_errors(payload):
    return [f.format() for f in verify_health(payload)]


class TestHealthSchema:
    def test_valid_session_passes(self):
        assert verify_health(_session_payload()) == []

    def test_missing_field_rejected(self):
        window = _window_record()
        del window["violated"]
        findings = _health_errors(_session_payload([window]))
        assert any("violated" in f for f in findings)

    def test_extra_field_rejected(self):
        findings = _health_errors(
            _session_payload([_window_record(surprise=1)])
        )
        assert any("surprise" in f for f in findings)

    def test_non_finite_residual_rejected(self):
        bad = _window_record(latency_residual_us_per_byte=float("nan"))
        findings = _health_errors(_session_payload([bad]))
        assert findings
        assert any("finite" in f for f in findings)

    def test_unknown_component_kind_rejected(self):
        window = _window_record()
        window["components"][0]["kind"] = "gremlin"
        findings = _health_errors(_session_payload([window]))
        assert any("gremlin" in f for f in findings)

    def test_cli_health_mode(self, tmp_path, capsys):
        good = tmp_path / "health.json"
        good.write_text(json.dumps(_session_payload()))
        assert verify_main([str(good)]) == 0
        bad = tmp_path / "bad.json"
        payload = _session_payload([_window_record(surprise=1)])
        bad.write_text(json.dumps(payload))
        assert verify_main([str(bad)]) == 1
        capsys.readouterr()

    def test_cli_health_ndjson_lines(self, tmp_path, capsys):
        tail = tmp_path / "health.ndjson"
        tail.write_text(
            json.dumps(_window_record(0)) + "\n"
            + json.dumps(_window_record(1)) + "\n"
        )
        assert verify_main([str(tail)]) == 0
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
        assert verify_health(json.loads(again.to_json())) == []

    def test_ndjson_round_trip(self, tmp_path):
        from repro.obs import NdjsonTail, WindowHealth
        from repro.obs.health import TailHeader, from_record, read_artifact

        session = self._session()
        tail = tmp_path / "health.ndjson"
        with open(tail, "w", encoding="utf-8") as stream:
            NdjsonTail(stream).emit_session(session)
            stream.write("\n  \n")  # blank lines are skipped
        kind, records = read_artifact(str(tail))
        assert kind == "tail"
        assert from_record(TailHeader, records.header) == session.header()
        windows = [
            from_record(WindowHealth, record) for record in records.windows
        ]
        assert tuple(windows) == session.windows
        assert verify_health(records) == []

    def test_header_only_tail(self, tmp_path):
        from repro.obs import NdjsonTail
        from repro.obs.health import Tail, read_artifact

        session = self._session()
        empty = type(session)(
            session.label, session.board,
            session.latency_constraint_us_per_byte, (),
        )
        tail = tmp_path / "health.ndjson"
        with open(tail, "w", encoding="utf-8") as stream:
            NdjsonTail(stream).emit_session(empty)
        kind, records = read_artifact(str(tail))
        assert (kind, records) == ("tail", Tail(
            {"board": session.board, "label": session.label,
             "latency_constraint_us_per_byte":
                 session.latency_constraint_us_per_byte},
            [],
        ))
        assert verify_health(records) == []

    def test_tail_header_schema_is_hlt003(self, tmp_path, capsys):
        header = {"label": "s", "board": "b",
                  "latency_constraint_us_per_byte": float("nan")}
        tail = tmp_path / "health.ndjson"
        tail.write_text(
            json.dumps(header) + "\n" + json.dumps(_window_record(0)) + "\n"
        )
        assert verify_main([str(tail)]) == 1
        out = capsys.readouterr().out
        assert "HLT003" in out and "header.latency_constraint" in out

    @pytest.mark.parametrize("text", ["not json {\n", '{"a": 1}\n[2]\n'])
    def test_unparseable_artifact_names_its_path(self, tmp_path, text):
        from repro.errors import ArtifactError
        from repro.obs.health import read_artifact

        path = tmp_path / "junk.txt"
        path.write_text(text)
        with pytest.raises(ArtifactError, match="junk.txt"):
            read_artifact(str(path))

    def test_prometheus_text_exposes_session(self):
        from repro.obs import prometheus_text

        text = prometheus_text(self._session())
        assert 'cstream_windows_total{session="chaos:interconnect"} 2' in text
        assert "cstream_windows_violated_total" in text
        assert 'kind="path",key="c1"' in text

    def test_render_top_lists_windows_and_verdict(self):
        from repro.obs import render_top

        session = self._session()
        text = render_top(session, limit=10)
        assert "degraded link c1" in text
        assert "VIOL" in text
        assert "windows=2 violated=1 anomalous=1" in text
