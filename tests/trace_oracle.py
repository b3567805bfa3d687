"""Dict-building reference for the Chrome trace export.

:func:`repro.obs.export.write_chrome_trace` renders each row's text from
cached pieces and builds no record dict. :func:`chrome_trace` builds the
same payload the plain way, one record per row of the recorder's
buffer, so tests can compare the written bytes with
``json.dumps(chrome_trace(...), default=repr)`` and check a live
recorder's stream with the verifier without writing a file.
"""

from typing import Any, Dict

from repro.analysis.verify import iter_chrome_events
from repro.obs.export import _metadata, _payload


def _record(row: tuple) -> Dict[str, Any]:
    """The ``traceEvents`` record of one row of the recorder's buffer."""
    name, phase, ts_us, pid, tid, dur_us, category, args = row
    record: Dict[str, Any] = {
        "name": name,
        "ph": phase,
        "ts": ts_us,
        "pid": pid,
        "tid": tid,
        "cat": category,
    }
    if phase == "X":
        record["dur"] = dur_us
    elif phase == "i":
        record["s"] = "t"  # thread-scoped instant
    if phase == "C":
        # Counter events draw their series from args.
        record["args"] = {"value": dict(args).get("value", 0)}
    elif args:
        record["args"] = dict(args)
    return record


def chrome_trace(recorder, board=None) -> Dict[str, Any]:
    """A recorder as a Chrome trace-event JSON object; arg values are as
    recorded (the written file has them through ``json.dumps(...,
    default=repr)``)."""
    rows = recorder._rows
    return _payload(recorder, [*_metadata(rows, board), *map(_record, rows)])


def recorder_events(recorder):
    """The verifier's normalized events of a recorder's export."""
    return iter_chrome_events(chrome_trace(recorder))
