"""Chrome trace-event / Perfetto JSON export.

The exported file follows the "JSON Array Format with metadata" of the
Trace Event Format spec: a top-level object with ``traceEvents`` (the
event array), ``displayTimeUnit`` and an ``otherData`` bag carrying the
run's :class:`~repro.obs.trace.TraceSummary`. Open it at
https://ui.perfetto.dev or ``chrome://tracing``.

Mapping choices:

* event timestamps are simulated microseconds, which is exactly the
  unit the format expects (``ts``/``dur`` are µs);
* each repetition is one *process* (``pid``), named via ``M`` metadata
  events, so repeated measurements stack as separate process groups;
* each core is one *thread* (``tid``) named from the board spec
  (``core 4 A72 (big)``); synthetic tracks (governor, OS scheduler,
  runtime) get names too.
"""

from __future__ import annotations

import json
from itertools import islice
from typing import Any, Dict, Iterator

from repro.obs.trace import (
    TID_GOVERNOR,
    TID_OS_SCHED,
    TID_RUNTIME,
    TraceRecorder,
)

__all__ = ["chrome_trace", "write_chrome_trace"]

_SYNTHETIC_TRACKS = {
    TID_GOVERNOR: "dvfs governor",
    TID_OS_SCHED: "os scheduler",
    TID_RUNTIME: "runtime",
}

#: records per ``json.dumps`` call in :func:`write_chrome_trace`; picked
#: by peak RSS of the ``traced`` benchmark (DESIGN.md, trace row buffer)
_CHUNK = 512


def _records(recorder: TraceRecorder, board=None) -> Iterator[Dict[str, Any]]:
    """The ``traceEvents`` records: the ``M`` metadata naming every
    process and thread, then one dict per row of the recorder's buffer."""
    rows = recorder._rows
    pids = sorted({row[3] for row in rows}) or [0]
    tids = sorted({row[4] for row in rows})

    thread_names = dict(_SYNTHETIC_TRACKS)
    if board is not None:
        for core in board.cores:
            kind = "big" if core.is_big else "little"
            thread_names[core.core_id] = (
                f"core {core.core_id} {core.model} ({kind})"
            )

    for pid in pids:
        yield {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": f"repetition {pid}"},
        }
        for tid in tids:
            yield {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": thread_names.get(tid, f"track {tid}")},
            }

    for name, phase, ts_us, pid, tid, dur_us, category, args in rows:
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
        yield record


def _payload(recorder: TraceRecorder, events) -> Dict[str, Any]:
    summary = recorder.summary()
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "context_switches_per_mb": summary.context_switches_per_mb,
            "migrations": summary.migrations,
            "dvfs_transitions": summary.dvfs_transitions,
            "queue_depth_highwater": summary.queue_depth_highwater,
            "repetitions": summary.repetitions,
            "bytes_processed": summary.bytes_processed,
        },
    }


def chrome_trace(recorder: TraceRecorder, board=None) -> Dict[str, Any]:
    """Render a recorder as a Chrome trace-event JSON object.

    Arg values are as recorded; the file :func:`write_chrome_trace`
    writes is this object through ``json.dumps(..., default=repr)``
    (tuples become lists, values JSON cannot hold their ``repr``)."""
    return _payload(recorder, list(_records(recorder, board)))


def write_chrome_trace(recorder: TraceRecorder, path: str, board=None) -> str:
    """Write the recorder to ``path`` as Chrome trace JSON; returns path.

    The bytes are those of ``json.dump(chrome_trace(...), default=repr)``,
    but the events go through the C encoder of ``json.dumps``
    (``json.dump`` only has the pure-Python one) in chunks of
    :data:`_CHUNK` records, so the full list of event dicts is never
    built."""
    # the payload with an empty event list, cut where the events go
    head, tail = json.dumps(_payload(recorder, [])).split("[]", 1)
    records = _records(recorder, board)
    with open(path, "w", encoding="utf-8") as sink:
        sink.write(head + "[")
        separator = ""
        while True:
            chunk = list(islice(records, _CHUNK))
            if not chunk:
                break
            sink.write(separator)
            sink.write(json.dumps(chunk, default=repr)[1:-1])
            separator = ", "
        sink.write("]" + tail + "\n")
    return path
