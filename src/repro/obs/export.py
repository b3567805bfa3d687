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

:func:`write_chrome_trace` writes the bytes ``json.dumps`` gives for
the payload, but builds no record dict per row of the recorder's
buffer: it renders each row's text from cached pieces, with a per-file
memo of float text (DESIGN.md, trace row buffer).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from repro.obs.trace import (
    TID_GOVERNOR,
    TID_OS_SCHED,
    TID_RUNTIME,
    TraceRecorder,
)

__all__ = ["write_chrome_trace"]

_SYNTHETIC_TRACKS = {
    TID_GOVERNOR: "dvfs governor",
    TID_OS_SCHED: "os scheduler",
    TID_RUNTIME: "runtime",
}

#: rows per write in :func:`write_chrome_trace`; picked by peak RSS of
#: the ``traced`` benchmark (DESIGN.md, trace row buffer)
_CHUNK = 512

#: ``json.dumps(obj, default=repr)`` without building an encoder per call
_ENCODER = json.JSONEncoder(default=repr)


def _metadata(rows, board=None) -> Iterator[Dict[str, Any]]:
    """The ``M`` metadata records naming every process and thread."""
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


def _prefixes(name, phase: str, category) -> Tuple[str, str]:
    """The fixed text of a row around its ``ts``/``pid``/``tid``: the
    head up to the ``ts`` value, and the ``cat`` field plus whatever
    the phase puts after it up to its trailing number (``dur`` of a
    span, ``value`` of a counter) or its ``args``."""
    head = (
        f'{{"name": {json.dumps(name, default=repr)}, '
        f'"ph": {json.dumps(phase, default=repr)}, "ts": '
    )
    cat = f', "cat": {json.dumps(category, default=repr)}'
    if phase == "X":
        cat += ', "dur": '
    elif phase == "i":
        cat += ', "s": "t"'
    elif phase == "C":
        cat += ', "args": {"value": '
    return head, cat


class _RowRenderer:
    """Renders buffer rows as the text ``json.dumps(record,
    default=repr)`` would give for the row's ``traceEvents`` record,
    from cached text.

    The record's keys are ``name``, ``ph``, ``ts``, ``pid``, ``tid`` and
    ``cat``, then ``dur`` for a span, ``"s": "t"`` for an instant, and
    the args: a counter's are ``{"value": ...}`` alone (0 if it has
    none), any other row's as recorded, omitted when empty. The
    ``name``/``ph``/``cat`` text is built once per distinct
    ``(name, phase, category)``; an exact ``int`` is ``int.__repr__``;
    a finite exact ``float`` is ``float.__repr__``, memoized per file
    except zero (``0.0 == -0.0``, so one key would give both the same
    text). A value of any other type (``bool``, NaN or infinity, numpy
    scalars, ...) goes through ``json.dumps`` alone; so do a row's
    non-counter args, once per row."""

    def __init__(self) -> None:
        self._prefixes: Dict[tuple, Tuple[str, str]] = {}
        self._floats: Dict[float, str] = {}

    def _number(self, value) -> str:
        """The JSON text of a rendered value."""
        kind = type(value)
        if kind is float:
            text = self._floats.get(value)
            if text is None:
                if value - value != 0.0:  # NaN or infinity
                    return _ENCODER.encode(value)
                text = float.__repr__(value)
                if value:
                    self._floats[value] = text
            return text
        if kind is int:
            return int.__repr__(value)
        return _ENCODER.encode(value)

    def render(self, rows: Sequence[tuple]) -> List[str]:
        prefixes = self._prefixes
        floats = self._floats
        number = self._number
        encode = _ENCODER.encode
        texts = []
        append = texts.append
        for row in rows:
            name, phase, ts_us, pid, tid, dur_us, category, args = row
            key = (name, phase, category)
            parts = prefixes.get(key)
            if parts is None:
                parts = _prefixes(name, phase, category)
                # a str key never equals another type's key, where 1,
                # 1.0 and True would share one entry
                if type(name) is type(phase) is type(category) is str:
                    prefixes[key] = parts
            head, cat = parts
            # the memo hit inline, _number for the rest
            ts = floats.get(ts_us) if type(ts_us) is float else None
            if ts is None:
                ts = number(ts_us)
            if phase == "X":
                last = floats.get(dur_us) if type(dur_us) is float else None
                if last is None:
                    last = number(dur_us)
            elif phase == "C":
                if len(args) == 1 and args[0][0] == "value":
                    value = args[0][1]
                else:
                    value = dict(args).get("value", 0)
                last = floats.get(value) if type(value) is float else None
                if last is None:
                    last = number(value)
            else:
                last = ""
            if type(pid) is not int:
                pid = encode(pid)
            if type(tid) is not int:
                tid = encode(tid)
            if phase == "C":
                tail = "}}"
            elif args:
                tail = f', "args": {encode(dict(args))}}}'
            else:
                tail = "}"
            append(f'{head}{ts}, "pid": {pid}, "tid": {tid}{cat}{last}{tail}')
        return texts


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


def write_chrome_trace(recorder: TraceRecorder, path: str, board=None) -> str:
    """Write the recorder to ``path`` as Chrome trace JSON; returns path.

    The bytes are those of ``json.dump(payload, default=repr)`` for the
    payload holding every row's record, but no record dict is built for
    a row: :class:`_RowRenderer` writes its text from cached pieces
    (DESIGN.md, trace row buffer). Rows go out in runs of
    :data:`_CHUNK` joined with ``", "``, after the metadata records, so
    the text of the whole event list is never held at once."""
    # the payload with an empty event list, cut where the events go
    head, tail = json.dumps(_payload(recorder, [])).split("[]", 1)
    rows = recorder._rows
    renderer = _RowRenderer()
    with open(path, "w", encoding="utf-8") as sink:
        sink.write(head + "[")
        # never empty: there is a process_name record even without rows
        sink.write(", ".join(map(_ENCODER.encode, _metadata(rows, board))))
        for start in range(0, len(rows), _CHUNK):
            sink.write(", ")
            sink.write(", ".join(renderer.render(rows[start:start + _CHUNK])))
        sink.write("]" + tail + "\n")
    return path
