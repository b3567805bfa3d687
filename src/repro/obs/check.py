"""Validate exported trace files and health reports.

The checker for the Chrome trace-event JSON written by
:func:`repro.obs.export.write_chrome_trace` and for the session and
fleet health reports of :mod:`repro.obs.health` — CI runs it on the
traced smoke cell and on the chaos and fleet health artifacts before
uploading them::

    python -m repro.obs.check trace.json
    python -m repro.obs.check --health health.json
    python -m repro.obs.check --health health.ndjson

``--health`` accepts a full ``SessionHealth`` or ``FleetHealth`` JSON
document or an NDJSON tail of per-window records. Exit status 0 means
the file is valid, 1 lists every violation found (or says the file is
unreadable), 2 is a usage error. The health schema is derived from the
report dataclasses (:func:`repro.obs.health.schema_problems`). The
trace checks come in two layers:

* **schema** — what Perfetto and ``chrome://tracing`` require to render
  the file: known phases, numeric non-negative timestamps/durations,
  integer pid/tid, args of the right shape per phase;
* **stream invariants** — delegated to
  :func:`repro.analysis.verify.verify_chrome_payload` so the two tools
  cannot drift: per-track non-decreasing timestamps, monotone energy
  counters, non-overlapping spans (``TRC001``-``TRC007``). Only
  error-severity findings fail validation; warnings (e.g. ``TRC004``
  same-timestamp counter pairs) are the verifier CLI's business.
"""

from __future__ import annotations

import json
import numbers
import sys
from typing import Any, List

from repro.analysis.verify import (
    errors_only,
    verify_chrome_payload,
    verify_fleet_health,
    verify_health,
)
from repro.obs.health import (
    FLEET_HEALTH_SCHEMA_VERSION,
    FleetHealth,
    SessionHealth,
    WindowHealth,
    read_report,
    schema_problems,
)

__all__ = [
    "validate_trace",
    "validate_health",
    "validate_fleet_health",
    "main",
]

#: phases the exporter emits (subset of the full trace-event spec)
_KNOWN_PHASES = {"X", "i", "C", "M"}
_METADATA_NAMES = {"process_name", "thread_name"}


def _check_event(index: int, event: Any, problems: List[str]) -> None:
    where = f"traceEvents[{index}]"
    if not isinstance(event, dict):
        problems.append(f"{where}: not an object")
        return
    name = event.get("name")
    if not isinstance(name, str) or not name:
        problems.append(f"{where}: missing/empty 'name'")
    phase = event.get("ph")
    if phase not in _KNOWN_PHASES:
        problems.append(f"{where}: unknown phase {phase!r}")
        return
    for key in ("pid", "tid"):
        if not isinstance(event.get(key), int):
            problems.append(f"{where}: '{key}' must be an integer")
    if phase == "M":
        if name not in _METADATA_NAMES:
            problems.append(f"{where}: unexpected metadata event {name!r}")
        args = event.get("args")
        if not isinstance(args, dict) or not isinstance(args.get("name"), str):
            problems.append(f"{where}: metadata needs args.name string")
        return
    ts = event.get("ts")
    if not isinstance(ts, numbers.Real) or isinstance(ts, bool) or ts < 0:
        problems.append(f"{where}: 'ts' must be a non-negative number")
    if phase == "X":
        dur = event.get("dur")
        if (
            not isinstance(dur, numbers.Real)
            or isinstance(dur, bool)
            or dur < 0
        ):
            problems.append(f"{where}: complete event needs 'dur' >= 0")
    if phase == "C":
        args = event.get("args")
        if not isinstance(args, dict) or not args:
            problems.append(f"{where}: counter event needs non-empty args")
        elif not all(
            isinstance(value, numbers.Real) and not isinstance(value, bool)
            for value in args.values()
        ):
            problems.append(f"{where}: counter args must be numeric")
    if phase == "i" and event.get("s") not in (None, "t", "p", "g"):
        problems.append(f"{where}: instant scope must be one of t/p/g")


def _errors(findings) -> List[str]:
    return [finding.format() for finding in errors_only(findings)]


def validate_trace(payload: Any) -> List[str]:
    """All schema violations in a parsed trace object (empty = valid)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["top level: expected an object with 'traceEvents'"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["top level: 'traceEvents' must be an array"]
    if not events:
        problems.append("top level: 'traceEvents' is empty")
    for index, event in enumerate(events):
        _check_event(index, event, problems)
    if not any(
        isinstance(e, dict) and e.get("ph") not in (None, "M") for e in events
    ):
        problems.append("top level: no non-metadata events recorded")
    return problems + _errors(verify_chrome_payload(payload))


def validate_fleet_health(payload: Any) -> List[str]:
    """All schema violations in a parsed fleet health report (v2).

    Schema problems first; when the shape is sound the fleet invariants
    (``FLT001``-``FLT005``) are delegated to
    :func:`repro.analysis.verify.verify_fleet_health`.
    """
    return schema_problems(FleetHealth, payload) or _errors(
        verify_fleet_health(payload))


def validate_health(payload: Any) -> List[str]:
    """All schema violations in a parsed health report (empty = valid).

    Accepts a full session report (object with ``windows``), a single
    per-window NDJSON record, or a fleet report — dispatched on
    ``schema_version`` 2. The schema is the one
    :func:`repro.obs.health.schema_problems` derives from the report
    dataclasses; when the shape is sound the arithmetic invariants
    (``HLT001``-``HLT003``, or ``FLT001``-``FLT005`` for fleet reports)
    are delegated to :mod:`repro.analysis.verify` so the two tools
    cannot drift.
    """
    if not isinstance(payload, dict):
        return schema_problems(SessionHealth, payload)
    if payload.get("schema_version") == FLEET_HEALTH_SCHEMA_VERSION:
        return validate_fleet_health(payload)
    if "windows" not in payload:
        # A lone NDJSON window record.
        return schema_problems(WindowHealth, payload) or _errors(
            verify_health({"windows": [payload]}))
    return schema_problems(SessionHealth, payload) or _errors(
        verify_health(payload))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    health_mode = "--health" in argv
    if health_mode:
        argv.remove("--health")
    if len(argv) != 1:
        print(
            "usage: python -m repro.obs.check [--health] FILE.json",
            file=sys.stderr,
        )
        return 2
    path = argv[0]
    try:
        payload = read_report(path)
    except (OSError, json.JSONDecodeError) as error:
        what = "health report" if health_mode else "trace"
        print(f"{path}: unreadable {what}: {error}", file=sys.stderr)
        return 1
    if not health_mode:
        problems = validate_trace(payload)
    elif isinstance(payload, list):
        problems = [
            f"line {index + 1}: {problem}"
            for index, record in enumerate(payload)
            for problem in validate_health(record)
        ]
    else:
        problems = validate_health(payload)
    if problems:
        for problem in problems:
            print(f"{path}: {problem}", file=sys.stderr)
        print(f"{path}: INVALID ({len(problems)} problems)", file=sys.stderr)
        return 1
    if not health_mode:
        print(f"{path}: OK ({len(payload['traceEvents'])} events)")
    else:
        windows = payload if isinstance(payload, list) else payload["windows"]
        print(f"{path}: OK ({len(windows)} windows)")
    return 0

if __name__ == "__main__":
    sys.exit(main())
