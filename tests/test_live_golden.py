"""Byte-for-byte pins of ``cstream top`` and its Prometheus exposition.

``tests/golden/live/`` holds health reports (inputs, ``*.health.*``)
and the dashboard (``*.top.txt``) and exposition (``*.prom``) that
``cstream top REPORT --prom FILE`` printed for them when the pins were
captured. The reports cover a session with an attribution, a ``VIOL``
and an ``edge`` window; the NDJSON tail ``cstream chaos --scenario
interconnect --health-out`` wrote (labelled and judged by its header
line); a session and a fleet with no windows (the fleet label
carries ``"`` and ``\\`` to pin the label escaping); a ``board-throttle``
fleet run with a throttled board, a half-open breaker and a queued
tenant; and a ``board-crash-reboot`` run with a dead board.

The pins go through the CLI so that they hold whatever the renderers
are called. Never regenerate them to make this file pass: a diff here
is a change to what an operator sees or a scraper parses.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden" / "live"

#: (report, --limit or None for the default, expected dashboard)
CASES = [
    ("session.health.json", None, "session.top.txt"),
    ("session.health.json", 2, "session.limit2.top.txt"),
    ("chaos.health.ndjson", None, "chaos.top.txt"),
    ("empty.health.json", None, "empty.top.txt"),
    ("fleet-throttle.health.json", None, "fleet-throttle.top.txt"),
    ("fleet-crash.health.json", None, "fleet-crash.top.txt"),
    ("fleet-crash.health.json", 2, "fleet-crash.limit2.top.txt"),
    ("fleet-empty.health.json", None, "fleet-empty.top.txt"),
]

def test_session_tail_renders_as_the_session(tmp_path, capsys):
    """The session report written as an NDJSON tail (header line, then
    one line per window) renders what the report does: the same slo
    column, ``edge`` window included, and the same exposition."""
    from repro.obs import NdjsonTail, SessionHealth

    session = _report(SessionHealth, "session.health.json")
    tail = tmp_path / "session.health.ndjson"
    with open(tail, "w", encoding="utf-8") as stream:
        NdjsonTail(stream).emit_session(session)
    prom = tmp_path / "out.prom"
    assert main(["top", str(tail), "--prom", str(prom)]) == 0
    dashboard = capsys.readouterr().out
    assert [line[38:42] for line in dashboard.splitlines()[2:7]] == [
        "VIOL", "edge", "  ok", "  ok", "VIOL"
    ]
    assert dashboard == _expected("session.top.txt")
    assert prom.read_text(encoding="utf-8") == _expected("session.prom")


_LABEL = r'[a-z_]+="(?:[^"\\\n]|\\[\\"n])*"'
_SAMPLE = re.compile(
    rf"^(?P<name>[a-z_]+)\{{{_LABEL}(?:,{_LABEL})*\}} (?P<value>\S+)$"
)


def _expected(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def _report(kind, name: str):
    """The golden health report ``name`` rebuilt as ``kind``."""
    from repro.obs.health import from_record

    return from_record(kind, json.loads(_expected(name)))


@pytest.mark.parametrize("report,limit,dashboard", CASES)
def test_top_matches_golden(tmp_path, capsys, report, limit, dashboard):
    prom = tmp_path / "out.prom"
    argv = ["top", str(GOLDEN / report), "--prom", str(prom)]
    if limit is not None:
        argv += ["--limit", str(limit)]
    assert main(argv) == 0
    assert capsys.readouterr().out == _expected(dashboard)
    stem = report.split(".health.")[0]
    assert prom.read_text(encoding="utf-8") == _expected(f"{stem}.prom")


def check_exposition(text: str) -> None:
    """Every family is ``# HELP``, ``# TYPE`` and then its samples, once;
    every sample line is ``name{labels} value`` with a numeric value."""
    assert text.endswith("\n")
    lines = text[:-1].split("\n")
    seen = set()
    family = None
    index = 0
    while index < len(lines):
        line = lines[index]
        if line.startswith("# HELP "):
            family = line.split(" ")[2]
            assert family not in seen, f"family {family} repeated"
            seen.add(family)
            kind = lines[index + 1]
            assert kind in (f"# TYPE {family} gauge",
                            f"# TYPE {family} counter"), kind
            index += 2
            continue
        match = _SAMPLE.match(line)
        assert match, f"malformed sample line {line!r}"
        assert match["name"] == family, f"{line!r} outside its family"
        float(match["value"])
        index += 1


@pytest.mark.parametrize(
    "prom", sorted(path.name for path in GOLDEN.glob("*.prom"))
)
def test_golden_exposition_grammar(prom):
    check_exposition(_expected(prom))


def test_label_line_feeds_are_escaped():
    """A line feed in a label value (an NDJSON tail's file name, a
    fleet label) is written ``\\n``: every sample stays on one line."""
    import dataclasses

    from repro.obs.health import FleetHealth, SessionHealth
    from repro.obs.live import prometheus_text

    session = _report(SessionHealth, "session.health.json")
    text = prometheus_text(dataclasses.replace(session, label="a\nb"))
    check_exposition(text)
    assert 'cstream_windows_total{session="a\\nb"} 5\n' in text
    fleet = _report(FleetHealth, "fleet-crash.health.json")
    check_exposition(prometheus_text(dataclasses.replace(fleet, label="\n")))
