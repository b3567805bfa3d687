"""Live telemetry: NDJSON tail, Prometheus-style exposition, dashboard.

Three export surfaces over the health reports of :mod:`repro.obs.health`:

* :class:`NdjsonTail` — appends one JSON object per line to a file: a
  session's :class:`~repro.obs.health.TailHeader` (label, board and
  ``L_set``) first, then one object per window as the session runs;
  ``cstream top FILE`` tails it back, labelled and judged as the full
  report would be. NDJSON is the exchange format: the same lines read
  back with :func:`repro.obs.health.read_artifact` as a
  :class:`~repro.obs.health.Tail` and round-trip into
  :class:`~repro.obs.health.WindowHealth` via
  :func:`~repro.obs.health.from_record`.
* :func:`prometheus_text` — the latest state of a session or a fleet in
  the Prometheus text exposition format, for scraping off a file or
  one-shot endpoint. One table of metric families per report type
  (name, type, help, and the samples read off the report) drives one
  renderer.
* :func:`render_top` — the ``cstream top`` terminal dashboard of a
  session (window rows and a verdict footer) or a fleet (board and
  tenant tables of the last window, then the event tail), laid out
  from column tables (title, format spec, getter).

Everything here is pull/append-only and allocation-light; none of it is
imported by the runtime unless telemetry is switched on, preserving the
zero-overhead-when-off contract.
"""

from __future__ import annotations

import json
from typing import (
    IO, Any, Callable, Iterable, List, NamedTuple, Optional, Sequence,
    Tuple, Union,
)

from repro.obs.health import (
    FleetHealth,
    SessionHealth,
    TailHeader,
    WindowHealth,
    to_record,
)

__all__ = [
    "NdjsonTail",
    "prometheus_text",
    "render_top",
]

Report = Union[SessionHealth, FleetHealth]


class NdjsonTail:
    """Append-only NDJSON writer for a session's health records."""

    def __init__(self, stream: IO[str]) -> None:
        self._stream = stream

    def emit(self, record: Union[TailHeader, WindowHealth]) -> None:
        self._stream.write(
            json.dumps(to_record(record), sort_keys=True) + "\n"
        )
        self._stream.flush()

    def emit_session(self, health: SessionHealth) -> None:
        """The header line, then one line per window."""
        self.emit(health.header())
        for window in health.windows:
            self.emit(window)


# -- exposition ---------------------------------------------------------------


class _Family(NamedTuple):
    name: str
    kind: str  # "gauge" or "counter"
    help: str
    #: report -> [(labels after the report's own, value)], or None to
    #: leave the family out
    samples: Callable[[Any], Optional[List[Tuple[tuple, float]]]]


def _whole(value: Callable[[Any], float]) -> Callable[[Any], Any]:
    return lambda report: [((), value(report))]


def _latest(value: Callable[[Any], float]) -> Callable[[Any], Any]:
    return lambda report: (
        [((), value(report.windows[-1]))] if report.windows else None
    )


def _each(rows: str, label: str, value: Callable[[Any], float],
          running_only: bool = False) -> Callable[[Any], Any]:
    """One sample per board or tenant of the last window, by name."""

    def samples(report: FleetHealth) -> Any:
        if not report.windows:
            return None
        return [
            (((label, row.name),), value(row))
            for row in getattr(report.windows[-1], rows)
            if not running_only or row.state == "running"
        ]

    return samples


def _dominant(report: SessionHealth) -> Any:
    top = report.dominant()
    if top is None:
        return None
    return [((("kind", top.kind), ("key", top.key)), top.score)]


def _count(report: Any, flag: str) -> int:
    return sum(1 for window in report.windows if getattr(window, flag))


_BREAKER_VALUE = {"closed": 0.0, "half-open": 0.5, "open": 1.0}

_SESSION_FAMILIES = (
    _Family("cstream_latency_constraint_us_per_byte", "gauge",
            "Session latency SLO (L_set), microseconds per byte.",
            _whole(lambda h: h.latency_constraint_us_per_byte)),
    _Family("cstream_window_latency_us_per_byte", "gauge",
            "Measured p-latency of the most recent window.",
            _latest(lambda w: w.measured_latency_us_per_byte)),
    _Family("cstream_window_latency_residual_us_per_byte", "gauge",
            "Model-vs-measured latency residual of the most recent window.",
            _latest(lambda w: w.latency_residual_us_per_byte)),
    _Family("cstream_window_energy_uj_per_byte", "gauge",
            "Measured dynamic energy of the most recent window.",
            _latest(lambda w: w.measured_energy_uj_per_byte)),
    _Family("cstream_windows_total", "counter",
            "Windows observed this session.",
            _whole(lambda h: len(h.windows))),
    _Family("cstream_windows_violated_total", "counter",
            "Windows that violated the latency SLO.",
            _whole(lambda h: _count(h, "violated"))),
    _Family("cstream_windows_anomalous_total", "counter",
            "Windows with an anomalous residual attribution.",
            _whole(lambda h: _count(h, "anomalous"))),
    _Family("cstream_health_attribution_score", "gauge",
            "Anomaly score of the session's dominant attribution.",
            _dominant),
)

_FLEET_FAMILIES = (
    _Family("cstream_fleet_windows_total", "counter",
            "Serving windows this run.",
            _whole(lambda h: len(h.windows))),
    _Family("cstream_fleet_violations_total", "counter",
            "Tenant-window SLO violations this run.",
            _whole(lambda h: h.total_violations())),
    *(
        _Family("cstream_fleet_" + kind.replace("-", "_") + "s_total",
                "counter", f"Fleet {kind} events this run.",
                _whole(lambda h, kind=kind: len(h.events_of(kind))))
        for kind in ("shed", "failover", "rpc-failure")
    ),
    _Family("cstream_fleet_energy_budget_uj_per_window", "gauge",
            "Fleet energy budget, microjoules per window.",
            _whole(lambda h: h.energy_budget_uj_per_window)),
    _Family("cstream_fleet_board_alive", "gauge",
            "Board liveness in the most recent window (1 alive, 0 dead).",
            _each("boards", "board", lambda b: b.alive)),
    _Family("cstream_fleet_board_breaker_open", "gauge",
            "Circuit breaker state in the most recent window "
            "(1 open, 0.5 half-open, 0 closed).",
            _each("boards", "board",
                  lambda b: _BREAKER_VALUE[b.breaker_state])),
    _Family("cstream_fleet_board_max_core_load", "gauge",
            "Most-loaded core utilization in the most recent window.",
            _each("boards", "board", lambda b: b.max_core_load)),
    _Family("cstream_fleet_tenant_l_set_us_per_byte", "gauge",
            "Tenant latency SLO (L_set), microseconds per byte.",
            _each("tenants", "tenant", lambda t: t.l_set_us_per_byte)),
    _Family("cstream_fleet_tenant_latency_us_per_byte", "gauge",
            "Measured tenant latency in the most recent window "
            "(running tenants).",
            _each("tenants", "tenant",
                  lambda t: t.measured_latency_us_per_byte,
                  running_only=True)),
    _Family("cstream_fleet_tenant_energy_uj_per_byte", "gauge",
            "Modeled tenant energy in the most recent window "
            "(running tenants).",
            _each("tenants", "tenant",
                  lambda t: t.modeled_energy_uj_per_byte,
                  running_only=True)),
    _Family("cstream_fleet_tenant_violated", "gauge",
            "Tenant SLO violation in the most recent window (1 violated).",
            _each("tenants", "tenant", lambda t: t.violated)),
)

#: per report type: the base label every sample carries, and the table
_EXPOSITION = {
    SessionHealth: ("session", _SESSION_FAMILIES),
    FleetHealth: ("fleet", _FLEET_FAMILIES),
}


def _prom_escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def prometheus_text(report: Report) -> str:
    """Prometheus text-format exposition of a report's latest state.

    Gauges carry the last window's values; counters accumulate across
    the session or run. Every family is ``# HELP``, ``# TYPE``, then its
    samples, each value formatted ``.9g``.
    """
    base, families = _EXPOSITION[type(report)]
    own = f'{base}="{_prom_escape(report.label)}"'
    lines: List[str] = []
    for family in families:
        samples = family.samples(report)
        if samples is None:
            continue
        lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for labels, value in samples:
            tags = "".join(
                f',{key}="{_prom_escape(text)}"' for key, text in labels
            )
            lines.append(f"{family.name}{{{own}{tags}}} {value:.9g}")
    return "\n".join(lines) + "\n"


# -- dashboard ----------------------------------------------------------------


class _Column(NamedTuple):
    title: str
    #: alignment and width of the cell, title included
    width: str
    #: format spec of the value before it is aligned
    spec: str
    #: (row, report) -> cell value; None prints as "-"
    get: Callable[[Any, Any], Any]
    #: text before the cell
    sep: str = " "


def _line(columns: Sequence[_Column], row: Any, report: Any) -> str:
    """One table row; ``row`` None gives the header."""
    cells = []
    for column in columns:
        if row is None:
            text = column.title
        else:
            value = column.get(row, report)
            text = "-" if value is None else format(value, column.spec)
        cells.append(column.sep + format(text, column.width))
    return "".join(cells)[1:]


def _table(columns: Sequence[_Column], rows: Iterable[Any],
           report: Any) -> List[str]:
    """Indented header, rule and rows of a fleet table."""
    header = _line(columns, None, report)
    return [f"  {header}", "  " + "-" * len(header)] + [
        f"  {_line(columns, row, report)}" for row in rows
    ]


def _pairs(pairs: Sequence[Tuple[str, Callable[[Any], Any]]],
           report: Any) -> str:
    return " ".join(f"{name}={get(report)}" for name, get in pairs)


def _field(name: str) -> Callable[[Any, Any], Any]:
    return lambda row, report: getattr(row, name)


def _running(name: str) -> Callable[[Any, Any], Any]:
    return lambda tenant, report: (
        getattr(tenant, name) if tenant.state == "running" else None
    )


def _window_slo(window: WindowHealth, report: SessionHealth) -> str:
    """VIOL, or edge when above a set constraint (0 = none), or ok."""
    if window.violated:
        return "VIOL"
    constraint = report.latency_constraint_us_per_byte
    if 0.0 < constraint < window.measured_latency_us_per_byte:
        return "edge"
    return "ok"


def _window_health(window: WindowHealth, report: SessionHealth) -> str:
    culprit = window.attribution
    if culprit is not None:
        return (
            f"{culprit.describe()} (score {culprit.score:.1f}, "
            f"conf {culprit.confidence:.2f})"
        )
    return "anomalous" if window.anomalous else "nominal"


def _event_subject(event: Any, report: FleetHealth) -> str:
    who = [f"{name} {index}" for name, index in (
        ("tenant", event.tenant_id), ("board", event.board_index)
    ) if index is not None]
    return (" ".join(who) or "fleet") + ":"


_WINDOW_COLUMNS = (
    _Column("win", ">4", "", _field("window_index")),
    _Column("measured", ">10", ".4f",
            _field("measured_latency_us_per_byte")),
    _Column("predicted", ">10", ".4f",
            _field("predicted_latency_us_per_byte")),
    _Column("residual", ">10", "+.4f",
            _field("latency_residual_us_per_byte")),
    _Column("slo", ">4", "", _window_slo),
    _Column("health", "<28", "", _window_health),
)
_SESSION_FOOTER = (
    ("windows", lambda h: len(h.windows)),
    ("violated", lambda h: _count(h, "violated")),
    ("anomalous", lambda h: _count(h, "anomalous")),
)
_FLEET_HEADER = (
    ("arm", lambda h: h.arm),
    ("seed", lambda h: h.seed),
    ("boards", lambda h: h.board_count),
    ("tenants", lambda h: h.tenant_count),
    ("windows", lambda h: len(h.windows)),
    ("violations", lambda h: h.total_violations()),
)
_BOARD_COLUMNS = (
    _Column("board", "<12", "", _field("name")),
    _Column("kind", "<8", "", _field("kind")),
    _Column("state", "<6", "", lambda b, h: "alive" if b.alive else "DEAD"),
    _Column("breaker", "<9", "", _field("breaker_state")),
    _Column("load", ">6", ".2f", _field("max_core_load")),
    _Column("run", ">4", "", _field("tenants_running")),
    _Column("rpcfail", ">7", "", _field("rpc_failures")),
    _Column("", "", "", lambda b, h: (
        f" @{b.throttled_mhz:.0f}MHz" if b.throttled_mhz is not None else ""
    ), sep=""),
)
_TENANT_COLUMNS = (
    _Column("tenant", "<18", "", _field("name")),
    _Column("prio", ">4", "", _field("priority")),
    _Column("state", "<9", "", _field("state")),
    _Column("board", ">5", "", _field("board_index")),
    _Column("L_set", ">8", ".4f", _field("l_set_us_per_byte")),
    _Column("measured", ">9", ".4f",
            _running("measured_latency_us_per_byte")),
    _Column("uJ/B", ">8", ".4f", _running("modeled_energy_uj_per_byte")),
    _Column("slo", ">4", "", lambda t, h: "VIOL" if t.violated else "ok"),
)
_EVENT_COLUMNS = (
    _Column("", "<4", "", lambda e, h: f"w{e.window_index}"),
    _Column("", "<13", "", _field("kind")),
    _Column("", "", "", _event_subject),
    _Column("", "", "", _field("detail")),
)


def render_top(report: Report, limit: int = 12) -> str:
    """``cstream top`` terminal view of a session or fleet report.

    A session shows its last ``limit`` windows (measured, predicted and
    residual latency, SLO state, implicated component) and a verdict
    footer. A fleet shows a summary line, the last window's board table
    (liveness, breaker, load) and tenant table (placement, SLO,
    measured latency, energy), then its last ``limit`` events.
    """
    if isinstance(report, SessionHealth):
        header = _line(_WINDOW_COLUMNS, None, report)
        rule = "-" * len(header)
        rows = [_line(_WINDOW_COLUMNS, window, report)
                for window in report.windows[-limit:]]
        return "\n".join([header, rule, *rows, rule,
                          _pairs(_SESSION_FOOTER, report)])
    lines = [f"fleet {report.label} " + _pairs(_FLEET_HEADER, report)]
    if report.windows:
        last = report.windows[-1]
        lines.append(f"window {last.window_index}")
        lines += _table(_BOARD_COLUMNS, last.boards, report)
        lines += _table(_TENANT_COLUMNS, last.tenants, report)
        tail = report.events[-limit:]
        if tail:
            lines.append(f"  last {len(tail)} events:")
            lines += [f"    {_line(_EVENT_COLUMNS, event, report)}"
                      for event in tail]
    return "\n".join(lines)
