"""Live session telemetry: NDJSON tail + Prometheus-style exposition.

Two export surfaces over the health stream of :mod:`repro.obs.health`:

* :class:`NdjsonTail` — appends one JSON object per window to a file as
  the session runs; ``cstream top FILE`` tails it back into a terminal
  live view (:func:`render_top`). NDJSON is the exchange format: the
  same lines read back with :func:`repro.obs.health.read_artifact` and
  round-trip into :class:`~repro.obs.health.WindowHealth` via
  :func:`~repro.obs.health.from_record`.
* :func:`prometheus_text` — renders the latest state of a session in
  the Prometheus text exposition format, for scraping off a file or
  one-shot endpoint.

Everything here is pull/append-only and allocation-light; none of it is
imported by the runtime unless telemetry is switched on, preserving the
zero-overhead-when-off contract.
"""

from __future__ import annotations

import json
from typing import IO, List, Optional, Sequence

from repro.obs.health import (
    FleetHealth,
    SessionHealth,
    WindowHealth,
    to_record,
)

__all__ = [
    "NdjsonTail",
    "prometheus_text",
    "fleet_prometheus_text",
    "render_top",
    "render_fleet_top",
]


class NdjsonTail:
    """Append-only NDJSON writer for per-window health records."""

    def __init__(self, stream: IO[str]) -> None:
        self._stream = stream

    def emit(self, window: WindowHealth) -> None:
        self._stream.write(
            json.dumps(to_record(window), sort_keys=True) + "\n"
        )
        self._stream.flush()

    def emit_session(self, health: SessionHealth) -> None:
        for window in health.windows:
            self.emit(window)


def _prom_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def prometheus_text(health: SessionHealth) -> str:
    """Prometheus text-format exposition of a session's latest state.

    Gauges carry the last window's values; counters accumulate across
    the session.
    """
    label = _prom_escape(health.label)
    lines: List[str] = []

    def gauge(name: str, help_text: str, value: float,
              extra: str = "") -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} gauge")
        tags = f'session="{label}"' + (f",{extra}" if extra else "")
        lines.append(f"{name}{{{tags}}} {value:.9g}")

    gauge(
        "cstream_latency_constraint_us_per_byte",
        "Session latency SLO (L_set), microseconds per byte.",
        health.latency_constraint_us_per_byte,
    )
    if health.windows:
        last = health.windows[-1]
        gauge(
            "cstream_window_latency_us_per_byte",
            "Measured p-latency of the most recent window.",
            last.measured_latency_us_per_byte,
        )
        gauge(
            "cstream_window_latency_residual_us_per_byte",
            "Model-vs-measured latency residual of the most recent window.",
            last.latency_residual_us_per_byte,
        )
        gauge(
            "cstream_window_energy_uj_per_byte",
            "Measured dynamic energy of the most recent window.",
            last.measured_energy_uj_per_byte,
        )
    violated = sum(1 for w in health.windows if w.violated)
    anomalous = sum(1 for w in health.windows if w.anomalous)
    lines.append(
        "# HELP cstream_windows_total Windows observed this session.")
    lines.append("# TYPE cstream_windows_total counter")
    lines.append(
        f'cstream_windows_total{{session="{label}"}} {len(health.windows)}')
    lines.append(
        "# HELP cstream_windows_violated_total Windows that violated "
        "the latency SLO.")
    lines.append("# TYPE cstream_windows_violated_total counter")
    lines.append(
        f'cstream_windows_violated_total{{session="{label}"}} {violated}')
    lines.append(
        "# HELP cstream_windows_anomalous_total Windows with an "
        "anomalous residual attribution.")
    lines.append("# TYPE cstream_windows_anomalous_total counter")
    lines.append(
        f'cstream_windows_anomalous_total{{session="{label}"}} {anomalous}')
    dominant = health.dominant()
    if dominant is not None:
        lines.append(
            "# HELP cstream_health_attribution_score Anomaly score of "
            "the session's dominant attribution.")
        lines.append("# TYPE cstream_health_attribution_score gauge")
        lines.append(
            f'cstream_health_attribution_score{{session="{label}",'
            f'kind="{_prom_escape(dominant.kind)}",'
            f'key="{_prom_escape(dominant.key)}"}} {dominant.score:.9g}')
    return "\n".join(lines) + "\n"


def fleet_prometheus_text(health: FleetHealth) -> str:
    """Prometheus text-format exposition of a fleet's latest window.

    Per-board gauges (liveness, breaker state, max core load) and
    per-tenant gauges (SLO, modeled/measured latency, energy) carry the
    last window's values; fleet counters accumulate across the run.
    """
    fleet = _prom_escape(health.label)
    lines: List[str] = []
    lines.append(
        "# HELP cstream_fleet_windows_total Serving windows this run.")
    lines.append("# TYPE cstream_fleet_windows_total counter")
    lines.append(
        f'cstream_fleet_windows_total{{fleet="{fleet}"}} '
        f"{len(health.windows)}")
    lines.append(
        "# HELP cstream_fleet_violations_total Tenant-window SLO "
        "violations this run.")
    lines.append("# TYPE cstream_fleet_violations_total counter")
    lines.append(
        f'cstream_fleet_violations_total{{fleet="{fleet}"}} '
        f"{health.total_violations()}")
    for kind in ("shed", "failover", "rpc-failure"):
        metric = "cstream_fleet_" + kind.replace("-", "_") + "s_total"
        lines.append(f"# HELP {metric} Fleet {kind} events this run.")
        lines.append(f"# TYPE {metric} counter")
        lines.append(
            f'{metric}{{fleet="{fleet}"}} {len(health.events_of(kind))}')
    lines.append(
        "# HELP cstream_fleet_energy_budget_uj_per_window Fleet energy "
        "budget, microjoules per window.")
    lines.append("# TYPE cstream_fleet_energy_budget_uj_per_window gauge")
    lines.append(
        f'cstream_fleet_energy_budget_uj_per_window{{fleet="{fleet}"}} '
        f"{health.energy_budget_uj_per_window:.9g}")
    if not health.windows:
        return "\n".join(lines) + "\n"
    last = health.windows[-1]
    lines.append(
        "# HELP cstream_fleet_board_alive Board liveness in the most "
        "recent window (1 alive, 0 dead).")
    lines.append("# TYPE cstream_fleet_board_alive gauge")
    for board in last.boards:
        lines.append(
            f'cstream_fleet_board_alive{{fleet="{fleet}",'
            f'board="{_prom_escape(board.name)}"}} '
            f"{1 if board.alive else 0}")
    lines.append(
        "# HELP cstream_fleet_board_breaker_open Circuit breaker state "
        "in the most recent window (1 open, 0.5 half-open, 0 closed).")
    lines.append("# TYPE cstream_fleet_board_breaker_open gauge")
    breaker_value = {"closed": 0.0, "half-open": 0.5, "open": 1.0}
    for board in last.boards:
        lines.append(
            f'cstream_fleet_board_breaker_open{{fleet="{fleet}",'
            f'board="{_prom_escape(board.name)}"}} '
            f"{breaker_value[board.breaker_state]:.9g}")
    lines.append(
        "# HELP cstream_fleet_board_max_core_load Most-loaded core "
        "utilization in the most recent window.")
    lines.append("# TYPE cstream_fleet_board_max_core_load gauge")
    for board in last.boards:
        lines.append(
            f'cstream_fleet_board_max_core_load{{fleet="{fleet}",'
            f'board="{_prom_escape(board.name)}"}} '
            f"{board.max_core_load:.9g}")
    lines.append(
        "# HELP cstream_fleet_tenant_l_set_us_per_byte Tenant latency "
        "SLO (L_set), microseconds per byte.")
    lines.append("# TYPE cstream_fleet_tenant_l_set_us_per_byte gauge")
    for tenant in last.tenants:
        lines.append(
            f'cstream_fleet_tenant_l_set_us_per_byte{{fleet="{fleet}",'
            f'tenant="{_prom_escape(tenant.name)}"}} '
            f"{tenant.l_set_us_per_byte:.9g}")
    lines.append(
        "# HELP cstream_fleet_tenant_latency_us_per_byte Measured "
        "tenant latency in the most recent window (running tenants).")
    lines.append("# TYPE cstream_fleet_tenant_latency_us_per_byte gauge")
    for tenant in last.tenants:
        if tenant.state != "running":
            continue
        lines.append(
            f'cstream_fleet_tenant_latency_us_per_byte{{fleet="{fleet}",'
            f'tenant="{_prom_escape(tenant.name)}"}} '
            f"{tenant.measured_latency_us_per_byte:.9g}")
    lines.append(
        "# HELP cstream_fleet_tenant_energy_uj_per_byte Modeled tenant "
        "energy in the most recent window (running tenants).")
    lines.append("# TYPE cstream_fleet_tenant_energy_uj_per_byte gauge")
    for tenant in last.tenants:
        if tenant.state != "running":
            continue
        lines.append(
            f'cstream_fleet_tenant_energy_uj_per_byte{{fleet="{fleet}",'
            f'tenant="{_prom_escape(tenant.name)}"}} '
            f"{tenant.modeled_energy_uj_per_byte:.9g}")
    lines.append(
        "# HELP cstream_fleet_tenant_violated Tenant SLO violation in "
        "the most recent window (1 violated).")
    lines.append("# TYPE cstream_fleet_tenant_violated gauge")
    for tenant in last.tenants:
        lines.append(
            f'cstream_fleet_tenant_violated{{fleet="{fleet}",'
            f'tenant="{_prom_escape(tenant.name)}"}} '
            f"{1 if tenant.violated else 0}")
    return "\n".join(lines) + "\n"


def render_top(
    windows: Sequence[WindowHealth],
    latency_constraint_us_per_byte: Optional[float] = None,
    limit: int = 12,
) -> str:
    """``cstream top``-style terminal view over a health stream."""
    header = (
        f"{'win':>4} {'measured':>10} {'predicted':>10} "
        f"{'residual':>10} {'slo':>4} {'health':<28}"
    )
    rule = "-" * len(header)
    rows: List[str] = [header, rule]
    for window in list(windows)[-limit:]:
        if window.violated:
            slo = "VIOL"
        elif (
            latency_constraint_us_per_byte is not None
            and window.measured_latency_us_per_byte
            > latency_constraint_us_per_byte
        ):
            slo = "edge"
        else:
            slo = "ok"
        if window.attribution is not None:
            health = (
                f"{window.attribution.describe()} "
                f"(score {window.attribution.score:.1f}, "
                f"conf {window.attribution.confidence:.2f})"
            )
        elif window.anomalous:
            health = "anomalous"
        else:
            health = "nominal"
        rows.append(
            f"{window.window_index:>4} "
            f"{window.measured_latency_us_per_byte:>10.4f} "
            f"{window.predicted_latency_us_per_byte:>10.4f} "
            f"{window.latency_residual_us_per_byte:>+10.4f} "
            f"{slo:>4} {health:<28}"
        )
    violated = sum(1 for w in windows if w.violated)
    anomalous = sum(1 for w in windows if w.anomalous)
    rows.append(rule)
    rows.append(
        f"windows={len(windows)} violated={violated} anomalous={anomalous}"
    )
    return "\n".join(rows)


def render_fleet_top(health: FleetHealth, limit: int = 8) -> str:
    """``cstream top``-style terminal view over a fleet health report.

    Shows the most recent window's board table (liveness, breaker,
    load) and tenant table (placement, SLO, measured latency, energy),
    then the tail of the event log.
    """
    rows: List[str] = [
        f"fleet {health.label} arm={health.arm} seed={health.seed} "
        f"boards={health.board_count} tenants={health.tenant_count} "
        f"windows={len(health.windows)} "
        f"violations={health.total_violations()}"
    ]
    if not health.windows:
        return "\n".join(rows)
    last = health.windows[-1]
    rows.append(f"window {last.window_index}")
    board_header = (
        f"  {'board':<12} {'kind':<8} {'state':<6} {'breaker':<9} "
        f"{'load':>6} {'run':>4} {'rpcfail':>7}"
    )
    rows.append(board_header)
    rows.append("  " + "-" * (len(board_header) - 2))
    for board in last.boards:
        state = "alive" if board.alive else "DEAD"
        throttle = (
            f" @{board.throttled_mhz:.0f}MHz"
            if board.throttled_mhz is not None else ""
        )
        rows.append(
            f"  {board.name:<12} {board.kind:<8} {state:<6} "
            f"{board.breaker_state:<9} {board.max_core_load:>6.2f} "
            f"{board.tenants_running:>4} {board.rpc_failures:>7}"
            f"{throttle}"
        )
    tenant_header = (
        f"  {'tenant':<18} {'prio':>4} {'state':<9} {'board':>5} "
        f"{'L_set':>8} {'measured':>9} {'uJ/B':>8} {'slo':>4}"
    )
    rows.append(tenant_header)
    rows.append("  " + "-" * (len(tenant_header) - 2))
    for tenant in last.tenants:
        board = (
            str(tenant.board_index)
            if tenant.board_index is not None else "-"
        )
        if tenant.state == "running":
            measured = f"{tenant.measured_latency_us_per_byte:>9.4f}"
            energy = f"{tenant.modeled_energy_uj_per_byte:>8.4f}"
        else:
            measured = f"{'-':>9}"
            energy = f"{'-':>8}"
        slo = "VIOL" if tenant.violated else "ok"
        rows.append(
            f"  {tenant.name:<18} {tenant.priority:>4} "
            f"{tenant.state:<9} {board:>5} "
            f"{tenant.l_set_us_per_byte:>8.4f} {measured} {energy} "
            f"{slo:>4}"
        )
    tail = list(health.events)[-limit:]
    if tail:
        rows.append(f"  last {len(tail)} events:")
        for event in tail:
            who = []
            if event.tenant_id is not None:
                who.append(f"tenant {event.tenant_id}")
            if event.board_index is not None:
                who.append(f"board {event.board_index}")
            subject = " ".join(who) if who else "fleet"
            rows.append(
                f"    w{event.window_index:<3} {event.kind:<13} "
                f"{subject}: {event.detail}"
            )
    return "\n".join(rows)
