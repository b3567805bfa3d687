"""Scenario arms: static vs shedding vs shedding+failover.

The fleet analogue of the single-board chaos comparison
(:mod:`repro.faults.chaos`): build one tenant catalogue, aim one
board-level fault plan at the fleet, and run the same serving window
sequence under three gateway configurations —

* ``static`` — admission control only; a dead board's tenants are
  stranded and violate their SLO for the rest of the run;
* ``shed`` — load shedding and backpressure: victims are requeued with
  seeded-jitter backoff and re-admitted wherever capacity exists;
* ``shed-failover`` — plus the circuit breaker and cross-board
  failover: victims are re-placed onto surviving boards as soon as the
  dead board's breaker opens.

All three arms share the catalogue, the SLOs, the fault plan and one
:class:`~repro.fleet.placement.FleetScheduler`, and each (tenant, board
kind) plan is searched once per process, not once per arm or scenario
(:meth:`~repro.core.baselines.WorkloadContext.plan`); every difference
in the summaries is the robustness machinery itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults.fleet import FLEET_SCENARIOS, build_fleet_fault_plan
from repro.fleet.gateway import FLEET_ARMS, Gateway
from repro.fleet.placement import FleetScheduler
from repro.fleet.registry import build_fleet
from repro.fleet.tenants import build_tenant_catalog, build_tenant_workloads
from repro.numerics import ordered_sum
from repro.obs.health import FleetHealth

__all__ = [
    "FLEET_ARMS",
    "ArmSummary",
    "FleetComparison",
    "FleetScenarioSpec",
    "run_fleet_arm",
    "run_fleet_scenario",
]


@dataclass(frozen=True)
class FleetScenarioSpec:
    """One fleet chaos experiment."""

    boards: int = 3
    tenants: int = 6
    windows: int = 12
    #: a :data:`repro.faults.fleet.FLEET_SCENARIOS` name
    scenario: str = "board-crash"
    #: board the fault hits. Placement decides whether it has victims:
    #: at the default 3x6 fleet board 0 runs a tenant when the fault
    #: fires, but in a larger fleet (12x24) no tenant may ever run there
    fault_board: int = 0
    at_window: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scenario not in FLEET_SCENARIOS:
            raise ConfigurationError(
                f"unknown fleet scenario {self.scenario!r}; "
                f"expected one of {FLEET_SCENARIOS}"
            )
        if not 0 <= self.fault_board < self.boards:
            raise ConfigurationError("fault_board outside the fleet")
        if not 0 <= self.at_window < self.windows:
            raise ConfigurationError("at_window outside the run")


@dataclass(frozen=True)
class ArmSummary:
    """One arm's headline numbers."""

    arm: str
    tenants_admitted: int
    tenants_rejected: int
    total_violations: int
    #: violations in windows >= the fault window — the steady-state
    #: damage the arm's machinery did or did not contain
    steady_violations: int
    energy_uj: float
    sheds: int
    failovers: int
    #: windows between the (first) crash and the last victim re-placed,
    #: None when the arm performed no failover
    failover_lag_windows: Optional[int]


@dataclass(frozen=True)
class FleetComparison:
    """All three arms over one scenario, plus their reports."""

    spec: FleetScenarioSpec
    summaries: Tuple[ArmSummary, ...]
    healths: Dict[str, FleetHealth]

    def summary(self, arm: str) -> ArmSummary:
        for candidate in self.summaries:
            if candidate.arm == arm:
                return candidate
        raise ConfigurationError(f"no arm {arm!r} in comparison")


def summarize_arm(health: FleetHealth, spec: FleetScenarioSpec) -> ArmSummary:
    crash_windows = [
        e.window_index for e in health.events if e.kind == "board-crash"
    ]
    failover_windows = [
        e.window_index for e in health.events if e.kind == "failover"
    ]
    lag: Optional[int] = None
    if failover_windows and crash_windows:
        lag = max(failover_windows) - min(crash_windows)
    return ArmSummary(
        arm=health.arm,
        tenants_admitted=len(health.admitted_tenants()),
        tenants_rejected=len(health.events_of("reject")),
        total_violations=health.total_violations(),
        steady_violations=health.violations_after(spec.at_window),
        energy_uj=ordered_sum(w.energy_uj for w in health.windows),
        sheds=len(health.events_of("shed")),
        failovers=len(failover_windows),
        failover_lag_windows=lag,
    )


def run_fleet_arm(
    spec: FleetScenarioSpec,
    arm: str,
    workloads=None,
    boards=None,
    scheduler: Optional[FleetScheduler] = None,
) -> FleetHealth:
    """One arm end to end; catalogue, fleet and scheduler reusable
    across arms."""
    if boards is None:
        boards = build_fleet(spec.boards)
    if workloads is None:
        workloads = build_tenant_workloads(
            build_tenant_catalog(spec.tenants, seed=spec.seed),
            seed=spec.seed,
        )
    fault_plan = build_fleet_fault_plan(
        spec.scenario,
        board_index=spec.fault_board,
        at_window=spec.at_window,
        seed=spec.seed,
    )
    gateway = Gateway(
        boards,
        workloads,
        windows=spec.windows,
        arm=arm,
        fault_plan=fault_plan,
        seed=spec.seed,
        label=f"fleet-{spec.scenario}-{arm}",
        scheduler=scheduler,
    )
    return gateway.run()


def run_fleet_scenario(spec: FleetScenarioSpec) -> FleetComparison:
    """All three arms over one catalogue, fleet, fault plan and
    scheduler."""
    boards = build_fleet(spec.boards)
    workloads = build_tenant_workloads(
        build_tenant_catalog(spec.tenants, seed=spec.seed),
        seed=spec.seed,
    )
    scheduler = FleetScheduler(workloads, boards, seed=spec.seed)
    healths: Dict[str, FleetHealth] = {}
    summaries = []
    for arm in FLEET_ARMS:
        health = run_fleet_arm(
            spec, arm, workloads=workloads, boards=boards, scheduler=scheduler
        )
        healths[arm] = health
        summaries.append(summarize_arm(health, spec))
    return FleetComparison(
        spec=spec, summaries=tuple(summaries), healths=healths
    )
