"""Fleet serving tier: many boards, many tenants, one gateway.

Everything below :mod:`repro.control` schedules one session on one
board. This package is the robustness shell around that proven inner
loop: a deterministic simulated fleet of heterogeneous boards
(:mod:`~repro.fleet.registry`), each running one
:class:`~repro.control.controller.SessionController` per placed tenant
(driven through :class:`~repro.control.heartbeat.ExternalHeartbeat`),
fronted by a gateway (:mod:`~repro.fleet.gateway`) that admits
(:mod:`~repro.fleet.admission`), places (:mod:`~repro.fleet.placement`),
sheds, retries with seeded-jitter backoff (:mod:`~repro.fleet.backoff`),
trips per-board circuit breakers (:mod:`~repro.fleet.breaker`) and
fails tenants over across boards when a board dies.

The whole tier is a deterministic simulation: board "measurements" are
cost-model estimates perturbed by congestion, throttle factors and
seeded noise keyed by (seed, tenant, window) — same seed, byte-identical
:class:`~repro.obs.health.FleetHealth` report. The package sits in the
linter's strict scope (CSA/CSU), which also bars it from importing the
driver packages, so wall clocks, unseeded RNG and environment reads are
mechanically excluded.
"""

from repro.fleet.admission import AdmissionConfig, AdmissionDecision
from repro.fleet.backoff import BackoffPolicy
from repro.fleet.breaker import BreakerConfig, BreakerTransition, CircuitBreaker
from repro.fleet.gateway import Gateway, GatewayConfig
from repro.fleet.placement import FleetScheduler, Placement
from repro.fleet.registry import (
    BOARD_KINDS,
    BoardHandle,
    build_fleet,
    edge_board,
)
from repro.fleet.scenario import (
    FLEET_ARMS,
    FleetComparison,
    FleetScenarioSpec,
    run_fleet_arm,
    run_fleet_scenario,
)
from repro.fleet.tenants import TenantSpec, TenantWorkload, build_tenant_catalog

__all__ = [
    "AdmissionConfig",
    "AdmissionDecision",
    "BackoffPolicy",
    "BreakerConfig",
    "BreakerTransition",
    "CircuitBreaker",
    "Gateway",
    "GatewayConfig",
    "FleetScheduler",
    "Placement",
    "BOARD_KINDS",
    "BoardHandle",
    "build_fleet",
    "edge_board",
    "FLEET_ARMS",
    "FleetComparison",
    "FleetScenarioSpec",
    "run_fleet_arm",
    "run_fleet_scenario",
    "TenantSpec",
    "TenantWorkload",
    "build_tenant_catalog",
]
