"""Admission control: SLO feasibility, core headroom, energy budget.

A tenant is admitted only when some eligible board passes all three
gates, in order:

1. **SLO** — the tenant's canonical plan on that board kind is
   cost-model feasible and its modeled latency (inflated by any
   sustained throttle) is within the tenant's ``L_set``;
2. **headroom** — adding the plan's per-core busy time keeps the
   board's most-loaded core within :data:`HEADROOM` utilization (the
   slack that absorbs congestion and measurement noise);
3. **energy** — the fleet's aggregate modeled energy per window,
   including the newcomer, stays within the fleet energy budget.

Among the boards that pass, the least-loaded one (projected max core
utilization, ties to the lower board index) wins — deterministic,
and it spreads tenants instead of packing failure domains.

Every decision carries the numbers it was made on; FLT002 later
re-checks ``admitted ⇒ modeled latency ≤ L_set`` straight from the
health report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.fleet.placement import FleetScheduler
from repro.fleet.registry import BoardHandle
from repro.fleet.tenants import TenantWorkload
from repro.numerics import ordered_sum

__all__ = ["HEADROOM", "AdmissionDecision", "evaluate_admission"]

#: max projected utilization of any single core (busy / window)
HEADROOM = 0.85


@dataclass(frozen=True)
class AdmissionDecision:
    """One admission attempt's outcome, with its evidence."""

    tenant_id: int
    window_index: int
    admitted: bool
    #: winning board (admitted) or None
    board_index: Optional[int]
    #: "admitted", "no-feasible-board", "no-headroom", "energy-budget"
    reason: str
    modeled_latency_us_per_byte: float
    l_set_us_per_byte: float
    projected_max_core_load: float
    projected_energy_uj_per_window: float


def evaluate_admission(
    workload: TenantWorkload,
    scheduler: FleetScheduler,
    eligible: Tuple[BoardHandle, ...],
    board_busy_us: Mapping[int, Mapping[int, float]],
    throttle_scale: Mapping[int, float],
    running_energy_uj_per_window: float,
    energy_budget_uj_per_window: float,
    window_index: int,
    window_period_us: float,
) -> AdmissionDecision:
    """Gate one tenant against the fleet's current state.

    ``board_busy_us`` maps board index -> core -> committed busy µs per
    window; ``throttle_scale`` maps board index -> modeled-latency
    inflation under any sustained DVFS cap (1.0 at nominal frequency).
    """
    tenant_id = workload.tenant_id
    best: Optional[Tuple[float, float, BoardHandle]] = None
    saw_feasible = False
    for board in eligible:
        candidate = scheduler.candidate(
            tenant_id,
            board,
            board_busy_us.get(board.board_index, {}),
            window_period_us,
            throttle_scale=throttle_scale.get(board.board_index, 1.0),
        )
        if candidate is None:
            continue
        saw_feasible = True
        max_load, modeled = candidate
        if max_load > HEADROOM:
            continue
        if best is None or max_load < best[0]:
            best = (max_load, modeled, board)

    if best is None:
        reason = "no-headroom" if saw_feasible else "no-feasible-board"
        return AdmissionDecision(
            tenant_id=tenant_id,
            window_index=window_index,
            admitted=False,
            board_index=None,
            reason=reason,
            modeled_latency_us_per_byte=0.0,
            l_set_us_per_byte=workload.l_set_us_per_byte,
            projected_max_core_load=0.0,
            projected_energy_uj_per_window=running_energy_uj_per_window,
        )

    max_load, modeled, board = best
    estimate = scheduler.plan_estimate(tenant_id, board)
    tenant_energy = (
        estimate.energy_uj_per_byte * workload.spec.window_bytes
    )
    projected_energy = ordered_sum(
        [running_energy_uj_per_window, tenant_energy]
    )
    if projected_energy > energy_budget_uj_per_window:
        return AdmissionDecision(
            tenant_id=tenant_id,
            window_index=window_index,
            admitted=False,
            board_index=None,
            reason="energy-budget",
            modeled_latency_us_per_byte=modeled,
            l_set_us_per_byte=workload.l_set_us_per_byte,
            projected_max_core_load=max_load,
            projected_energy_uj_per_window=projected_energy,
        )
    return AdmissionDecision(
        tenant_id=tenant_id,
        window_index=window_index,
        admitted=True,
        board_index=board.board_index,
        reason="admitted",
        modeled_latency_us_per_byte=modeled,
        l_set_us_per_byte=workload.l_set_us_per_byte,
        projected_max_core_load=max_load,
        projected_energy_uj_per_window=projected_energy,
    )
