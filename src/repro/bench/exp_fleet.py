"""Fleet capacity sweep: static vs shedding vs shedding+failover.

Not a figure from the paper — the serving-tier counterpart to
:mod:`repro.bench.exp_chaos`. Each row is one (fleet size, gateway
arm) cell of a board-crash chaos run over the shared tenant catalogue
(:mod:`repro.fleet.scenario`): the same tenants, SLOs and fault plan
served by three gateway configurations that differ only in the
robustness machinery enabled. Columns track admissions, SLO-violation
windows (total and after the crash), shed and failover events, the
crash→last-re-placement lag and the fleet's modeled energy. The
acceptance bar of the robustness PR — shedding+failover re-places all
victims within 3 windows and ends with at most 25% of the static
arm's steady-state violations on the 3-board and 6-board fleets — is
asserted here. ``benchmarks/bench_outcomes.py`` records every cell of
this sweep in ``BENCH_outcomes.json``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.bench.experiments import ExperimentResult
from repro.bench.harness import Harness
from repro.fleet.scenario import (
    FleetScenarioSpec,
    run_fleet_scenario,
)

__all__ = ["fleet_capacity"]

#: (boards, tenants) cells of the capacity sweep
FLEET_SIZES: Tuple[Tuple[int, int], ...] = ((3, 6), (6, 12))

#: shed-failover steady-state violations must be <= this fraction of
#: the static arm's (the PR's acceptance bar)
FAILOVER_WIN_FRACTION = 0.25

#: all victims must be re-placed within this many windows of the crash
FAILOVER_LAG_WINDOWS = 3


def _lag(value: Optional[int]) -> str:
    return f"{value}" if value is not None else "-"


def fleet_capacity(
    harness: Optional[Harness] = None,
    windows: int = 12,
    at_window: int = 3,
) -> ExperimentResult:
    """Three gateway arms per fleet size under a board crash.

    ``harness`` only pins the seed; the fleet is simulated at the
    model level (no per-batch execution), so repetition policy and
    board choice do not apply.
    """
    seed = harness.seed if harness is not None else 0
    rows = []
    extras = {"comparisons": {}, "summaries": {}}
    for boards, tenants in FLEET_SIZES:
        spec = FleetScenarioSpec(
            boards=boards,
            tenants=tenants,
            windows=windows,
            at_window=at_window,
            seed=seed,
        )
        comparison = run_fleet_scenario(spec)
        extras["comparisons"][(boards, tenants)] = comparison
        for summary in comparison.summaries:
            extras["summaries"][(boards, tenants, summary.arm)] = summary
            rows.append(
                (
                    f"{boards}x{tenants}",
                    summary.arm,
                    f"{summary.tenants_admitted}",
                    f"{summary.tenants_rejected}",
                    f"{summary.total_violations}",
                    f"{summary.steady_violations}",
                    f"{summary.sheds}",
                    f"{summary.failovers}",
                    _lag(summary.failover_lag_windows),
                    f"{summary.energy_uj:.0f}",
                )
            )
        static = comparison.summary("static")
        failover = comparison.summary("shed-failover")
        assert failover.failover_lag_windows is not None, (
            f"{boards}-board fleet: shed-failover performed no failover"
        )
        assert failover.failover_lag_windows <= FAILOVER_LAG_WINDOWS, (
            f"{boards}-board fleet: victims re-placed "
            f"{failover.failover_lag_windows} windows after the crash"
        )
        assert (
            failover.steady_violations
            <= FAILOVER_WIN_FRACTION * static.steady_violations
        ), (
            f"{boards}-board fleet: shed-failover kept "
            f"{failover.steady_violations} steady violations vs "
            f"static's {static.steady_violations}"
        )
    return ExperimentResult(
        experiment_id="fleet",
        title=(
            "fleet serving under a board crash (shared tenant "
            f"catalogue, crash at window {at_window} of {windows}, "
            "arms: admission only / +shedding / +breaker+failover)"
        ),
        headers=(
            "fleet", "arm", "admitted", "rejected",
            "violations", "steady", "sheds", "failovers",
            "lag (w)", "energy (µJ)",
        ),
        rows=rows,
        note=(
            "static strands the dead board's tenants (every window "
            "after the crash violates); shed requeues them with "
            "seeded-jitter backoff and re-admits where capacity "
            "exists; shed-failover re-places them the moment the "
            "board's circuit breaker opens. The acceptance bar — "
            f"re-placement within {FAILOVER_LAG_WINDOWS} windows and "
            f"≤ {FAILOVER_WIN_FRACTION:.0%} of static's steady-state "
            "violations — is asserted for every fleet size"
        ),
        extras=extras,
    )
