"""Placement and cross-board failover for the fleet.

Plans stay portable across boards by construction: every tenant is
scheduled on the *canonical graph* its codec decomposes into on the
reference rk3399, evaluated under each board kind's own calibrated cost
model. Same graph, same stage indices, core ids 0–5 valid on every
kind — so an incumbent plan from a dying board warm-starts the replan
on the destination board, ``SchedulingPlan.remap_cores`` routes the
incumbent through a cluster-aware core mapping first (little cores to
little cores), and ``migration_cost`` prices the resulting delta with
the destination's communication table, exactly the machinery the
single-board control loop uses at window boundaries.

Every plan is a pure function of its planning problem, so nothing here
caches: :meth:`WorkloadContext.build` memoizes each (tenant profile,
board kind, L_set, seed) context process-wide and
:meth:`WorkloadContext.plan` each context's best-effort plan. Boards of
one kind share one key, so a 6-board fleet prices like a 3-kind fleet,
and the arms of a scenario, and scenarios over the same catalogue,
search each (tenant, kind) plan once per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.control.controller import STATE_BYTES_SCALE
from repro.core.baselines import WorkloadContext
from repro.core.cost_model import CostModel
from repro.core.plan import (
    MigrationCost,
    PlanEstimate,
    SchedulingPlan,
    migration_cost,
)
from repro.core.scheduler import Scheduler
from repro.core.task import TaskGraph
from repro.errors import ConfigurationError
from repro.fleet.registry import BoardHandle
from repro.fleet.tenants import TenantWorkload
from repro.simcore.boards import BoardSpec, rk3399

__all__ = ["Placement", "FleetScheduler", "cross_board_routing"]


@dataclass(frozen=True)
class Placement:
    """One tenant pinned to one board with a concrete plan."""

    tenant_id: int
    board_index: int
    plan: SchedulingPlan
    estimate: PlanEstimate
    #: per-core busy time this tenant adds per gateway window, µs
    busy_us_by_core: Tuple[Tuple[int, float], ...]


def cross_board_routing(
    source: BoardSpec, destination: BoardSpec
) -> Dict[int, int]:
    """Map each source core id to a same-type destination core id.

    Little cores route to little cores and big to big, round-robin in
    id order, so a plan's cluster intent survives topology changes
    (e.g. rk3399's 4+2 onto the edge board's 2+4).
    """
    routing: Dict[int, int] = {}
    for src_ids, dst_ids in (
        (source.little_core_ids, destination.little_core_ids),
        (source.big_core_ids, destination.big_core_ids),
    ):
        pool = dst_ids if dst_ids else destination.core_ids
        for position, core_id in enumerate(src_ids):
            routing[core_id] = pool[position % len(pool)]
    return routing


class FleetScheduler:
    """Looks up and re-places per-tenant plans across the fleet."""

    def __init__(
        self,
        workloads: Tuple[TenantWorkload, ...],
        boards: Tuple[BoardHandle, ...],
        seed: int = 0,
    ) -> None:
        if not boards:
            raise ConfigurationError("fleet has no boards")
        self.workloads = {w.tenant_id: w for w in workloads}
        self.boards = boards
        self.seed = seed
        self._reference = rk3399()

    # -- per-(tenant, kind) planning problems --------------------------------

    def _context(self, tenant_id: int, board: BoardSpec) -> WorkloadContext:
        workload = self.workloads[tenant_id]
        return WorkloadContext.build(
            board, workload.profile, workload.l_set_us_per_byte,
            seed=self.seed,
        )

    def canonical_graph(self, tenant_id: int) -> TaskGraph:
        """The tenant's fine graph on the reference board: one stage
        indexing, hence one portable plan shape, on every board kind."""
        return self._context(tenant_id, self._reference).fine_graph

    def context(self, tenant_id: int, board: BoardHandle) -> WorkloadContext:
        return self._context(tenant_id, board.spec)

    def model(self, tenant_id: int, board: BoardHandle) -> CostModel:
        """A fresh cost model for this tenant's canonical graph on this
        board kind (fresh, because controllers mutate their model)."""
        return self.context(tenant_id, board).cost_model(
            self.canonical_graph(tenant_id)
        )

    def plan_estimate(
        self, tenant_id: int, board: BoardHandle
    ) -> PlanEstimate:
        """The tenant's shared best-effort plan on this board kind."""
        return self.context(tenant_id, board).plan(
            self.canonical_graph(tenant_id)
        ).estimate

    def busy_us_by_core(
        self, estimate: PlanEstimate, window_bytes: int
    ) -> Tuple[Tuple[int, float], ...]:
        """Per-core busy time one window of this plan costs, µs."""
        return tuple(
            (core, load * window_bytes)
            for core, load in sorted(estimate.core_load_us_per_byte.items())
        )

    # -- placement -----------------------------------------------------------

    def candidate(
        self,
        tenant_id: int,
        board: BoardHandle,
        board_busy_us: Mapping[int, float],
        window_period_us: float,
        throttle_scale: float = 1.0,
    ) -> Optional[Tuple[float, float]]:
        """(projected max core load, modeled latency) on this board, or
        None when the tenant's plan is not servable there.

        ``throttle_scale`` inflates the modeled latency for boards under
        a sustained DVFS cap, so placement never routes a tenant onto a
        board that cannot meet its SLO while throttled.
        """
        workload = self.workloads[tenant_id]
        estimate = self.plan_estimate(tenant_id, board)
        modeled = estimate.latency_us_per_byte * throttle_scale
        if not estimate.feasible or modeled > workload.l_set_us_per_byte:
            return None
        projected: Dict[int, float] = dict(board_busy_us)
        for core, busy in self.busy_us_by_core(
            estimate, workload.spec.window_bytes
        ):
            projected[core] = projected.get(core, 0.0) + busy
        max_load = max(
            (busy / window_period_us for busy in projected.values()),
            default=0.0,
        )
        return (max_load, modeled)

    def build_placement(
        self, tenant_id: int, board: BoardHandle
    ) -> Placement:
        workload = self.workloads[tenant_id]
        estimate = self.plan_estimate(tenant_id, board)
        return Placement(
            tenant_id=tenant_id,
            board_index=board.board_index,
            plan=estimate.plan,
            estimate=estimate,
            busy_us_by_core=self.busy_us_by_core(
                estimate, workload.spec.window_bytes
            ),
        )

    # -- cross-board failover ------------------------------------------------

    def failover_placement(
        self,
        tenant_id: int,
        source: BoardHandle,
        incumbent: SchedulingPlan,
        destination: BoardHandle,
    ) -> Tuple[Placement, MigrationCost]:
        """Re-place a victim tenant, warm-started from its old plan.

        The incumbent is routed through the cluster-aware core mapping
        (``remap_cores``) and seeds the destination's branch-and-bound;
        the returned migration cost prices the state actually moved,
        using the destination's profiled communication table.
        """
        workload = self.workloads[tenant_id]
        model = self.model(tenant_id, destination)
        routing = cross_board_routing(source.spec, destination.spec)
        patched = incumbent.remap_cores(routing)
        result = Scheduler(model).schedule(
            best_effort=True, warm_start=patched
        )
        candidate = result.estimate
        state_bytes = {
            stage: model.stage_output_bytes(stage) * STATE_BYTES_SCALE
            for stage in range(model.graph.stage_count)
        }
        cost = migration_cost(
            patched.diff(candidate.plan),
            destination.spec,
            model.communication,
            state_bytes,
        )
        placement = Placement(
            tenant_id=tenant_id,
            board_index=destination.board_index,
            plan=candidate.plan,
            estimate=candidate,
            busy_us_by_core=self.busy_us_by_core(
                candidate, workload.spec.window_bytes
            ),
        )
        return placement, cost
