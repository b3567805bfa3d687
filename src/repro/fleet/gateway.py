"""The fleet gateway: one deterministic loop over serving windows.

``cstream serve`` builds a :class:`Gateway` and calls :meth:`Gateway.run`.
Each window proceeds in a fixed phase order — board fault events,
breaker gating, admission (new arrivals + backoff-due retries), health
pings and window RPCs, load shedding, cross-board failover, health
recording — and every iteration is over sorted ids, every random draw
keyed by ``(seed, stream, entity, window)``, so the same seed produces
a byte-identical :class:`~repro.obs.health.FleetHealth` report
regardless of host, rerun, or worker count.

The simulation runs at the cost-model level: a running tenant's
"measured" window latency is its controller's current modeled latency
(throttle-aware once the controller has adapted), inflated by board
congestion (utilization of the hottest core above 1.0), an explicit
throttle factor until the tenant's controller has seen the DVFS signal,
and a few percent of seeded noise. Each placed tenant embeds a full
:class:`~repro.control.controller.SessionController` behind an
:class:`~repro.control.heartbeat.ExternalHeartbeat`, so on-board
adaptation (throttle replans, migration gating) is the real PR 4–5
machinery, not a re-implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.control.controller import ControllerConfig, SessionController
from repro.control.heartbeat import ExternalHeartbeat
from repro.errors import ConfigurationError
from repro.faults.model import (
    BoardCrash,
    BoardReboot,
    BoardThrottle,
    FaultPlan,
)
from repro.fleet.admission import AdmissionConfig, evaluate_admission
from repro.fleet.backoff import BackoffPolicy
from repro.fleet.breaker import BreakerConfig, CircuitBreaker
from repro.fleet.placement import FleetScheduler, Placement
from repro.fleet.registry import BoardHandle
from repro.fleet.tenants import TenantWorkload
from repro.numerics import ordered_sum
from repro.obs.health import (
    FleetBoardHealth,
    FleetEvent,
    FleetHealth,
    FleetTenantHealth,
    FleetWindowHealth,
)

__all__ = ["GatewayConfig", "Gateway"]

#: RNG stream tag for measurement noise (backoff uses its own tag)
_NOISE_STREAM = 13


@dataclass(frozen=True)
class GatewayConfig:
    """Shape and policies of one serving run."""

    windows: int = 12
    #: the fleet's only clock: one serving window, µs
    window_period_us: float = 400_000.0
    #: relative amplitude of seeded measurement noise
    noise: float = 0.02
    #: arm flags: load shedding / cross-board failover enabled
    shedding: bool = True
    failover: bool = True
    admission: AdmissionConfig = AdmissionConfig()
    breaker: BreakerConfig = BreakerConfig()
    #: jitter/backoff template; the gateway re-seeds it with its own seed
    backoff: BackoffPolicy = BackoffPolicy()
    #: per-window RPC attempts against a board before it counts failed
    rpc_attempts: int = 3
    #: auto energy budget: per-board allowance when the admission config
    #: leaves the budget unset, µJ per window
    energy_budget_uj_per_board: float = 20_000.0
    controller: ControllerConfig = ControllerConfig()

    def __post_init__(self) -> None:
        if self.windows < 1:
            raise ConfigurationError("need at least one window")
        if self.window_period_us <= 0.0:
            raise ConfigurationError("window period must be positive")
        if not 0.0 <= self.noise < 0.2:
            raise ConfigurationError("noise must be in [0, 0.2)")
        if self.rpc_attempts < 1:
            raise ConfigurationError("rpc_attempts must be >= 1")
        if self.energy_budget_uj_per_board <= 0.0:
            raise ConfigurationError("energy allowance must be positive")


@dataclass
class _BoardState:
    handle: BoardHandle
    alive: bool = True
    throttled_mhz: Optional[float] = None
    #: window the throttle lifts in (None = sustained / not throttled)
    throttle_until: Optional[int] = None
    #: window RPC failures recorded this window (reset each window)
    rpc_failures: int = 0


@dataclass
class _TenantState:
    workload: TenantWorkload
    #: "pending", "queued", "running", "stranded", "rejected"
    state: str = "pending"
    board_index: Optional[int] = None
    placement: Optional[Placement] = None
    controller: Optional[SessionController] = None
    heartbeat: Optional[ExternalHeartbeat] = None
    #: admission attempts consumed (initial attempt included)
    attempts: int = 0
    #: earliest window the next admission attempt may run in
    next_attempt_window: float = 0.0
    #: the tenant was admitted at least once (a later queued/stranded
    #: window is then a service interruption and counts violated)
    ever_admitted: bool = False
    #: tenant's controller has been shown the current board throttle
    throttle_seen: bool = False
    #: plan in force when the tenant last ran — the failover warm start
    last_plan: Optional[object] = None
    # per-window scratch, rewritten every window
    measured_us_per_byte: float = 0.0
    modeled_us_per_byte: float = 0.0
    energy_uj: float = 0.0
    violated: bool = False

    @property
    def tenant_id(self) -> int:
        return self.workload.tenant_id

    @property
    def priority(self) -> int:
        return self.workload.spec.priority


class Gateway:
    """Runs the serving loop and assembles the fleet health report."""

    def __init__(
        self,
        boards: Tuple[BoardHandle, ...],
        workloads: Tuple[TenantWorkload, ...],
        fault_plan: Optional[FaultPlan] = None,
        config: GatewayConfig = GatewayConfig(),
        seed: int = 0,
        label: str = "fleet",
        scheduler: Optional[FleetScheduler] = None,
    ) -> None:
        if not boards:
            raise ConfigurationError("fleet has no boards")
        if not workloads:
            raise ConfigurationError("no tenants to serve")
        self.config = config
        self.seed = seed
        self.label = label
        if scheduler is None:
            scheduler = FleetScheduler(workloads, boards, seed=seed)
        elif scheduler.seed != seed:
            raise ConfigurationError(
                "shared FleetScheduler was built for another seed"
            )
        #: plan lookups; arms of one scenario may share it, since its
        #: contexts and plans depend only on (workload, board kind, seed)
        self.scheduler = scheduler
        self.backoff = replace(config.backoff, seed=seed)
        self.boards = {
            b.board_index: _BoardState(handle=b) for b in boards
        }
        self.breakers = {
            b.board_index: CircuitBreaker(b.board_index, config.breaker)
            for b in boards
        }
        self.tenants = {
            w.tenant_id: _TenantState(
                workload=w,
                next_attempt_window=float(w.spec.arrival_window),
            )
            for w in workloads
        }
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        self.events: List[FleetEvent] = []
        self._windows: List[FleetWindowHealth] = []
        self._consumed_transitions = {b.board_index: 0 for b in boards}
        budget = config.admission.energy_budget_uj_per_window
        self.energy_budget_uj_per_window = (
            budget
            if budget is not None
            else config.energy_budget_uj_per_board * len(boards)
        )

    @property
    def arm(self) -> str:
        if self.config.failover:
            return "shed-failover"
        if self.config.shedding:
            return "shed"
        return "static"

    # -- bookkeeping helpers -------------------------------------------------

    def _emit(
        self,
        window: int,
        kind: str,
        tenant_id: Optional[int],
        board_index: Optional[int],
        detail: str,
    ) -> None:
        self.events.append(
            FleetEvent(
                sequence=len(self.events),
                window_index=window,
                kind=kind,
                tenant_id=tenant_id,
                board_index=board_index,
                detail=detail,
            )
        )

    def _sync_breaker_events(self, window: int) -> None:
        """Mirror any new breaker transitions into the event log."""
        for board_index in sorted(self.breakers):
            breaker = self.breakers[board_index]
            consumed = self._consumed_transitions[board_index]
            for transition in breaker.transitions[consumed:]:
                self._emit(
                    window,
                    "breaker",
                    None,
                    board_index,
                    f"{transition.from_state}->{transition.to_state} "
                    f"({transition.reason})",
                )
            self._consumed_transitions[board_index] = len(breaker.transitions)

    def _running_on(self, board_index: int) -> List[_TenantState]:
        return [
            self.tenants[tid]
            for tid in sorted(self.tenants)
            if self.tenants[tid].state == "running"
            and self.tenants[tid].board_index == board_index
        ]

    def _board_busy_us(self, board_index: int) -> Dict[int, float]:
        busy: Dict[int, float] = {}
        for tenant in self._running_on(board_index):
            for core, amount in tenant.placement.busy_us_by_core:
                busy[core] = busy.get(core, 0.0) + amount
        return busy

    def _max_core_load(self, board_index: int) -> float:
        busy = self._board_busy_us(board_index)
        return max(
            (amount / self.config.window_period_us for amount in busy.values()),
            default=0.0,
        )

    def _throttle_scale(self, board: _BoardState) -> float:
        """Worst-core slowdown of a sustained DVFS cap on this board."""
        if board.throttled_mhz is None:
            return 1.0
        return max(
            core.max_frequency_mhz / min(
                board.throttled_mhz, core.max_frequency_mhz
            )
            for core in board.handle.spec.cores
        )

    def _running_energy_uj_per_window(self) -> float:
        terms = []
        for tenant_id in sorted(self.tenants):
            tenant = self.tenants[tenant_id]
            if tenant.state == "running":
                terms.append(
                    tenant.placement.estimate.energy_uj_per_byte
                    * tenant.workload.spec.window_bytes
                )
        return ordered_sum(terms)

    def _noise(self, tenant_id: int, window: int) -> float:
        rng = np.random.default_rng(
            [self.seed, _NOISE_STREAM, tenant_id, window]
        )
        return self.config.noise * (2.0 * rng.random() - 1.0)

    # -- placement lifecycle -------------------------------------------------

    def _install(
        self, tenant: _TenantState, placement: Placement, window: int
    ) -> None:
        """Mount a controller + heartbeat over a fresh placement."""
        board = self.boards[placement.board_index]
        model = self.scheduler.model(tenant.tenant_id, board.handle)
        batches = tenant.workload.spec.batches_per_window
        stream = [tenant.workload.profile.mean_step_costs] * (
            (self.config.windows + 1) * batches
        )
        controller = SessionController(
            model,
            stream,
            tenant.workload.spec.batch_bytes,
            config=self.config.controller,
            plan=placement.plan,
        )
        tenant.placement = placement
        tenant.board_index = placement.board_index
        tenant.controller = controller
        tenant.heartbeat = ExternalHeartbeat(controller)
        tenant.state = "running"
        tenant.ever_admitted = True
        tenant.throttle_seen = False

    def _evict(self, tenant: _TenantState, state: str) -> None:
        tenant.state = state
        if state != "stranded":
            tenant.board_index = None
        if tenant.controller is not None:
            # the adopted plan, post any on-board replans — what a
            # cross-board failover warm-starts from
            tenant.last_plan = tenant.controller.plan
        elif tenant.placement is not None:
            tenant.last_plan = tenant.placement.plan
        tenant.placement = None
        tenant.controller = None
        tenant.heartbeat = None

    def _queue_retry(self, tenant: _TenantState, window: int) -> float:
        """Schedule the tenant's next admission attempt; return delay."""
        delay = self.backoff.delay_windows(
            (tenant.tenant_id,), tenant.attempts
        )
        tenant.attempts += 1
        tenant.next_attempt_window = window + delay
        return delay

    # -- window phases -------------------------------------------------------

    def _fire_board_events(self, window: int) -> None:
        schedule = self.fault_plan.board_schedule()
        for event in schedule.get(window, ()):
            board = self.boards[event.board_index]
            if isinstance(event, BoardCrash):
                board.alive = False
                board.throttled_mhz = None
                board.throttle_until = None
                self._emit(
                    window, "board-crash", None, event.board_index,
                    f"{board.handle.name} down",
                )
            elif isinstance(event, BoardReboot):
                board.alive = True
                self._emit(
                    window, "board-reboot", None, event.board_index,
                    f"{board.handle.name} up",
                )
            elif isinstance(event, BoardThrottle):
                board.throttled_mhz = event.frequency_mhz
                board.throttle_until = (
                    window + event.duration_windows
                    if event.duration_windows is not None
                    else None
                )
                for tenant in self._running_on(event.board_index):
                    tenant.throttle_seen = False
                self._emit(
                    window, "board-throttle", None, event.board_index,
                    f"{board.handle.name} capped at "
                    f"{event.frequency_mhz:g} MHz",
                )
        # lift expired throttles
        for board_index in sorted(self.boards):
            board = self.boards[board_index]
            if (
                board.throttle_until is not None
                and window >= board.throttle_until
            ):
                board.throttled_mhz = None
                board.throttle_until = None
                self._emit(
                    window, "board-throttle", None, board_index,
                    f"{board.handle.name} back to nominal frequency",
                )

    def _admission_phase(
        self, window: int, traffic_ok: Dict[int, bool]
    ) -> None:
        due = [
            self.tenants[tid]
            for tid in sorted(self.tenants)
            if self.tenants[tid].state in ("pending", "queued")
            and self.tenants[tid].next_attempt_window <= window
        ]
        # premium tenants first; ties in id order
        due.sort(key=lambda t: (-t.priority, t.tenant_id))
        eligible = tuple(
            self.boards[b].handle
            for b in sorted(self.boards)
            if self.boards[b].alive and traffic_ok[b]
        )
        for tenant in due:
            if tenant.attempts > 0:
                self._emit(
                    window, "retry", tenant.tenant_id, None,
                    f"admission attempt {tenant.attempts + 1}",
                )
            busy = {b: self._board_busy_us(b) for b in sorted(self.boards)}
            scales = {
                b: self._throttle_scale(self.boards[b])
                for b in sorted(self.boards)
            }
            decision = evaluate_admission(
                tenant.workload,
                self.scheduler,
                eligible,
                busy,
                scales,
                self._running_energy_uj_per_window(),
                self.energy_budget_uj_per_window,
                window,
                self.config.window_period_us,
                self.config.admission,
            )
            if decision.admitted:
                board = self.boards[decision.board_index]
                placement = self.scheduler.build_placement(
                    tenant.tenant_id, board.handle
                )
                self._install(tenant, placement, window)
                self._emit(
                    window, "admit", tenant.tenant_id, decision.board_index,
                    f"modeled {decision.modeled_latency_us_per_byte:.4f} "
                    f"<= l_set {decision.l_set_us_per_byte:.4f} us/B, "
                    f"load {decision.projected_max_core_load:.3f}",
                )
            elif tenant.attempts + 1 >= self.config.admission.max_attempts:
                tenant.attempts += 1
                tenant.state = "rejected"
                self._emit(
                    window, "reject", tenant.tenant_id, None,
                    f"final after {tenant.attempts} attempts: "
                    f"{decision.reason}",
                )
            else:
                delay = self._queue_retry(tenant, window)
                tenant.state = "queued"
                self._emit(
                    window, "queue", tenant.tenant_id, None,
                    f"{decision.reason}; retry in {delay:.2f} windows",
                )

    def _rpc_phase(self, window: int, traffic_ok: Dict[int, bool]) -> None:
        for board_index in sorted(self.boards):
            board = self.boards[board_index]
            board.rpc_failures = 0
            breaker = self.breakers[board_index]
            if not traffic_ok[board_index]:
                continue
            # health ping drives the breaker, independent of tenants
            if board.alive:
                breaker.record_success(window)
            else:
                board.rpc_failures += 1
                breaker.record_failure(window)
                self._emit(
                    window, "rpc-failure", None, board_index,
                    f"health ping failed after {self.config.rpc_attempts} "
                    f"attempts",
                )
            throttle_scale = self._throttle_scale(board)
            max_load = self._max_core_load(board_index)
            slowdown = max(1.0, max_load)
            for tenant in self._running_on(board_index):
                if not board.alive:
                    board.rpc_failures += 1
                    self._emit(
                        window, "rpc-failure", tenant.tenant_id, board_index,
                        f"window RPC failed after "
                        f"{self.config.rpc_attempts} attempts",
                    )
                    tenant.measured_us_per_byte = 0.0
                    tenant.modeled_us_per_byte = 0.0
                    tenant.energy_uj = 0.0
                    tenant.violated = True
                    if self.config.failover:
                        # hold for the breaker-open failover sweep
                        self._evict(tenant, "stranded")
                    elif self.config.shedding:
                        delay = self._queue_retry(tenant, window)
                        self._evict(tenant, "queued")
                        self._emit(
                            window, "shed", tenant.tenant_id, board_index,
                            f"board dead; requeued, retry in "
                            f"{delay:.2f} windows",
                        )
                    else:
                        self._evict(tenant, "stranded")
                    continue
                plan = tenant.controller.plan
                modeled, energy, _ = tenant.controller.model.score(
                    plan.assignments, plan.graph
                )
                # until the tenant's controller has seen the DVFS signal
                # its model prices nominal frequencies; the physical cap
                # applies regardless
                factor = 1.0 if tenant.throttle_seen else throttle_scale
                noise = self._noise(tenant.tenant_id, window)
                measured = modeled * factor * slowdown * (1.0 + noise)
                tenant.measured_us_per_byte = measured
                tenant.modeled_us_per_byte = modeled
                tenant.energy_uj = (
                    energy * tenant.workload.spec.window_bytes
                )
                tenant.violated = (
                    measured > tenant.workload.l_set_us_per_byte
                )
                throttle_signal = ()
                if board.throttled_mhz is not None:
                    throttle_signal = tuple(
                        (core_id, board.throttled_mhz)
                        for core_id in board.handle.spec.core_ids
                    )
                batches = tenant.workload.spec.batches_per_window
                tenant.heartbeat.observe(
                    window,
                    [measured] * batches,
                    now_us=(window + 1) * self.config.window_period_us,
                    throttled_mhz=throttle_signal,
                )
                if throttle_signal:
                    tenant.throttle_seen = True

    def _shedding_phase(self, window: int, traffic_ok: Dict[int, bool]) -> None:
        if not self.config.shedding:
            return
        headroom = self.config.admission.headroom
        for board_index in sorted(self.boards):
            board = self.boards[board_index]
            if not board.alive or not traffic_ok[board_index]:
                continue
            # first, tenants this board can no longer serve at all
            # (sustained throttle pushed even the modeled latency past
            # their SLO) — shedding others would not save them
            scale = self._throttle_scale(board)
            for tenant in self._running_on(board_index):
                modeled = tenant.modeled_us_per_byte
                seen_scale = 1.0 if tenant.throttle_seen else scale
                floor = modeled * max(seen_scale, 1.0)
                if (
                    tenant.violated
                    and floor > tenant.workload.l_set_us_per_byte
                ):
                    delay = self._queue_retry(tenant, window)
                    self._evict(tenant, "queued")
                    self._emit(
                        window, "shed", tenant.tenant_id, board_index,
                        f"unservable here (floor {floor:.4f} > l_set "
                        f"{tenant.workload.l_set_us_per_byte:.4f} us/B); "
                        f"retry in {delay:.2f} windows",
                    )
            # then relieve plain overload, lowest priority first
            while True:
                running = self._running_on(board_index)
                if len(running) <= 1:
                    break
                if self._max_core_load(board_index) <= headroom:
                    break
                victim = min(
                    running, key=lambda t: (t.priority, t.tenant_id)
                )
                delay = self._queue_retry(victim, window)
                self._evict(victim, "queued")
                self._emit(
                    window, "shed", victim.tenant_id, board_index,
                    f"overload (headroom {headroom:.2f}); retry in "
                    f"{delay:.2f} windows",
                )

    def _failover_phase(
        self, window: int, traffic_ok: Dict[int, bool]
    ) -> None:
        if not self.config.failover:
            return
        # boards whose breaker opened by this window with stranded tenants
        for board_index in sorted(self.boards):
            breaker = self.breakers[board_index]
            if breaker.state != "open":
                continue
            victims = [
                self.tenants[tid]
                for tid in sorted(self.tenants)
                if self.tenants[tid].state == "stranded"
                and self.tenants[tid].board_index == board_index
            ]
            if not victims:
                continue
            victims.sort(key=lambda t: (-t.priority, t.tenant_id))
            source = self.boards[board_index].handle
            eligible = tuple(
                self.boards[b].handle
                for b in sorted(self.boards)
                if b != board_index
                and self.boards[b].alive
                and traffic_ok[b]
            )
            for tenant in victims:
                incumbent = tenant.last_plan
                busy = {b: self._board_busy_us(b) for b in sorted(self.boards)}
                scales = {
                    b: self._throttle_scale(self.boards[b])
                    for b in sorted(self.boards)
                }
                decision = evaluate_admission(
                    tenant.workload,
                    self.scheduler,
                    eligible,
                    busy,
                    scales,
                    self._running_energy_uj_per_window(),
                    self.energy_budget_uj_per_window,
                    window,
                    self.config.window_period_us,
                    self.config.admission,
                )
                if not decision.admitted:
                    delay = self._queue_retry(tenant, window)
                    self._evict(tenant, "queued")
                    self._emit(
                        window, "queue", tenant.tenant_id, None,
                        f"failover blocked ({decision.reason}); retry in "
                        f"{delay:.2f} windows",
                    )
                    continue
                destination = self.boards[decision.board_index].handle
                placement, cost = self.scheduler.failover_placement(
                    tenant.tenant_id,
                    source,
                    incumbent if incumbent is not None
                    else self.scheduler.plan_estimate(
                        tenant.tenant_id, source
                    ).plan,
                    destination,
                )
                self._install(tenant, placement, window)
                self._emit(
                    window, "failover", tenant.tenant_id,
                    decision.board_index,
                    f"{source.name} -> {destination.name}; migration "
                    f"pause {cost.pause_us:.1f} us, "
                    f"{cost.moved_replicas} replicas",
                )

    def _record_window(self, window: int) -> None:
        board_records = []
        for board_index in sorted(self.boards):
            board = self.boards[board_index]
            breaker = self.breakers[board_index]
            board_records.append(
                FleetBoardHealth(
                    board_index=board_index,
                    name=board.handle.name,
                    kind=board.handle.kind,
                    alive=board.alive,
                    breaker_state=breaker.state,
                    consecutive_failures=breaker.consecutive_failures,
                    throttled_mhz=board.throttled_mhz,
                    max_core_load=self._max_core_load(board_index),
                    tenants_running=len(self._running_on(board_index)),
                    rpc_failures=board.rpc_failures,
                )
            )
        tenant_records = []
        violations = 0
        energy_terms = []
        for tenant_id in sorted(self.tenants):
            tenant = self.tenants[tenant_id]
            if tenant.state == "running":
                violated = tenant.violated
            elif tenant.state in ("stranded", "queued"):
                # an interrupted stream violates its SLO every window;
                # a never-admitted tenant has no SLO yet
                violated = tenant.ever_admitted
            else:
                violated = False
            if violated:
                violations += 1
            if tenant.state == "running":
                energy_terms.append(tenant.energy_uj)
            tenant_records.append(
                FleetTenantHealth(
                    tenant_id=tenant_id,
                    name=tenant.workload.spec.name,
                    priority=tenant.priority,
                    state=tenant.state,
                    board_index=tenant.board_index,
                    l_set_us_per_byte=tenant.workload.l_set_us_per_byte,
                    modeled_latency_us_per_byte=(
                        tenant.modeled_us_per_byte
                        if tenant.state == "running" else 0.0
                    ),
                    measured_latency_us_per_byte=(
                        tenant.measured_us_per_byte
                        if tenant.state == "running" else 0.0
                    ),
                    modeled_energy_uj_per_byte=(
                        tenant.placement.estimate.energy_uj_per_byte
                        if tenant.state == "running" else 0.0
                    ),
                    violated=violated,
                )
            )
        self._windows.append(
            FleetWindowHealth(
                window_index=window,
                boards=tuple(board_records),
                tenants=tuple(tenant_records),
                violations=violations,
                energy_uj=ordered_sum(energy_terms),
            )
        )

    # -- the loop ------------------------------------------------------------

    def run(self) -> FleetHealth:
        for window in range(self.config.windows):
            self._fire_board_events(window)
            traffic_ok = {
                b: self.breakers[b].allows_traffic(window)
                for b in sorted(self.boards)
            }
            self._admission_phase(window, traffic_ok)
            self._rpc_phase(window, traffic_ok)
            self._shedding_phase(window, traffic_ok)
            self._failover_phase(window, traffic_ok)
            self._sync_breaker_events(window)
            self._record_window(window)
        return FleetHealth(
            label=self.label,
            arm=self.arm,
            seed=self.seed,
            board_count=len(self.boards),
            tenant_count=len(self.tenants),
            energy_budget_uj_per_window=self.energy_budget_uj_per_window,
            windows=tuple(self._windows),
            events=tuple(self.events),
        )
