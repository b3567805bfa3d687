"""Pipeline executor: runs a scheduling plan on the simulated board.

One *repetition* pushes several batches through the task pipeline as a
discrete-event simulation:

* every task replica is a DES process pinned to its core;
* cores are FIFO servers — colocated tasks serialize, with a context
  switch charged between different tasks (capacity, Eq 3);
* inter-stage data moves through message channels priced by the
  interconnect (Eq 7) — one message per producer/consumer pair;
* service times carry multiplicative lognormal noise (plus any
  mechanism-specific jitter, e.g. OS migration noise);
* a batch's energy is its busy energy (with replication and
  shared-state-lock overheads), an even share of the meter's switch and
  DVFS overhead, static power over its period and — when the pipeline's
  period overruns ``L_set`` — an *overload buffering* penalty for the backlog
  that accumulates upstream (see DESIGN.md).

Measured compressing latency of a batch is the pipeline's steady-state
inter-departure period normalized by the batch size (µs/byte), which is
exactly what Eq 2's ``L_est = max(l_i)`` predicts.

Observability: construct with ``trace=TraceRecorder()`` and the executor
emits task service spans, context-switch/migration counters, batch
boundaries, fault injections, DVFS transitions, queue depths and energy
samples as the DES runs, then attaches a
:class:`~repro.obs.trace.TraceSummary` to the returned
:class:`RunResult`. Tracing is strictly read-only — it consumes no RNG
draws and schedules no events — so a traced run's numbers are
byte-identical to an untraced run's (tests assert this).
"""

from __future__ import annotations

import gc
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.compression.base import StepCost
from repro.core.plan import SchedulingPlan
from repro.errors import ConfigurationError
from repro.faults.model import (
    CoreFailure,
    CoreStall,
    DvfsThrottle,
    FaultPlan,
    FiredFault,
    InterconnectDegradation,
    corruption_schedule,
)
from repro.memo import lru_lookup
from repro.numerics import mean, ordered_sum
from repro.obs.trace import TraceRecorder, set_active_recorder
from repro.runtime.metrics import BatchMetrics, RepetitionResult, RunResult
from repro.simcore.boards import BoardSpec
from repro.simcore.dvfs import Governor, StaticGovernor, get_governor
from repro.simcore.engine import Event, Simulator, Store
from repro.simcore.hardware import replication_factor
from repro.simcore.interconnect import Path
from repro.simcore.power import EnergyMeter

__all__ = [
    "ExecutionConfig",
    "MechanismDynamics",
    "PipelineExecutor",
    "WindowObservation",
    "WindowDecision",
    "SessionResult",
    "window_latencies",
]

#: κ assumed for context-switch work (kernel code, cache refills)
_SWITCH_KAPPA = 50.0
#: real cpufreq governors re-evaluate every ~10 ms; the executor decides
#: per batch, so transition costs scale by the missed decision points
GOVERNOR_SAMPLING_PERIOD_US = 10_000.0
#: overrun (µs/byte) at which the overload penalty saturates — beyond it
#: the ingest queue drops data — and the flat µJ/byte cost of spilling
#: the backlog once a batch violates
_OVERLOAD_PENALTY_CAP_US_PER_BYTE = 8.0
_OVERLOAD_BASE_PENALTY = 0.08
#: time and energy penalty per extra replica of a shared-state stage
#: (lock traffic, Fig 5)
_SHARED_STATE_LOCK_PENALTY = 0.165
_SHARED_STATE_ENERGY_PENALTY = 0.10
#: relative latency cost of one OS migration event
_MIGRATION_LATENCY_FRACTION = 0.08

#: bound of the repetition-seed memo; a grid's cells share their seeds
_SEED_STATES_MAX = 1024
_SEED_STATES: "OrderedDict[int, dict]" = OrderedDict()


def _seed_state(seed: int) -> dict:
    """``np.random.default_rng(seed).bit_generator.state``, memoized
    process-wide (least recently used evicted; callers only read it)."""
    return lru_lookup(
        _SEED_STATES, seed, _SEED_STATES_MAX, lambda: np.random.PCG64(seed).state
    )


@dataclass(frozen=True)
class ExecutionConfig:
    """Knobs of one measurement campaign."""

    latency_constraint_us_per_byte: float
    repetitions: int = 100
    batches_per_repetition: int = 6
    warmup_batches: int = 2
    noise_sigma: float = 0.006
    seed: int = 0
    governor: str = "default"
    frequency_map: Optional[Mapping[int, float]] = None
    #: µJ/byte charged per µs/byte of period overrun (backlog buffering)
    overload_penalty: float = 0.10
    #: shared-state stages pay the lock penalties per extra replica
    shared_state: bool = False
    #: injected fault schedule (see :mod:`repro.faults`)
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.latency_constraint_us_per_byte <= 0:
            raise ConfigurationError("latency constraint must be positive")
        if self.repetitions < 1 or self.batches_per_repetition < 1:
            raise ConfigurationError("need at least one repetition and batch")
        if self.warmup_batches >= self.batches_per_repetition:
            raise ConfigurationError("warmup must leave measurable batches")


@dataclass(frozen=True)
class MechanismDynamics:
    """Runtime behaviour injected by the parallelization mechanism."""

    #: preemption context switches per KiB of data processed
    context_switches_per_kb: float = 0.001
    #: probability per batch that the OS migrates a task (latency spike)
    migration_rate_per_batch: float = 0.0
    #: extra lognormal jitter on service times (scheduler interference)
    latency_jitter_sigma: float = 0.0


class _CoreServer:
    """FIFO work server for one core inside a repetition's DES.

    A callback chain on the calendar (see DESIGN.md "Callback core
    servers"): ``submit`` queues an item, and an idle server takes it
    with one zero-delay *kick*. The kick charges a context switch when
    the task differs from the last one served (a ``switch_us`` pause),
    then the service runs; its completion hands the next queued item to
    a fresh kick or marks the server idle. Kick, pause and completion
    are calendar thunks (bound methods queued with
    ``Simulator._schedule``), each in the slot its event would take.

    Trace hooks sit at those points, each behind its own
    ``trace is not None`` guard, so an untraced run pays one attribute
    test per hook: the ``coreN.runq`` depth (items still waiting after
    every hand-off, plus an opening zero sample), the ``ctx-switch``
    span and ``context_switches`` counter, and the task's service span.
    Spans are emitted when they *start* (their duration is known then)
    and the counter when the switch ends, so every event on a core
    track is emitted at the simulated time it carries: per-track time
    order (trace invariant TRC001) holds by construction.
    """

    def __init__(
        self,
        simulator: Simulator,
        core_spec,
        frequency_mhz: float,
        meter: EnergyMeter,
        switch_instructions: float,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.simulator = simulator
        self.core = core_spec
        self.frequency_mhz = frequency_mhz
        self.meter = meter
        self.switch_instructions = switch_instructions
        self.trace = trace
        self.busy_us = 0.0
        self.energy_by_batch: Dict[int, float] = {}
        self.spans: List = []  # (task_name, batch, start_us, end_us)
        self._last_task: Optional[str] = None
        self.failed = False
        self.failover: Optional["_CoreServer"] = None
        self.forward_penalty = 1.0
        # (frequency -> (switch_us, switch_energy)) — η/power lookups
        # for the fixed switch κ leave the hot path; DVFS refills.
        self._switch_costs: Dict[float, tuple] = {}
        self._queue = deque()
        self._current = None  # the item being served; None when idle
        self._start_us = 0.0
        self._runq = f"core{core_spec.core_id}.runq"
        if trace is not None:
            trace.queue_depth(self._runq, 0, simulator.now)

    def fail(self, failover: "_CoreServer", penalty: float) -> None:
        """Mark the core permanently dead.

        Work already queued here (the in-flight batch) is lost and
        re-enqueued on ``failover``: its duration rescales by the η
        ratio of the two cores at the reference κ times ``penalty``
        (emergency re-execution without the planned placement), and its
        energy scales with the re-executed occupancy. The dead core
        emits no further service spans (trace invariant TRC006).
        """
        self.failed = True
        self.failover = failover
        self.forward_penalty = penalty

    def submit(
        self,
        task_name: str,
        batch_index: int,
        duration_us: float,
        energy_uj: float,
    ):
        """Queue ``duration_us`` of occupancy drawing ``energy_uj``."""
        free = self.simulator._free
        done = free.pop() if free else Event(self.simulator)
        done.recyclable = True
        item = (task_name, batch_index, duration_us, energy_uj, done)
        if self._current is None:
            self._dispatch(item)
        else:
            self._queue.append(item)
        trace = self.trace
        if trace is not None:
            trace.queue_depth(self._runq, len(self._queue), self.simulator.now)
        return done

    def _dispatch(self, item) -> None:
        self._current = item
        self.simulator._schedule(0.0, self._begin)

    def _begin(self) -> None:
        task_name, batch_index, duration, energy_uj, done = self._current
        if self.failed:
            # The dead core's in-flight batch is lost; re-enqueue it on
            # the failover server and complete the waiter when the
            # re-execution does. No span, busy time or energy lands on
            # this core.
            target = self.failover
            scale = (
                self.core.eta_at(_SWITCH_KAPPA, self.frequency_mhz)
                / target.core.eta_at(_SWITCH_KAPPA, target.frequency_mhz)
            ) * self.forward_penalty
            forwarded = target.submit(
                task_name, batch_index, duration * scale, energy_uj * scale
            )
            forwarded.callbacks.append(
                lambda _e, waiter=done: waiter.succeed(None)
            )
            self._next()
            return
        if self._last_task is not None and self._last_task != task_name:
            frequency = self.frequency_mhz
            cached = self._switch_costs.get(frequency)
            if cached is None:
                switch_us = self.switch_instructions / self.core.eta_at(
                    _SWITCH_KAPPA, frequency
                )
                cached = (
                    switch_us,
                    switch_us
                    * self.core.busy_power_w(_SWITCH_KAPPA, frequency),
                )
                self._switch_costs[frequency] = cached
            switch_us = cached[0]
            self.meter.record_overhead(cached[1])
            self.busy_us += switch_us
            trace = self.trace
            if trace is not None:
                now = self.simulator.now
                trace.span(
                    "ctx-switch", self.core.core_id, now, now + switch_us
                )
            self.simulator._schedule(switch_us, self._after_switch)
            return
        self._start()

    def _after_switch(self) -> None:
        trace = self.trace
        if trace is not None:
            trace.context_switch(self.core.core_id, 1.0, self.simulator.now)
        self._start()

    def _start(self) -> None:
        task_name, batch_index, duration = self._current[:3]
        self._last_task = task_name
        start = self._start_us = self.simulator.now
        # The same sum the calendar computes for the completion time.
        end = start + duration
        self.spans.append((task_name, batch_index, start, end))
        trace = self.trace
        if trace is not None:
            trace.span(
                task_name, self.core.core_id, start, end, batch=batch_index
            )
        self.simulator._schedule(duration, self._complete)

    def _complete(self) -> None:
        _task, batch_index, duration, energy_uj, done = self._current
        mean_power = energy_uj / duration if duration > 0 else 0.0
        energy = self.meter.record_busy(self._start_us, duration, mean_power)
        self.busy_us += duration
        energy_by_batch = self.energy_by_batch
        energy_by_batch[batch_index] = (
            energy_by_batch.get(batch_index, 0.0) + energy
        )
        done.succeed(None)
        self._next()

    def _next(self) -> None:
        queue = self._queue
        if queue:
            self._dispatch(queue.popleft())
        else:
            self._current = None
        trace = self.trace
        if trace is not None:
            trace.queue_depth(self._runq, len(queue), self.simulator.now)


def window_latencies(
    completions: Union[Mapping[int, float], Sequence[float]],
    batch_start: int,
    batch_count: int,
    batch_bytes: int,
) -> List[float]:
    """Per-batch latency (µs/byte) of one window: each batch's
    completion gap to the batch before it, over the batch size.
    ``completions`` gives each batch's completion time, µs."""
    previous = completions[batch_start - 1] if batch_start > 0 else 0.0
    latencies = []
    for batch_index in range(batch_start, batch_start + batch_count):
        completed = completions[batch_index]
        latencies.append((completed - previous) / batch_bytes)
        previous = completed
    return latencies


@dataclass(frozen=True)
class WindowObservation:
    """What the executor tells a session controller at a window boundary.

    ``latencies_us_per_byte`` are the window's per-batch inter-departure
    periods normalized by batch size — the same quantity the static
    path's :class:`BatchMetrics` report (energy shares are only known at
    the end of the run, so they are not part of the observation).
    """

    window_index: int
    batch_start: int
    batch_count: int
    now_us: float
    latencies_us_per_byte: Tuple[float, ...]
    #: cores that died (permanent fault) up to this boundary — the
    #: heartbeat signal a controller's failover path reads
    failed_cores: Tuple[int, ...] = ()
    #: fault-throttled cores and their capped frequency (MHz)
    throttled_mhz: Tuple[Tuple[int, float], ...] = ()
    #: the window's :class:`~repro.obs.residuals.WindowTelemetry` when
    #: the executor was built with a telemetry collector; ``None``
    #: otherwise (duck-typed — the runtime never imports the obs layer)
    telemetry: Optional[object] = None


@dataclass(frozen=True)
class WindowDecision:
    """A controller's verdict for the next window.

    ``replanned=False`` (or a ``None`` return from the controller)
    keeps the incumbent plan without emitting any trace event. With
    ``replanned=True`` the executor records a ``replan`` instant;
    ``adopted=True`` additionally swaps to ``plan``, charging
    ``pause_us`` of pipeline stall and ``energy_uj`` of transfer energy
    before the next window starts.
    """

    replanned: bool = False
    adopted: bool = False
    reason: str = ""
    plan: Optional[SchedulingPlan] = None
    pause_us: float = 0.0
    energy_uj: float = 0.0
    moved_replicas: int = 0
    moves: str = ""
    energy_uj_per_byte: float = 0.0
    warm_start_hits: int = 0


@dataclass(frozen=True)
class SessionResult:
    """Outcome of one windowed session (:meth:`PipelineExecutor.run_session`)."""

    batches: Tuple[BatchMetrics, ...]
    windows: int
    replans: int
    plans_adopted: int
    migration_pause_us: float
    migration_energy_uj: float
    plan_descriptions: Tuple[str, ...]
    decisions: Tuple[WindowDecision, ...]
    #: faults that fired during the session, in firing order
    fault_events: Tuple[FiredFault, ...] = ()
    #: per-batch completion timestamps (µs) — recovery latency is read
    #: off these against the fault firing times
    completion_ts_us: Tuple[float, ...] = ()

    @property
    def final_plan_description(self) -> str:
        return self.plan_descriptions[-1] if self.plan_descriptions else ""

    def measured(self, warmup_batches: int) -> Tuple[BatchMetrics, ...]:
        return self.batches[warmup_batches:]


class _PlanLayout:
    """What one plan's pipeline looks like, built once per run.

    Structure and replication terms depend on the plan alone, never on
    a repetition, so an executor keeps one layout per (graph,
    assignments, locked stages) and a repetition builds only its
    stores, generators and completion state. A task is a tuple (stage,
    replica, core, ``s{stage}r{replica}`` label, process name, replica
    count, replication latency and energy factors, shared-state lock
    latency and energy factors, is root, is last, routes); a route is
    (consumer stage, its replica count, where this stage's replicas
    start in its flattened inbox order). The values are the expressions
    the task preamble used to evaluate per repetition, so every
    simulated number is unchanged.
    """

    __slots__ = ("graph", "producer_counts", "tasks", "roots", "description")

    def __init__(
        self, plan: SchedulingPlan, board: BoardSpec, lock_stages: frozenset
    ) -> None:
        graph = self.graph = plan.graph
        counts = [len(cores) for cores in plan.assignments]
        producers = [graph.predecessors_of(s) for s in range(len(counts))]
        self.producer_counts = [
            sum(counts[p] for p in stages) if stages else 1
            for stages in producers
        ]
        tasks = []
        for stage, cores in enumerate(plan.assignments):
            count = counts[stage]
            # predecessors are ascending: the offset sums those before us
            routes = tuple(
                (consumer, counts[consumer],
                 sum(counts[p] for p in producers[consumer] if p < stage))
                for consumer in graph.successors_of(stage)
            )
            factors = (
                replication_factor(board.replication_latency_overhead, count),
                replication_factor(board.replication_energy_overhead, count),
            ) + ((
                1.0 + _SHARED_STATE_LOCK_PENALTY * (count - 1),
                1.0 + _SHARED_STATE_ENERGY_PENALTY * (count - 1),
            ) if stage in lock_stages else (1.0, 1.0))
            for replica, core in enumerate(cores):
                label = f"s{stage}r{replica}"
                tasks.append((
                    stage, replica, core, label, f"task-{label}", count,
                    *factors, not producers[stage], stage == len(counts) - 1,
                    routes,
                ))
        self.tasks = tasks
        self.roots = graph.roots()
        self.description = plan.describe()


class _RepetitionRun:
    """One repetition's DES state: simulator, servers, meter, governor.

    Shared by the one-shot path (:meth:`PipelineExecutor.run_single`) and
    the windowed session path (:meth:`PipelineExecutor.run_session`).
    Event-creation order is what fixes the heap's sequence numbers — and
    with them the interleaving and the RNG draw order — so construction
    mirrors the historical one-shot order exactly: core servers, then
    shared-state locks, then (per spawned plan) message channels, task
    processes and finally the source.
    """

    def __init__(
        self,
        executor: "PipelineExecutor",
        per_batch_step_costs: Sequence[Mapping[str, StepCost]],
        graph,
        batch_bytes: int,
        rng: np.random.Generator,
        governor: Governor,
        dynamics: MechanismDynamics,
        shared_state_stages: Set[int],
        repetition: int = 0,
    ) -> None:
        self.config = executor.config
        self.board = executor.board
        self.trace = executor.trace
        self.telemetry = executor.telemetry
        self.batch_bytes = batch_bytes
        self.rng = rng
        self.governor = governor
        self.dynamics = dynamics
        self.shared_state_stages = shared_state_stages
        self.batch_count = len(per_batch_step_costs)
        self.interconnect = self.board.interconnect
        #: keeps the layouts, hop and switch prices across repetitions
        self.executor = executor

        # Injected-fault state. Everything is pre-resolved here so the
        # fault-free path stays byte-identical: empty dicts make every
        # in-loop guard a no-op and no extra RNG draw ever happens.
        fault_plan = self.config.fault_plan
        self.fault_schedule: Dict[int, Tuple] = (
            fault_plan.schedule_for(repetition)
            if fault_plan is not None else {}
        )
        self.corrupted = (
            corruption_schedule(fault_plan, repetition, self.batch_count)
            if fault_plan is not None else {}
        )
        self.failed_cores: Dict[int, int] = {}  # dead core -> fallback
        self.fault_throttled: Dict[int, float] = {}
        self.reroute_penalty = 0.0
        self.fired_faults: List[FiredFault] = []

        # Per-batch merged stage costs (global batch indices). A pure
        # function of (graph, step costs), both of which every
        # repetition of one measurement shares — so the merged rows are
        # memoized on the executor (identity-keyed; the rows are never
        # mutated) instead of being rebuilt 60 times per cell. A stream
        # cycles a few profiled rows, so each distinct row is merged once.
        memo = executor._stage_costs_memo
        if (
            memo is not None
            and memo[0] is graph
            and memo[1] is per_batch_step_costs
        ):
            self.stage_costs: List[List[StepCost]] = memo[2]
        else:
            merged: Dict[int, List[StepCost]] = {}
            for costs in per_batch_step_costs:
                if id(costs) not in merged:
                    merged[id(costs)] = [task.merged_cost(costs) for task in graph.tasks]
            self.stage_costs = [merged[id(costs)] for costs in per_batch_step_costs]
            executor._stage_costs_memo = (
                graph, per_batch_step_costs, self.stage_costs
            )

        # The clock closes over the simulator, not over this run, so a
        # finished repetition holds no reference cycle through it.
        simulator = self.simulator = Simulator(trace=self.trace)
        clock = lambda: simulator.now
        self.meter = EnergyMeter(trace=self.trace, clock=clock)
        if self.trace is not None:
            governor.attach_trace(self.trace, clock)
        self.servers = {
            core.core_id: _CoreServer(
                simulator,
                core,
                governor.frequency_of(core.core_id),
                self.meter,
                self.board.context_switch_instructions,
                trace=self.trace,
            )
            for core in self.board.cores
        }

        # Shared-state stages serialize through a lock: one token per
        # stage, so replicated workers of that stage cannot overlap —
        # this is what nullifies data parallelism in Fig 5's "share"
        # configuration.
        self.stage_locks: Dict[int, Store] = {}
        if self.config.shared_state:
            for stage_index in sorted(shared_state_stages):
                lock = Store(self.simulator, capacity=1)
                lock.put(object())
                self.stage_locks[stage_index] = lock

        self.completions: Dict[int, float] = {}
        self.pending_stall: Dict[int, float] = {}
        self.previous_busy: Dict[int, float] = {c: 0.0 for c in self.servers}
        self.previous_time = 0.0
        self.completed_batches = 0

    # -- governor / fault hook ----------------------------------------------

    def on_batch_complete(self) -> None:
        """Sink hook: inject faults, feed the DVFS governor."""
        self.completed_batches += 1
        if self.fault_schedule:
            for event in self.fault_schedule.pop(self.completed_batches, ()):
                self._fire(event)
        governor = self.governor
        if not governor.adapts:
            return
        servers = self.servers
        now = self.simulator.now
        elapsed = now - self.previous_time
        if elapsed <= 0.0:
            return
        utilization = {}
        for core_id, server in servers.items():
            utilization[core_id] = min(
                (server.busy_us - self.previous_busy[core_id]) / elapsed, 1.0
            )
            self.previous_busy[core_id] = server.busy_us
        self.previous_time = now
        before = dict(governor.frequencies)
        after = governor.observe(utilization)
        changes = [c for c in after if after[c] != before[c]]
        if changes:
            # A change at batch granularity stands for the decisions
            # the real governor made every sampling period meanwhile.
            samples = max(elapsed / GOVERNOR_SAMPLING_PERIOD_US, 1.0)
            stall_us, energy_uj = governor.transition_cost(len(changes))
            scale = samples * governor.oscillation_factor
            self.meter.record_overhead(energy_uj * scale)
            for core_id in changes:
                servers[core_id].frequency_mhz = after[core_id]
                self.pending_stall[core_id] = (
                    self.pending_stall.get(core_id, 0.0) + stall_us * scale
                )

    # -- fault firing --------------------------------------------------------

    def route_core(self, core_id: int) -> int:
        """Resolve a planned core through the failure map (transitively,
        in case a fallback died later)."""
        seen = set()
        while core_id in self.failed_cores and core_id not in seen:
            seen.add(core_id)
            core_id = self.failed_cores[core_id]
        return core_id

    def _fire(self, event) -> None:
        """Apply one batch-boundary fault event to the live simulation."""
        servers = self.servers
        trace = self.trace
        now = self.simulator.now
        core_id = getattr(event, "core_id", -1)
        if isinstance(event, DvfsThrottle):
            if core_id not in servers:
                return
            server = servers[core_id]
            server.frequency_mhz = min(server.frequency_mhz, event.frequency_mhz)
            self.fault_throttled[core_id] = min(
                self.fault_throttled.get(core_id, float("inf")),
                event.frequency_mhz,
            )
            if trace is not None:
                trace.fault(core_id, now, event.frequency_mhz)
            detail = f"capped at {event.frequency_mhz:g} MHz"
        elif isinstance(event, CoreStall):
            if core_id not in servers:
                return
            self.pending_stall[core_id] = (
                self.pending_stall.get(core_id, 0.0) + event.stall_us
            )
            if trace is not None:
                trace.core_stall(core_id, now, event.stall_us)
            detail = f"stalled {event.stall_us:g} us"
        elif isinstance(event, CoreFailure):
            if core_id not in servers or core_id in self.failed_cores:
                return
            target = self.board.fallback_core(core_id, self.failed_cores)
            self.failed_cores[core_id] = target
            self.reroute_penalty = max(
                self.reroute_penalty, event.reroute_penalty
            )
            servers[core_id].fail(servers[target], 1.0 + event.reroute_penalty)
            if trace is not None:
                trace.core_failure(core_id, target, now)
            detail = f"failover to core {target}"
        elif isinstance(event, InterconnectDegradation):
            self.interconnect = self.interconnect.degraded(
                Path(event.path), event.factor
            )
            if trace is not None:
                trace.interconnect_degraded(event.path, now, event.factor)
            detail = f"{event.path} slowed x{event.factor:g}"
        else:
            return
        self.fired_faults.append(FiredFault(
            kind=event.kind, ts_us=now, batch=self.completed_batches,
            core_id=core_id, detail=detail,
        ))

    # -- plan spawning -------------------------------------------------------

    def spawn_plan(
        self, plan: SchedulingPlan, batch_start: int, batch_count: int
    ) -> List:
        """Create channels and processes running ``plan`` over the batch
        range ``[batch_start, batch_start + batch_count)``.

        Returns the spawned processes (tasks + source); every process
        ends after its last batch, so joining them all is the session
        path's in-flight draining barrier at a window boundary.
        """
        board = self.board
        trace = self.trace
        telemetry = self.telemetry
        simulator = self.simulator
        meter = self.meter
        servers = self.servers
        stage_costs = self.stage_costs
        completions = self.completions
        pending_stall = self.pending_stall
        executor = self.executor
        layout = executor._layout(plan, self.shared_state_stages)
        hops = executor._hops
        switch_costs = executor._switch_costs

        # Message channels: one store per (producer, consumer) pair so a
        # fast producer cannot make a consumer start a batch before every
        # upstream share has arrived. A consumer's inboxes are indexed by
        # flattened (predecessor stage ascending, replica ascending) —
        # the deterministic join order: a join stage drains every
        # producer's store in that fixed sequence, so fan-in arrival
        # order can never reorder simulated events. Root stages (no
        # predecessors) hold a single source-token store instead.
        stage_inputs: List[List[List[Store]]] = [
            [
                [
                    Store(simulator, capacity=1, name=(
                        f"q.s{stage}r{replica}.p{producer}"
                        if trace is not None else None
                    ))
                    for producer in range(producer_count)
                ]
                for replica in range(len(cores))
            ]
            for stage, (cores, producer_count) in enumerate(
                zip(plan.assignments, layout.producer_counts)
            )
        ]
        final_tokens: Dict[int, int] = {}
        final_replicas = len(plan.assignments[-1])
        # Constant across every task's batch loop, so the per-batch body
        # (the simulator's hottest Python) only computes what varies.
        sigma = self.config.noise_sigma + self.dynamics.latency_jitter_sigma
        draw_noise = sigma > 0
        rng_lognormal = self.rng.lognormal
        rng_random = self.rng.random
        record_overhead = meter.record_overhead
        migration_rate = self.dynamics.migration_rate_per_batch
        has_migration = migration_rate > 0.0
        kib_switches = self.dynamics.context_switches_per_kb

        def task_process(task):
            (
                stage_index, replica_index, core_id, task_label, _name,
                replicas, lat_overhead, energy_factor, lock_factor,
                lock_energy_factor, is_root, is_last_stage, routes,
            ) = task
            inboxes = stage_inputs[stage_index][replica_index]
            successor_routes = [
                (stage_inputs[consumer], count, offset + replica_index)
                for consumer, count, offset in routes
            ]
            extra_switches = (
                (self.batch_bytes / replicas) / 1024.0 * kib_switches
            )
            has_switches = extra_switches > 0.0
            lock = self.stage_locks.get(stage_index)
            for batch_index in range(batch_start, batch_start + batch_count):
                # Planned placement, resolved through the failure map. On
                # a healthy run failed_cores is empty and this is the
                # planned core, byte-for-byte.
                routed_core = core_id
                if self.failed_cores:
                    routed_core = self.route_core(core_id)
                server = servers[routed_core]
                core = server.core
                if is_root:
                    yield inboxes[0].get(transient=True)  # source token
                else:
                    # Deterministic join barrier: drain every upstream
                    # store in fixed (predecessor stage asc, replica asc)
                    # order before any compute, so fan-in arrival order
                    # cannot perturb the simulation.
                    comm_us = 0.0
                    for inbox in inboxes:
                        _batch, producer_core, transfer_bytes = (
                            yield inbox.get(transient=True)
                        )
                        # Each hop is priced once per run and interconnect:
                        # the entry holds the interconnect, so its id is
                        # not reused, and a degraded copy re-prices.
                        interconnect = self.interconnect
                        hop_key = (
                            id(interconnect), producer_core, routed_core,
                            transfer_bytes,
                        )
                        hop = hops.get(hop_key)
                        if hop is None:
                            path = board.path_between(producer_core, routed_core)
                            hop = hops[hop_key] = (
                                interconnect.transfer_latency_us(
                                    path, transfer_bytes
                                ),
                                interconnect.message_energy(path),
                                path.value,
                                interconnect,
                            )
                        comm_us += hop[0]
                        record_overhead(hop[1])
                        if telemetry is not None:
                            telemetry.comm(hop[2], hop[0], batch_index)
                    if comm_us > 0.0:
                        yield simulator.timeout(comm_us, transient=True)
                cost = stage_costs[batch_index][stage_index]
                kappa = cost.operational_intensity
                frequency = server.frequency_mhz
                eta = core.eta_at(kappa, frequency)
                power = core.busy_power_w(kappa, frequency)
                noise = float(rng_lognormal(0.0, sigma)) if draw_noise else 1.0
                base_duration = cost.instructions / replicas / eta * noise
                duration = base_duration * lock_factor * lat_overhead
                energy_uj = (
                    base_duration * power * energy_factor * lock_energy_factor
                )
                if routed_core != core_id:
                    # Emergency-rerouted work runs off-plan: cold caches
                    # and doubled-up queues until the controller replans.
                    duration *= 1.0 + self.reroute_penalty
                    energy_uj *= 1.0 + self.reroute_penalty
                if has_migration and rng_random() < migration_rate:
                    duration *= 1.0 + _MIGRATION_LATENCY_FRACTION
                    record_overhead(
                        base_duration * _MIGRATION_LATENCY_FRACTION * power
                    )
                    if trace is not None:
                        trace.migration(routed_core, simulator.now)
                if has_switches:
                    # The switches' time and overhead energy depend only
                    # on their count and the routed core at its
                    # (governor-adjustable) frequency: priced once per run.
                    switch_key = (routed_core, frequency, extra_switches)
                    switch = switch_costs.get(switch_key)
                    if switch is None:
                        switch_us = (
                            extra_switches * board.context_switch_instructions
                            / core.eta_at(_SWITCH_KAPPA, frequency)
                        )
                        switch = switch_costs[switch_key] = (
                            switch_us,
                            switch_us * core.busy_power_w(_SWITCH_KAPPA, frequency),
                        )
                    duration += switch[0]
                    record_overhead(switch[1])
                    if trace is not None:
                        trace.context_switch(
                            routed_core, extra_switches, simulator.now
                        )
                duration += pending_stall.pop(routed_core, 0.0)
                if lock is not None:
                    token = yield lock.get(transient=True)
                yield server.submit(task_label, batch_index, duration, energy_uj)
                if lock is not None:
                    yield lock.put(token, transient=True)
                if not is_last_stage:
                    # Fan-out: the full batch output is broadcast to each
                    # successor stage, split evenly across its replicas —
                    # matching the cost model's per-edge share.
                    for consumer_inboxes, consumer_count, slot in successor_routes:
                        share = cost.output_bytes / replicas / consumer_count
                        for consumer_index in range(consumer_count):
                            yield consumer_inboxes[consumer_index][slot].put(
                                (batch_index, routed_core, share),
                                transient=True,
                            )
                    continue
                final_tokens[batch_index] = final_tokens.get(batch_index, 0) + 1
                if final_tokens[batch_index] != final_replicas:
                    continue
                corrupt = self.corrupted.pop(batch_index, None)
                if corrupt is not None:
                    # Decode verification caught a corrupt batch: re-run
                    # the final stage after each capped exponential
                    # backoff. The inflated completion time is what
                    # violation accounting sees.
                    if trace is not None:
                        trace.batch_corrupted(
                            batch_index, simulator.now, corrupt.attempts,
                            exhausted=corrupt.exhausted,
                        )
                    self.fired_faults.append(FiredFault(
                        kind="batch-corruption", ts_us=simulator.now,
                        batch=batch_index, core_id=routed_core,
                        detail=f"{corrupt.attempts} retries"
                        + (" (exhausted)" if corrupt.exhausted else ""),
                    ))
                    for attempt, backoff in enumerate(corrupt.backoff_us):
                        if trace is not None:
                            trace.batch_retry(
                                batch_index, attempt, simulator.now,
                                backoff_us=backoff,
                            )
                        yield simulator.timeout(
                            duration + backoff, transient=True
                        )
                        meter.record_overhead(energy_uj)
                    if telemetry is not None:
                        telemetry.retry(
                            batch_index,
                            stage_index,
                            ordered_sum(
                                duration + backoff
                                for backoff in corrupt.backoff_us
                            ),
                            corrupt.attempts,
                        )
                completions[batch_index] = simulator.now
                if trace is not None:
                    trace.batch_complete(batch_index, simulator.now)
                self.on_batch_complete()

        def source_process():
            root_inputs = [stage_inputs[stage] for stage in layout.roots]
            for batch_index in range(batch_start, batch_start + batch_count):
                for consumers in root_inputs:
                    for consumer_inboxes in consumers:
                        yield consumer_inboxes[0].put(
                            (batch_index, -1, 0.0), transient=True
                        )

        processes = [
            simulator.process(task_process(task), name=task[4])
            for task in layout.tasks
        ]
        processes.append(simulator.process(source_process(), name="source"))
        return processes

    def check_complete(self) -> None:
        if len(self.completions) != self.batch_count:
            missing = self.batch_count - len(self.completions)
            raise ConfigurationError(
                f"pipeline deadlocked: {missing} batches never completed"
            )


class PipelineExecutor:
    """Runs scheduling plans on a simulated board and measures them.

    After a run, :attr:`last_trace` gives the final repetition's
    execution trace: ``{core_id: [(task, batch, start_us, end_us), ...]}``
    — the raw material for Gantt rendering and occupancy debugging.

    ``trace`` attaches a :class:`~repro.obs.trace.TraceRecorder`; the
    run then also emits structured events (see the module docstring) and
    the returned :class:`RunResult` carries a ``trace_summary``.
    """

    def __init__(
        self,
        board: BoardSpec,
        config: ExecutionConfig,
        trace: Optional[TraceRecorder] = None,
        telemetry=None,
    ) -> None:
        self.board = board
        self.config = config
        self.trace = trace
        #: optional :class:`~repro.obs.residuals.TelemetryCollector`
        #: (duck-typed); ``None`` keeps every hook site dormant so the
        #: run stays byte-identical to a pre-telemetry build
        self.telemetry = telemetry
        self._static_power_w = board.static_power_w
        #: the last repetition's core servers, read by :attr:`last_trace`
        self._last_servers: Dict[int, _CoreServer] = {}
        #: (graph, per_batch_step_costs, merged rows) — see _RepetitionRun
        self._stage_costs_memo = None
        #: (id(graph), assignments, lock stages) -> layout, which holds
        #: the graph so its id stays taken
        self._layouts: Dict[tuple, _PlanLayout] = {}
        #: (id(interconnect), producer core, routed core, bytes) -> hop
        #: price, (routed core, MHz, switch count) -> switch price
        self._hops: Dict[tuple, tuple] = {}
        self._switch_costs: Dict[tuple, tuple] = {}

    @property
    def last_trace(self) -> Dict[int, List]:
        return {
            core_id: list(server.spans)
            for core_id, server in self._last_servers.items()
        }

    # -- public API ---------------------------------------------------------

    def run(
        self,
        plan: Union[SchedulingPlan, Callable[[int, np.random.Generator], SchedulingPlan]],
        per_batch_step_costs: Sequence[Mapping[str, StepCost]],
        batch_bytes: int,
        dynamics: MechanismDynamics = MechanismDynamics(),
        shared_state_stages: Set[int] = frozenset(),
    ) -> RunResult:
        """Measure a plan (or a per-repetition plan factory) repeatedly.

        Repetition ``r`` draws from ``np.random.default_rng(seed +
        7919·r)``: one PCG64 is reset to that seed's memoized state.
        """
        config = self.config
        bit_generator = np.random.PCG64(config.seed)
        rng = np.random.Generator(bit_generator)
        repetition_results = []
        if self.trace is not None:
            # Publish the recorder so instrumentation points that plan
            # providers reach without a trace argument (eas_place) can
            # report; untraced runs never touch the ambient slot.
            set_active_recorder(self.trace)
        # The DES allocates generators/tuples in bulk and (with the
        # event free-list) frees almost nothing mid-repetition, so cycle
        # collection passes are pure overhead here. Pause the collector
        # for the measurement loop; one pass at the end reclaims cycles.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            for repetition in range(config.repetitions):
                bit_generator.state = _seed_state(
                    config.seed + 7919 * repetition
                )
                if self.trace is not None:
                    self.trace.begin_repetition(repetition)
                current_plan = plan(repetition, rng) if callable(plan) else plan
                batches = self.run_single(
                    current_plan, per_batch_step_costs, batch_bytes, rng,
                    dynamics=dynamics, shared_state_stages=shared_state_stages,
                    repetition=repetition,
                )
                measured = batches[config.warmup_batches:]
                latency = mean([b.latency_us_per_byte for b in measured])
                repetition_results.append(
                    RepetitionResult(
                        repetition=repetition,
                        batches=tuple(batches),
                        latency_us_per_byte=latency,
                        energy_uj_per_byte=mean(
                            [b.energy_uj_per_byte for b in measured]
                        ),
                        violated=latency
                        > config.latency_constraint_us_per_byte,
                        plan_description=self._layout(
                            current_plan, shared_state_stages
                        ).description,
                    )
                )
        finally:
            if gc_was_enabled:
                gc.enable()
            if self.trace is not None:
                set_active_recorder(None)
        result = RunResult(repetitions=tuple(repetition_results))
        if self.trace is not None:
            result = replace(result, trace_summary=self.trace.summary())
        return result

    def run_single(
        self,
        plan: SchedulingPlan,
        per_batch_step_costs: Sequence[Mapping[str, StepCost]],
        batch_bytes: int,
        rng: np.random.Generator,
        dynamics: MechanismDynamics = MechanismDynamics(),
        shared_state_stages: Set[int] = frozenset(),
        repetition: int = 0,
    ) -> List[BatchMetrics]:
        """One repetition of :meth:`run`: ``plan`` over every batch,
        drawing from ``rng``, measured batch by batch."""
        run = _RepetitionRun(
            self,
            per_batch_step_costs,
            plan.graph,
            batch_bytes,
            rng,
            self._make_governor(),
            dynamics,
            shared_state_stages,
            repetition=repetition,
        )
        run.spawn_plan(plan, 0, run.batch_count)
        return self._finish(run, batch_bytes)

    # -- internals ------------------------------------------------------------

    def _layout(
        self, plan: SchedulingPlan, shared_state_stages: Set[int]
    ) -> _PlanLayout:
        """``plan``'s layout, built on its first use in this executor."""
        lock_stages = (
            frozenset(shared_state_stages)
            if self.config.shared_state else frozenset()
        )
        key = (id(plan.graph), plan.assignments, lock_stages)
        layout = self._layouts.get(key)
        if layout is None:
            layout = self._layouts[key] = _PlanLayout(
                plan, self.board, lock_stages
            )
        return layout

    def _make_governor(self) -> Governor:
        if self.config.governor == "default":
            return StaticGovernor(self.board, self.config.frequency_map)
        return get_governor(self.config.governor, self.board)

    def _finish(
        self, run: _RepetitionRun, batch_bytes: int
    ) -> List[BatchMetrics]:
        """Run the simulation out, keep its trace and measure it."""
        run.simulator.run()
        run.check_complete()
        self._last_servers = run.servers
        if self.trace is not None:
            self.trace.end_repetition(
                window_us=max(run.completions.values(), default=0.0),
                batch_bytes=batch_bytes,
                batches=run.batch_count,
            )
        return self._collect_metrics(run, batch_bytes)

    # -- windowed session (online control loop) -------------------------------

    def run_session(
        self,
        plan: SchedulingPlan,
        per_batch_step_costs: Sequence[Mapping[str, StepCost]],
        batch_bytes: int,
        *,
        window_batches: int,
        controller=None,
        dynamics: MechanismDynamics = MechanismDynamics(),
        shared_state_stages: Set[int] = frozenset(),
    ) -> SessionResult:
        """One continuous repetition executed window by window.

        Batches run in windows of ``window_batches``; at every window
        boundary the pipeline drains (the window's processes all end —
        no batch is in flight) and ``controller.on_window(observation)``
        may hand back a :class:`WindowDecision`. An adopted decision
        swaps the plan for the next window after charging the modeled
        migration pause and transfer energy, so reconfiguration shows up
        in both the latency and the energy of the measurement.

        ``controller=None`` replays the static plan with the same window
        structure — the baseline an adaptive session is compared to.
        The controller is duck-typed so :mod:`repro.control` can stay a
        downstream package (the runtime never imports it).
        """
        if window_batches < 1:
            raise ConfigurationError("window must hold at least one batch")
        config = self.config
        rng = np.random.default_rng(config.seed)
        governor = self._make_governor()
        trace = self.trace
        telemetry = self.telemetry
        if trace is not None:
            set_active_recorder(trace)
            trace.begin_repetition(0)
        try:
            run = _RepetitionRun(
                self,
                per_batch_step_costs,
                plan.graph,
                batch_bytes,
                rng,
                governor,
                dynamics,
                shared_state_stages,
            )
            batch_count = run.batch_count
            windows = [
                (start, min(window_batches, batch_count - start))
                for start in range(0, batch_count, window_batches)
            ]
            decisions: List[WindowDecision] = []
            plan_descriptions: List[str] = []
            totals = {"replans": 0, "adopted": 0, "pause_us": 0.0, "energy_uj": 0.0}

            def orchestrator():
                current = plan
                for window_index, (start, count) in enumerate(windows):
                    plan_descriptions.append(
                        self._layout(current, shared_state_stages).description
                    )
                    processes = run.spawn_plan(current, start, count)
                    # Draining barrier: every task has finished its last
                    # batch of this window before anything is reconfigured.
                    yield run.simulator.all_of(processes)
                    window_telemetry = None
                    if telemetry is not None:
                        window_telemetry = telemetry.collect_window(
                            window_index, start, count, batch_bytes,
                            run.servers,
                        )
                    if controller is None or window_index == len(windows) - 1:
                        continue
                    latencies = window_latencies(
                        run.completions, start, count, batch_bytes
                    )
                    decision = controller.on_window(
                        WindowObservation(
                            window_index=window_index,
                            batch_start=start,
                            batch_count=count,
                            now_us=run.simulator.now,
                            latencies_us_per_byte=tuple(latencies),
                            failed_cores=tuple(sorted(run.failed_cores)),
                            throttled_mhz=tuple(
                                sorted(run.fault_throttled.items())
                            ),
                            telemetry=window_telemetry,
                        )
                    )
                    if decision is None or not decision.replanned:
                        continue
                    decisions.append(decision)
                    totals["replans"] += 1
                    if trace is not None:
                        trace.replan(
                            window_index,
                            run.simulator.now,
                            adopted=decision.adopted,
                            reason=decision.reason,
                            energy_uj_per_byte=decision.energy_uj_per_byte,
                            warm_start_hits=decision.warm_start_hits,
                        )
                    if not decision.adopted or decision.plan is None:
                        continue
                    totals["adopted"] += 1
                    if decision.pause_us > 0.0 or decision.energy_uj > 0.0:
                        totals["pause_us"] += decision.pause_us
                        totals["energy_uj"] += decision.energy_uj
                        run.meter.record_overhead(decision.energy_uj)
                        if trace is not None:
                            trace.plan_migration(
                                window_index,
                                run.simulator.now,
                                pause_us=decision.pause_us,
                                moved_replicas=decision.moved_replicas,
                                energy_uj=decision.energy_uj,
                                description=decision.moves,
                            )
                        if decision.pause_us > 0.0:
                            yield run.simulator.timeout(decision.pause_us)
                    current = decision.plan

            run.simulator.process(orchestrator(), name="session-controller")
            metrics = self._finish(run, batch_bytes)
        finally:
            if trace is not None:
                set_active_recorder(None)
        return SessionResult(
            batches=tuple(metrics),
            windows=len(windows),
            replans=totals["replans"],
            plans_adopted=totals["adopted"],
            migration_pause_us=totals["pause_us"],
            migration_energy_uj=totals["energy_uj"],
            plan_descriptions=tuple(plan_descriptions),
            decisions=tuple(decisions),
            fault_events=tuple(run.fired_faults),
            completion_ts_us=tuple(
                run.completions[b] for b in range(batch_count)
            ),
        )

    def _collect_metrics(
        self, run: _RepetitionRun, batch_bytes: int
    ) -> List[BatchMetrics]:
        config = self.config
        limit = config.latency_constraint_us_per_byte
        penalized = config.overload_penalty > 0.0
        completions = run.completions
        batch_count = len(completions)
        static_power = self._static_power_w

        energy_by_batch = [0.0] * batch_count
        for server in run.servers.values():
            for batch_index, energy in server.energy_by_batch.items():
                energy_by_batch[batch_index] += energy
        overhead_share = run.meter.overhead_uj / batch_count

        metrics: List[BatchMetrics] = []
        previous = 0.0
        for batch_index in range(batch_count):
            completed = completions[batch_index]
            period_us = completed - previous
            previous = completed
            latency = period_us / batch_bytes
            energy = (
                energy_by_batch[batch_index]
                + static_power * period_us
                + overhead_share
            )
            violated = latency > limit
            if (
                violated
                and penalized
                and batch_index >= config.warmup_batches
            ):
                excess = min(latency - limit, _OVERLOAD_PENALTY_CAP_US_PER_BYTE)
                energy += (
                    _OVERLOAD_BASE_PENALTY + config.overload_penalty * excess
                ) * batch_bytes
            metrics.append(
                BatchMetrics(batch_index, latency, energy / batch_bytes, violated)
            )
        return metrics
