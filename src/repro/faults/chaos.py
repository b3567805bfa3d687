"""Chaos sessions: static vs adaptive arms under injected faults.

Glue used by ``cstream chaos`` and :mod:`repro.bench.exp_chaos`: build
one fault scenario (a :class:`~repro.faults.model.FaultPlan` aimed at
the static plan's most load-bearing core), then run the same windowed
session three ways — fault-free static (the healthy baseline the energy
overhead is measured against), faulted static (``controller=None``: it
limps along on emergency reroutes forever) and faulted adaptive (a
:class:`~repro.control.controller.SessionController` whose failover
path replans over the surviving cores). All three share the stream, the
window structure and the seed, so the differences are the fault and the
control loop alone.

The session's latency constraint is derived from the static plan's own
modeled latency times ``latency_margin`` — tight enough that degraded
hardware violates it, loose enough that the healthy plan (and a good
replacement plan) meets it. That is what makes "the adaptive arm ends
with strictly fewer steady-state violations" a meaningful acceptance
bar rather than an artifact of an arbitrary constraint.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.control.controller import SessionController
from repro.control.session import (
    SESSION_BATCH_BYTES,
    SESSION_WARMUP_BATCHES,
    finalize_session_health,
    run_static_session,
    steady_batches,
    summarize_session,
)
from repro.errors import ConfigurationError
from repro.obs.health import SessionHealth
from repro.obs.residuals import TelemetryCollector
from repro.faults.model import (
    BatchCorruption,
    CoreFailure,
    CoreStall,
    DvfsThrottle,
    FaultPlan,
    InterconnectDegradation,
)
from repro.runtime.executor import (
    ExecutionConfig,
    PipelineExecutor,
    SessionResult,
)

__all__ = [
    "CHAOS_SCENARIOS",
    "ChaosSpec",
    "ChaosComparison",
    "build_fault_plan",
    "run_chaos_session",
]

#: named fault scenarios ``cstream chaos`` and the bench experiment sweep
CHAOS_SCENARIOS = (
    "core-failure",
    "throttle",
    "stall",
    "interconnect",
    "corruption",
    "core-failure+corruption",
)

#: surcharge on emergency-rerouted work after a core failure: the batch
#: re-executes cold — state re-fetched over the interconnect, caches and
#: branch predictors unprimed, queues doubled up
_REROUTE_PENALTY = 1.5
#: the ``throttle`` scenario's frequency cap, MHz
_THROTTLE_MHZ = 600.0
#: the ``stall`` scenario's one-off stall, µs
_STALL_US = 40_000.0
#: the ``interconnect`` scenario's degraded path class and slowdown
_DEGRADATION_PATH = "c1"
_DEGRADATION_FACTOR = 6.0


@dataclass(frozen=True)
class ChaosSpec:
    """One fault scenario for a chaos session."""

    codec: str = "tcomp32"
    dataset: str = "rovio"
    #: batch size in bytes (None: ``SESSION_BATCH_BYTES``)
    batch_bytes: Optional[int] = None
    scenario: str = "core-failure"
    batches: int = 18
    window_batches: int = 3
    #: the batch boundary at which hardware faults fire
    fault_batch: int = 7
    #: session L_set = static plan's modeled latency x this margin
    latency_margin: float = 1.35
    corruption_probability: float = 0.15

    def __post_init__(self) -> None:
        if self.scenario not in CHAOS_SCENARIOS:
            raise ConfigurationError(
                f"unknown scenario {self.scenario!r}; "
                f"expected one of {CHAOS_SCENARIOS}"
            )
        if self.window_batches < 1:
            raise ConfigurationError("window must hold at least one batch")
        if self.batches <= SESSION_WARMUP_BATCHES:
            raise ConfigurationError("warmup must leave measurable batches")
        if not 0 < self.fault_batch < self.batches:
            raise ConfigurationError(
                "fault_batch must fall inside the session"
            )
        if self.latency_margin <= 1.0:
            raise ConfigurationError("latency margin must exceed 1")


@dataclass(frozen=True)
class ChaosComparison:
    """Fault-free baseline vs faulted static vs faulted adaptive."""

    spec: ChaosSpec
    victim_core: int
    l_set_us_per_byte: float
    fault_plan: FaultPlan
    baseline: SessionResult
    static: SessionResult
    adaptive: SessionResult
    baseline_energy_uj_per_byte: float
    static_energy_uj_per_byte: float
    adaptive_energy_uj_per_byte: float
    static_violations: int
    adaptive_violations: int
    #: violations among steady-state batches only (window-boundary
    #: batches pay the full pipeline traversal in every arm alike)
    static_steady_violations: int
    adaptive_steady_violations: int
    #: µs from the first fault firing to sustained recovery (the first
    #: steady-state completion with a violation-free steady suffix);
    #: None: no fault fired, or the arm never recovered
    static_recovery_us: Optional[float]
    adaptive_recovery_us: Optional[float]
    controller_events: Tuple
    failover_events: Tuple
    #: residual-attribution health report of the adaptive arm (None
    #: when the session ran with ``telemetry=False``)
    health: Optional[SessionHealth] = None

    def energy_overhead(self, arm_energy: float) -> float:
        """Relative energy cost of surviving the fault vs fault-free."""
        if self.baseline_energy_uj_per_byte == 0.0:
            return 0.0
        return arm_energy / self.baseline_energy_uj_per_byte - 1.0

    @property
    def static_energy_overhead(self) -> float:
        return self.energy_overhead(self.static_energy_uj_per_byte)

    @property
    def adaptive_energy_overhead(self) -> float:
        return self.energy_overhead(self.adaptive_energy_uj_per_byte)


def build_fault_plan(spec: ChaosSpec, victim_core: int) -> FaultPlan:
    """The scenario's fault events, aimed at ``victim_core``."""
    events: List = []
    if spec.scenario in ("core-failure", "core-failure+corruption"):
        events.append(CoreFailure(
            core_id=victim_core,
            at_batch=spec.fault_batch,
            reroute_penalty=_REROUTE_PENALTY,
        ))
    if spec.scenario == "throttle":
        events.append(DvfsThrottle(
            core_id=victim_core,
            at_batch=spec.fault_batch,
            frequency_mhz=_THROTTLE_MHZ,
        ))
    if spec.scenario == "stall":
        events.append(CoreStall(
            core_id=victim_core,
            at_batch=spec.fault_batch,
            stall_us=_STALL_US,
        ))
    if spec.scenario == "interconnect":
        events.append(InterconnectDegradation(
            at_batch=spec.fault_batch,
            path=_DEGRADATION_PATH,
            factor=_DEGRADATION_FACTOR,
        ))
    if spec.scenario in ("corruption", "core-failure+corruption"):
        events.append(BatchCorruption(
            probability=spec.corruption_probability,
            from_batch=spec.fault_batch,
        ))
    return FaultPlan(events=tuple(events))


def _pick_victim(plan, board) -> int:
    """The static plan's most load-bearing core: the first big core it
    uses (the asymmetry-aware plans lean on big cores for the heavy
    stages), else the first core used at all."""
    used = plan.cores_used()
    for core_id in used:
        if board.core_by_id[core_id].is_big:
            return core_id
    return used[0]


def _recovery_us(
    result: SessionResult, window_batches: int
) -> Optional[float]:
    """µs between the first fault firing and sustained recovery: the
    completion of the first steady-state batch after which no later
    steady-state batch violates the constraint (window-boundary batches
    pay the full pipeline traversal in every arm alike, so they neither
    count as violations here nor earn recovery credit). ``None`` means
    no fault fired, or the arm never reaches a clean suffix — it limps
    to the end of the session still violating."""
    if not result.fault_events:
        return None
    fault_ts = min(event.ts_us for event in result.fault_events)
    steady = steady_batches(result.batches, window_batches)
    last_bad = max(
        (b.batch_index for b in steady if b.violated), default=-1
    )
    for batch in steady:
        completed = result.completion_ts_us[batch.batch_index]
        if completed <= fault_ts or batch.batch_index <= last_bad:
            continue
        return completed - fault_ts
    return None


def run_chaos_session(
    harness=None,
    spec: ChaosSpec = ChaosSpec(),
    trace=None,
    telemetry: bool = True,
) -> ChaosComparison:
    """Run one fault scenario and compare the three arms.

    ``trace`` (a :class:`~repro.obs.trace.TraceRecorder`) is attached to
    the *adaptive faulted* session only — the run whose fault, failover
    and retry events are worth inspecting. ``telemetry`` (default on:
    chaos sessions exist to be diagnosed) runs the adaptive arm with a
    residual-ledger collector, which both fills
    :attr:`ChaosComparison.health` and arms the controller's
    ``reason="diagnosis"`` replan path — the only path that can see the
    signal-free interconnect-degradation and batch-corruption faults.
    """
    if harness is None:
        # The process-wide harness: its board, seed and profile batch
        # count are constants; the environment picks only its result
        # cache directory, which serves byte-identical profiles.
        from repro.bench.harness import default_harness  # csa: ignore[CSA010]

        harness = default_harness()
    # WorkloadSpec is the key type of the harness's profile cache; its
    # default batch size comes from the environment, so pass it in.
    from repro.bench.harness import WorkloadSpec  # csa: ignore[CSA010]

    workload = WorkloadSpec.of(
        spec.codec,
        spec.dataset,
        batch_size=(
            SESSION_BATCH_BYTES if spec.batch_bytes is None
            else spec.batch_bytes
        ),
    )
    context = harness.context(workload)
    profile = harness.profile(workload)
    batch_bytes = workload.batch_size

    # The static plan is scheduled under the paper's constraint; the
    # session's own L_set is that plan's modeled latency plus margin.
    static = context.plan(context.fine_graph)
    static_plan = static.plan
    l_set = static.estimate.latency_us_per_byte * spec.latency_margin
    victim = _pick_victim(static_plan, harness.board)
    fault_plan = build_fault_plan(spec, victim)

    # Steady (drift-free) per-batch stream: the profiled batches cycled.
    per_batch = profile.per_batch_step_costs
    stream = [
        per_batch[index % len(per_batch)] for index in range(spec.batches)
    ]

    def _config(with_faults: bool) -> ExecutionConfig:
        return ExecutionConfig(
            latency_constraint_us_per_byte=l_set,
            repetitions=1,
            batches_per_repetition=spec.batches,
            warmup_batches=SESSION_WARMUP_BATCHES,
            seed=harness.seed,
            fault_plan=fault_plan if with_faults else None,
        )

    def _run(config, controller, recorder=None, collector=None) -> SessionResult:
        return PipelineExecutor(
            harness.board, config, trace=recorder, telemetry=collector
        ).run_session(
            static_plan,
            stream,
            batch_bytes,
            window_batches=spec.window_batches,
            controller=controller,
        )

    # The fault-free baseline reads no scenario field, so every
    # scenario of one stream shares one simulation of it.
    baseline_result = run_static_session(
        harness.board, _config(False), static_plan, stream, batch_bytes,
        spec.window_batches,
    )
    static_result = _run(_config(True), None)

    # The controller's model carries the *session's* constraint, not the
    # paper default the static plan was scheduled under — a failover
    # replan must be judged against the L_set the session is actually
    # held to (on boards where l_set < the paper constraint, a plan
    # feasible at the paper constraint can still violate every batch).
    adaptive_context = harness.context(
        dataclasses.replace(workload, latency_constraint=l_set)
    )
    adaptive_model = adaptive_context.cost_model(adaptive_context.fine_graph)
    controller = SessionController(
        adaptive_model, stream, batch_bytes, plan=static_plan
    )
    collector = TelemetryCollector() if telemetry else None
    adaptive_result = _run(
        _config(True), controller, recorder=trace, collector=collector
    )
    health = None
    if collector is not None:
        health = finalize_session_health(
            controller, collector, adaptive_result, batch_bytes,
            label=f"chaos:{spec.scenario}",
        )

    baseline_energy, _, _ = summarize_session(
        baseline_result, spec.window_batches
    )
    static_energy, static_violations, static_steady = summarize_session(
        static_result, spec.window_batches
    )
    adaptive_energy, adaptive_violations, adaptive_steady = summarize_session(
        adaptive_result, spec.window_batches
    )
    return ChaosComparison(
        spec=spec,
        victim_core=victim,
        l_set_us_per_byte=l_set,
        fault_plan=fault_plan,
        baseline=baseline_result,
        static=static_result,
        adaptive=adaptive_result,
        baseline_energy_uj_per_byte=baseline_energy,
        static_energy_uj_per_byte=static_energy,
        adaptive_energy_uj_per_byte=adaptive_energy,
        static_violations=static_violations,
        adaptive_violations=adaptive_violations,
        static_steady_violations=static_steady,
        adaptive_steady_violations=adaptive_steady,
        static_recovery_us=_recovery_us(static_result, spec.window_batches),
        adaptive_recovery_us=_recovery_us(
            adaptive_result, spec.window_batches
        ),
        controller_events=tuple(controller.events),
        failover_events=tuple(controller.failovers),
        health=health,
    )
