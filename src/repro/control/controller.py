"""The session controller: one replan decision whenever the model goes stale.

The executor calls :meth:`SessionController.on_window` at every window
boundary, after draining the window's in-flight batches. Three triggers
can fire, checked in this order; each makes its own edit to the cost
model, then all three run the same replan (:meth:`_replan`):

=========  =====================================  =======================
trigger    model edit, search incumbent           adoption
=========  =====================================  =======================
failover   capped frequencies enter the model;    always
           scheduler rebuilt over the survivors;
           incumbent remapped onto the
           executor's emergency routes
drift      detector recalibrates                  ``incumbent-optimal``,
           ``latency_scale``; incumbent as is     ``constraint-rescue``,
                                                  ``amortized-saving`` or
                                                  ``migration-too-costly``
diagnosis  degraded path re-priced, or retry      whenever the placement
           stage's ``latency_scale`` inflated;    moves
           scheduler rebuilt over the survivors
=========  =====================================  =======================

- **Failover** reads the heartbeat (dead or newly throttled cores).
  Every batch on an emergency route pays the reroute surcharge, so no
  amortization argument applies. The incumbent is patched with
  :meth:`~repro.simcore.boards.BoardSpec.fallback_core`, the rule the
  executor routes with, so it describes what the pipeline already does.
- **Drift** comes from the detector ``ControllerConfig.drift_detector``
  picks; neither searches. The default
  :class:`~repro.core.statistics_regulator.StatisticsAwareRegulator`
  watches every batch's per-stage instruction counts and recalibrates
  in one step (``latency_scale[stage] *= observed / baseline``); the
  paper's Eq 8 :class:`~repro.core.adaptive.FeedbackRegulator` (``pid``)
  steps ``latency_scale`` from the steady batches' latency error against
  the plan in force and fires once its calibration converges. A
  candidate that rescues a violated ``L_set`` is adopted outright;
  otherwise its modeled saving over ``horizon_windows`` windows must
  exceed the migration cost by ``min_saving_ratio``.
- **Diagnosis** (only with telemetry) fires when a window violates
  ``L_set`` without heartbeat or drift and the residual ledger
  (:mod:`repro.obs.residuals`) pins a *signal-free* fault on a degraded
  path (:meth:`~repro.core.cost_model.CostModel.apply_path_degradation`)
  or a retry-heavy stage. Each (kind, key) is acted on once per
  session: the edit is persistent, so repeating it would compound.

The search runs with ``warm_start=incumbent``: the incumbent's energy
seeds the branch-and-bound bound (strict-``>`` pruning, so ties keep
the incumbent), and the scheduler's energy-floor cache survives drift
recalibration (floors depend on κ scales, not ``latency_scale``). The
migration from the plan in force is state transfer over the board's
c0/c1/c2 paths (profiled communication table) plus the pipeline-pause
energy at static power.

Everything is deterministic: the controller draws no randomness and
reads no clocks (the ledger's tie-break epsilons come from a fixed
seed); its only inputs are the window observation — including its
telemetry, when collected — and the pre-built per-batch step costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Literal, Mapping, Optional, Sequence

from repro.compression.base import StepCost
from repro.core.adaptive import FeedbackRegulator
from repro.core.cost_model import CostModel
from repro.core.plan import SchedulingPlan, migration_cost
from repro.core.scheduler import Scheduler
from repro.core.statistics_regulator import StatisticsAwareRegulator
from repro.errors import ConfigurationError
from repro.numerics import ordered_sum
from repro.obs.health import SessionHealth, WindowHealth, build_window_health
from repro.obs.residuals import LedgerConfig, ResidualLedger
from repro.runtime.executor import WindowDecision, WindowObservation
from repro.simcore.interconnect import Path

__all__ = [
    "ControllerConfig",
    "ControlEvent",
    "FailoverEvent",
    "SessionController",
]


@dataclass(frozen=True)
class ControllerConfig:
    """Knobs of the online control loop."""

    #: the drift trigger's detector: the statistics watcher or Eq 8's PID
    drift_detector: Literal["statistics", "pid"] = "statistics"
    #: relative per-stage work shift that counts as drift (the
    #: statistics detector's trigger; 15 % is above batch noise, below
    #: real jumps)
    trigger_threshold: float = 0.15
    #: EWMA factor on observed statistics (0 = trust each batch)
    smoothing: float = 0.3
    #: windows over which a candidate plan must amortize its migration
    horizon_windows: int = 4
    #: modeled savings must exceed migration cost by this factor
    min_saving_ratio: float = 1.0
    #: multiplier on the profiled per-stage output bytes standing in for
    #: the replica state footprint — the migratable state (dictionary,
    #: counters, partial window) is a fraction of one batch's output
    state_bytes_scale: float = 0.25
    #: residual anomaly score a health attribution must clear before a
    #: diagnosis replan fires (healthy windows sit near |score| ≈ 1)
    diagnosis_threshold: float = 3.0
    #: cap on the one-shot latency_scale inflation a retry diagnosis may
    #: apply — keeps a pathological window from poisoning the model
    diagnosis_scale_cap: float = 8.0

    def __post_init__(self) -> None:
        if self.drift_detector not in ("statistics", "pid"):
            raise ConfigurationError(
                f"unknown drift detector {self.drift_detector!r}"
            )
        if self.horizon_windows < 1:
            raise ConfigurationError("horizon must span at least one window")
        if self.min_saving_ratio <= 0.0:
            raise ConfigurationError("min_saving_ratio must be positive")
        if self.diagnosis_threshold <= 0.0:
            raise ConfigurationError("diagnosis threshold must be positive")
        if self.diagnosis_scale_cap < 1.0:
            raise ConfigurationError("diagnosis scale cap must be >= 1")


@dataclass(frozen=True)
class ControlEvent:
    """One window-boundary decision, for reporting and tests."""

    window_index: int
    drifted: bool
    replanned: bool
    adopted: bool
    reason: str
    incumbent_energy_uj_per_byte: float
    candidate_energy_uj_per_byte: float
    modeled_saving_uj: float
    migration_cost_uj: float
    migration_pause_us: float
    warm_start_hits: int


@dataclass(frozen=True)
class FailoverEvent:
    """One hardware-degradation recovery, for reporting and tests."""

    window_index: int
    failed_cores: tuple
    throttled_cores: tuple
    pause_us: float
    energy_uj: float
    candidate_energy_uj_per_byte: float


class SessionController:
    """Owns the plan across a windowed session (duck-typed into
    :meth:`~repro.runtime.executor.PipelineExecutor.run_session`)."""

    def __init__(
        self,
        model: CostModel,
        per_batch_step_costs: Sequence[Mapping[str, StepCost]],
        batch_bytes: int,
        config: ControllerConfig = ControllerConfig(),
        plan: Optional[SchedulingPlan] = None,
    ) -> None:
        self.model = model
        self.per_batch_step_costs = per_batch_step_costs
        self.batch_bytes = batch_bytes
        self.config = config
        # One scheduler for the whole session: its energy-floor cache
        # and warm-start bounds are what make replans incremental. A
        # handed-in plan is never searched for, so with ``plan=`` the
        # floor cache fills on the first replan instead.
        self.scheduler = Scheduler(model)
        if config.drift_detector == "pid":
            self.regulator = FeedbackRegulator(model)
        else:
            self.regulator = StatisticsAwareRegulator(
                model,
                trigger_threshold=config.trigger_threshold,
                smoothing=config.smoothing,
            )
        self.plan: SchedulingPlan = (
            plan if plan is not None
            else self.scheduler.schedule(best_effort=True).plan
        )
        self.events: List[ControlEvent] = []
        self.failovers: List[FailoverEvent] = []
        self.replans = 0
        self.plans_adopted = 0
        self.warm_start_hits = 0
        #: residual ledger + per-window health, populated only when the
        #: executor delivers telemetry with its window observations
        self.ledger = ResidualLedger(LedgerConfig())
        self.health_windows: List[WindowHealth] = []
        self._failed_cores: set = set()
        self._throttled: dict = {}
        #: (kind, key) pairs already acted on — each model edit is
        #: persistent, so repeating it would compound the correction
        self._diagnosed: set = set()
        self._state_bytes = {
            stage: model.stage_output_bytes(stage) * config.state_bytes_scale
            for stage in range(model.graph.stage_count)
        }
        #: W == µJ/µs: prices the pipeline pause a migration causes
        self._static_power_w = model.board.static_power_w

    # -- executor callback ---------------------------------------------------

    def on_window(
        self, observation: WindowObservation
    ) -> Optional[WindowDecision]:
        """Digest one completed window; maybe hand back a plan swap."""
        # The ledger sees the window against the plan that was actually
        # in force while it ran — before any decision below mutates the
        # model or the plan.
        health: Optional[WindowHealth] = None
        if observation.telemetry is not None:
            health = self.ingest_telemetry(
                observation.telemetry, observation.latencies_us_per_byte
            )
        drifted = self._detect_drift(observation)
        # Hardware degradation outranks workload drift: a dead or newly
        # throttled core forces an immediate failover replan.
        new_failed = tuple(
            c for c in observation.failed_cores if c not in self._failed_cores
        )
        new_throttled = tuple(
            (core, mhz) for core, mhz in observation.throttled_mhz
            if self._throttled.get(core) != mhz
        )
        if new_failed or new_throttled:
            self._apply_degradation(new_failed, new_throttled)
            self._rebuild_scheduler()
            board = self.model.board
            routing = {
                core: board.fallback_core(core, self._failed_cores)
                for core in sorted(self._failed_cores)
            }
            decision = self._replan(
                observation, "failover", self.plan.remap_cores(routing)
            )
            self.failovers.append(
                FailoverEvent(
                    window_index=observation.window_index,
                    failed_cores=tuple(sorted(self._failed_cores)),
                    throttled_cores=tuple(sorted(self._throttled.items())),
                    pause_us=decision.pause_us,
                    energy_uj=decision.energy_uj,
                    candidate_energy_uj_per_byte=decision.energy_uj_per_byte,
                )
            )
            return decision
        if drifted:
            return self._replan(observation, "drift", self.plan)
        # No heartbeat, no drift: the residual ledger is the last line
        # of defense against signal-free faults.
        if health is not None and self._apply_diagnosis(health):
            self._rebuild_scheduler()
            return self._replan(observation, "diagnosis", self.plan)
        return None

    # -- residual diagnosis ---------------------------------------------------

    def ingest_telemetry(
        self, telemetry, latencies_us_per_byte: Sequence[float]
    ) -> WindowHealth:
        """Feed one window's telemetry through the residual ledger.

        Called by :meth:`on_window` for every telemetry-carrying
        observation, and by the session glue for the final window (the
        executor consults no controller after the last batch). The
        window's measured latency is the steady-batch mean — the first
        batch of a window is the boundary batch that pays the full
        pipeline traversal, which the model's steady-state estimate
        deliberately excludes.
        """
        steady = _steady(latencies_us_per_byte)
        measured_us_per_byte = ordered_sum(steady) / len(steady)
        estimate = self.model.evaluate(self.plan)
        residual = self.ledger.observe(
            telemetry,
            measured_latency_us_per_byte=measured_us_per_byte,
            plan=self.plan,
            estimate=estimate,
            model=self.model,
        )
        constraint = self.model.latency_constraint_us_per_byte
        violated = any(l > constraint for l in steady)
        health = build_window_health(
            residual, violated, self.config.diagnosis_threshold
        )
        self.health_windows.append(health)
        return health

    def session_health(self, label: str) -> SessionHealth:
        """The session's health report so far (windows in order)."""
        return SessionHealth(
            label=label,
            board=self.model.board.name,
            latency_constraint_us_per_byte=(
                self.model.latency_constraint_us_per_byte
            ),
            windows=tuple(self.health_windows),
        )

    def _apply_diagnosis(self, health: WindowHealth) -> bool:
        """Edit the model around a component the health report implicates.

        Acts only on windows that violate ``L_set`` with an anomalous
        attribution on a *signal-free* component — a degraded path or a
        retry-heavy stage — and returns whether it edited the model.
        Core attributions stay report-only: an underperforming core that
        matters shows up through the heartbeat (throttle/failure) or
        drift triggers, which own those responses.
        """
        attribution = health.attribution
        if attribution is None or not health.violated:
            return False
        if attribution.kind not in ("path", "retry"):
            return False
        if (attribution.kind, attribution.key) in self._diagnosed:
            return False
        self._diagnosed.add((attribution.kind, attribution.key))

        window = self.ledger.windows[-1]
        component = next(
            c for c in window.components
            if c.kind == attribution.kind and c.key == attribution.key
        )
        cap = self.config.diagnosis_scale_cap
        if attribution.kind == "path":
            if component.predicted_us_per_byte > 0.0:
                factor = (
                    component.measured_us_per_byte
                    / component.predicted_us_per_byte
                )
            else:
                factor = cap
            factor = min(max(factor, 1.0), cap)
            self.model.apply_path_degradation(Path(attribution.key), factor)
            return True
        stage = int(attribution.key)
        replica_l_comp = [
            t.l_comp_us_per_byte
            for t in self.model.evaluate(self.plan).task_estimates
            if t.stage_index == stage
        ]
        mean_l_comp = (
            ordered_sum(replica_l_comp) / len(replica_l_comp)
            if replica_l_comp else 0.0
        )
        if mean_l_comp <= 0.0:
            return False
        scale = min(1.0 + component.measured_us_per_byte / mean_l_comp, cap)
        self.model.latency_scale[stage] = (
            self.model.latency_scale.get(stage, 1.0) * scale
        )
        return True

    # -- internals -----------------------------------------------------------

    def _detect_drift(self, observation: WindowObservation) -> bool:
        """Feed the window to the drift detector; ``True`` when it
        recalibrated the model. The PID sees the steady batches' latency
        against the plan in force, the statistics watcher every batch's
        step costs."""
        end = observation.batch_start + observation.batch_count
        if self.config.drift_detector == "pid":
            steady = _steady(observation.latencies_us_per_byte)
            events = [
                self.regulator.observe(batch_index, latency, self.plan)
                for batch_index, latency in zip(
                    range(end - len(steady), end), steady
                )
            ]
        else:
            events = [
                self.regulator.observe(
                    batch_index, self.per_batch_step_costs[batch_index]
                )
                for batch_index in range(observation.batch_start, end)
            ]
        return any(event.drifted for event in events)

    def _apply_degradation(
        self, new_failed: Sequence[int], new_throttled: Sequence
    ) -> None:
        """Record the heartbeat's news and teach the cost model the
        capped frequencies, so candidates price throttled cores
        honestly."""
        self._failed_cores.update(new_failed)
        for core, mhz in new_throttled:
            current = self._throttled.get(core)
            self._throttled[core] = (
                mhz if current is None else min(current, mhz)
            )
        if new_throttled:
            fmap = dict(self.model.frequency_map or {})
            for core, mhz in self._throttled.items():
                fmap[core] = min(fmap.get(core, mhz), mhz)
            self.model.frequency_map = fmap

    def _rebuild_scheduler(self) -> None:
        """A fresh scheduler over the surviving cores, so later drift
        replans search the same cores. The old one's energy-floor cache
        predates the model edit."""
        surviving = [
            c.core_id for c in self.model.board.cores
            if c.core_id not in self._failed_cores
        ]
        self.scheduler = Scheduler(self.model, allowed_cores=surviving)

    def _replan(
        self,
        observation: WindowObservation,
        trigger: str,
        incumbent_plan: SchedulingPlan,
    ) -> WindowDecision:
        """Search from ``incumbent_plan``, price the move away from the
        plan in force, and apply ``trigger``'s adoption gate."""
        self.replans += 1
        incumbent = self.model.evaluate(incumbent_plan)
        result = self.scheduler.schedule(
            best_effort=True, warm_start=incumbent_plan
        )
        candidate = result.estimate
        hits = (
            result.search_stats.warm_start_hits
            if result.search_stats is not None
            else 0
        )
        self.warm_start_hits += hits

        delta = self.plan.diff(candidate.plan)
        cost = migration_cost(
            delta,
            self.model.board,
            self.model.communication,
            self._state_bytes,
        )
        window_bytes = float(self.batch_bytes * observation.batch_count)
        saving_uj = (
            incumbent.energy_uj_per_byte - candidate.energy_uj_per_byte
        ) * window_bytes * self.config.horizon_windows
        cost_uj = cost.energy_uj + cost.pause_us * self._static_power_w

        reason = trigger
        if trigger == "failover":
            adopted = True
        elif trigger == "diagnosis":
            adopted = not delta.is_empty
        elif delta.is_empty:
            adopted, reason = False, "incumbent-optimal"
        elif not incumbent.feasible and candidate.feasible:
            adopted, reason = True, "constraint-rescue"
        elif saving_uj > cost_uj * self.config.min_saving_ratio:
            adopted, reason = True, "amortized-saving"
        else:
            adopted, reason = False, "migration-too-costly"

        self.events.append(
            ControlEvent(
                window_index=observation.window_index,
                drifted=trigger == "drift",
                replanned=True,
                adopted=adopted,
                reason=reason,
                incumbent_energy_uj_per_byte=incumbent.energy_uj_per_byte,
                candidate_energy_uj_per_byte=candidate.energy_uj_per_byte,
                modeled_saving_uj=saving_uj,
                migration_cost_uj=cost_uj,
                migration_pause_us=cost.pause_us,
                warm_start_hits=hits,
            )
        )
        if adopted:
            self.plans_adopted += 1
            self.plan = candidate.plan
        return WindowDecision(
            replanned=True,
            adopted=adopted,
            reason=reason,
            plan=candidate.plan if adopted else None,
            pause_us=cost.pause_us if adopted else 0.0,
            energy_uj=cost.energy_uj if adopted else 0.0,
            moved_replicas=cost.moved_replicas,
            moves=delta.describe(),
            energy_uj_per_byte=candidate.energy_uj_per_byte,
            warm_start_hits=hits,
        )


def _steady(latencies_us_per_byte: Sequence[float]) -> tuple:
    """A window's steady batches: all but the first, which pays the full
    pipeline traversal after the drain barrier (a one-batch window keeps
    its only batch)."""
    latencies = tuple(latencies_us_per_byte)
    return latencies[1:] if len(latencies) > 1 else latencies
