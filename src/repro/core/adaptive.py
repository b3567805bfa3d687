"""Feedback-based regulation for dynamic workloads (paper §V-D, Eq 8).

Stream characteristics drift; the profiled cost model goes stale; the
plan starts violating the latency constraint. CStream periodically
compares measured against predicted compressing latency and, when the
relative error exceeds a threshold, enters a calibration phase: an
*incremental* PID controller (Eq 8 — not position PID, which suffers
integral saturation) nudges the model's calibratable parameters
(the computation-latency scale) until the relative error is small. The
regulator only detects and recalibrates: it reports ``drifted`` when the
calibration converges, and the session controller
(:class:`~repro.control.controller.SessionController`) owns the replan
that follows.

The controller needs at least three observations (k, k-1, k-2 appear in
Eq 8), which is why re-adaptation spans a few batches in Fig 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.cost_model import CostModel
from repro.core.plan import SchedulingPlan
from repro.errors import ConfigurationError

__all__ = [
    "IncrementalPID", "FeedbackRegulator", "RegulationEvent", "PID_GAINS",
]

#: Eq 8's (P, I, D) gains as the paper reports them from its PSO tuning
#: (§VII-A); taken as given, not re-derived.
PID_GAINS = (0.1, 0.85, 0.05)


class IncrementalPID:
    """The incremental-form PID of Eq 8.

    ``delta = P·(e_k - e_{k-1}) + I·e_k + D·(e_k - 2·e_{k-1} + e_{k-2})``
    with the paper's :data:`PID_GAINS` unless given.
    """

    def __init__(
        self,
        p: float = PID_GAINS[0],
        i: float = PID_GAINS[1],
        d: float = PID_GAINS[2],
    ) -> None:
        self.p = p
        self.i = i
        self.d = d
        self._e1: Optional[float] = None  # e_{k-1}
        self._e2: Optional[float] = None  # e_{k-2}
        self._count = 0

    def step(self, error: float) -> float:
        """Feed e_k, get the increment δ_k."""
        e1 = self._e1 if self._e1 is not None else 0.0
        e2 = self._e2 if self._e2 is not None else 0.0
        delta = (
            self.p * (error - e1)
            + self.i * error
            + self.d * (error - 2.0 * e1 + e2)
        )
        self._e2 = self._e1 if self._e1 is not None else 0.0
        self._e1 = error
        self._count += 1
        return delta

    def reset(self) -> None:
        self._e1 = None
        self._e2 = None
        self._count = 0

    @property
    def observations(self) -> int:
        """How many errors the controller has seen since reset."""
        return self._count


@dataclass(frozen=True)
class RegulationEvent:
    """What the regulator did after one observation."""

    batch_index: int
    measured_latency: float
    estimated_latency: float
    relative_error: float
    calibrating: bool
    #: the calibration converged this observation: the model now tracks
    #: the measurement and the plan in force should be reconsidered
    drifted: bool
    latency_scale: float


@dataclass
class FeedbackRegulator:
    """Watches the running plan's latency and recalibrates on drift.

    Parameters mirror §V-D: ``error_threshold`` triggers calibration
    (and ends it once the error is small again); the PID runs with the
    paper's :data:`PID_GAINS`.
    """

    model: CostModel
    error_threshold: float = 0.1
    events: List[RegulationEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0 < self.error_threshold < 1:
            raise ConfigurationError("error threshold must be in (0, 1)")
        self._pid = IncrementalPID()
        self._calibrating = False

    def _current_scale(self) -> float:
        scales = self.model.latency_scale
        if not scales:
            return 1.0
        return sum(scales.values()) / len(scales)

    def observe(
        self, batch_index: int, measured_latency: float, plan: SchedulingPlan
    ) -> RegulationEvent:
        """Compare one measurement of ``plan`` (the plan in force) against
        the model's estimate of it; calibrate on drift."""
        estimated = self.model.evaluate(plan).latency_us_per_byte
        error = measured_latency - estimated
        relative_error = abs(error) / estimated if estimated > 0 else 0.0

        drifted = False
        if not self._calibrating:
            if relative_error > self.error_threshold:
                self._calibrating = True
                self._pid.reset()
        if self._calibrating:
            # Tune the l_comp scale so the model tracks the measurement.
            delta = self._pid.step(error) / max(estimated, 1e-9)
            new_scale = max(self._current_scale() + delta, 1e-3)
            for stage in range(self.model.graph.stage_count):
                self.model.latency_scale[stage] = new_scale
            # Re-evaluate the plan in force under the new model; once
            # the model agrees with reality, the calibration is done.
            refreshed = self.model.evaluate(plan).latency_us_per_byte
            refreshed_error = abs(measured_latency - refreshed) / max(
                refreshed, 1e-9
            )
            if (
                refreshed_error <= self.error_threshold
                and self._pid.observations >= 3
            ):
                self._calibrating = False
                drifted = True

        event = RegulationEvent(
            batch_index=batch_index,
            measured_latency=measured_latency,
            estimated_latency=estimated,
            relative_error=relative_error,
            calibrating=self._calibrating,
            drifted=drifted,
            latency_scale=self._current_scale(),
        )
        self.events.append(event)
        return event
