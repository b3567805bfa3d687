"""Statistics-aware regulation (the paper's future-work controller).

§V-D closes by noting that the PID regulator's response "may be lagged
when facing a bursting workload" — it needs at least three observations
(Eq 8) — and that "more sophisticated controllers that monitor workload
statistical information in the datastream may achieve an even better
response". This module implements that controller.

Instead of inferring drift from the *latency error* (an indirect,
lagging signal), :class:`StatisticsAwareRegulator` watches the
*per-stage instruction counts* the codec's counters report for each
batch — the direct driver of Eq 6. When a stage's work shifts beyond a
threshold against the profiled baseline, the model is recalibrated in a
single step (scale = observed / baseline) and the drift is reported at
once: a distribution jump is handled in one batch instead of three or
four. Like the PID regulator it only detects and recalibrates; the
session controller (:class:`~repro.control.controller.SessionController`)
owns the replan.

The trade-off is sensitivity: the PID integrates noise away, while the
statistics watcher must tell real drift from batch-to-batch variation.
It smooths each stage's observed work with an EWMA
(``_SMOOTHING``) and acts only when the smoothed work moves more than
``_TRIGGER_THRESHOLD`` (15 %) from its baseline; acting re-anchors the
baseline at the smoothed work, so one jump fires once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.compression.base import StepCost
from repro.core.cost_model import CostModel

__all__ = ["StatisticsAwareRegulator", "StatisticsEvent"]

#: relative per-stage work shift that counts as drift: above batch
#: noise, below any real range jump
_TRIGGER_THRESHOLD = 0.15

#: EWMA weight of the previous smoothed value (0 would trust each batch)
_SMOOTHING = 0.3


@dataclass(frozen=True)
class StatisticsEvent:
    """Outcome of one batch observation."""

    batch_index: int
    #: per-stage observed/baseline instruction ratios
    stage_shifts: Mapping[int, float]
    max_shift: float
    #: the shift crossed the trigger and the model was recalibrated —
    #: the drift signal a session controller acts on
    drifted: bool


@dataclass
class StatisticsAwareRegulator:
    """Detects drift from direct workload-statistics observation.

    ``model`` is the cost model to keep calibrated (its
    ``latency_scale`` is the calibrated parameter, as in the PID
    regulator).
    """

    model: CostModel
    events: List[StatisticsEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._baseline = self._stage_instructions_from_profile()
        self._smoothed: Dict[int, float] = dict(self._baseline)
        #: ``id(mapping) -> (mapping, per-stage merged instructions)``;
        #: the entry holds the mapping, so its id cannot be reused while
        #: the entry lives. A stationary stream repeats one mapping
        #: object, so each distinct batch is merged once.
        self._stage_rows: Dict[int, Tuple[Mapping[str, StepCost], Tuple[float, ...]]] = {}

    def _stage_instructions_from_profile(self) -> Dict[int, float]:
        return {
            stage: self.model.stage_instructions(stage)
            for stage in range(self.model.graph.stage_count)
        }

    def observe(
        self, batch_index: int, batch_step_costs: Mapping[str, StepCost]
    ) -> StatisticsEvent:
        """Feed one batch's per-step costs; recalibrate on drift.

        A mapping is read once, on its first observation: the caller must
        not mutate it afterwards.
        """
        shifts: Dict[int, float] = {}
        for stage, observed in enumerate(self._stage_row(batch_step_costs)):
            previous = self._smoothed[stage]
            smoothed = _SMOOTHING * previous + (1.0 - _SMOOTHING) * observed
            self._smoothed[stage] = smoothed
            shifts[stage] = smoothed / self._baseline[stage]

        max_shift = max(abs(ratio - 1.0) for ratio in shifts.values())
        drifted = max_shift > _TRIGGER_THRESHOLD
        if drifted:
            # One-step recalibration: the observed work *is* the new
            # baseline; Eq 6 scales linearly in instructions.
            for stage, ratio in shifts.items():
                self.model.latency_scale[stage] = (
                    self.model.latency_scale.get(stage, 1.0) * ratio
                )
                self._baseline[stage] = self._smoothed[stage]

        event = StatisticsEvent(
            batch_index=batch_index,
            stage_shifts=shifts,
            max_shift=max_shift,
            drifted=drifted,
        )
        self.events.append(event)
        return event

    def _stage_row(
        self, batch_step_costs: Mapping[str, StepCost]
    ) -> Tuple[float, ...]:
        """Each stage's merged instructions for one batch mapping, in
        stage order, computed once per mapping object."""
        entry = self._stage_rows.get(id(batch_step_costs))
        if entry is None:
            row = tuple(
                task.merged_cost(batch_step_costs).instructions
                for task in self.model.graph.tasks
            )
            entry = (batch_step_costs, row)
            self._stage_rows[id(batch_step_costs)] = entry
        return entry[1]
