"""Measurement records for executed stream-compression runs.

The paper's two metrics (§VI-C):

* **CLCV** — compressing-latency-constraint violation: the fraction of
  repeated measurements whose compressing latency exceeds ``L_set``;
* **E_mes** — measured energy per byte (µJ/byte), including every system
  overhead (scheduling, context switches, DVFS transitions).

For traced runs, :class:`RunResult` also carries a
:class:`~repro.obs.trace.TraceSummary` with the event-level counters.
The summary is excluded from equality so a traced result still compares
equal to its untraced twin (the determinism tests rely on this, as does
the parallel-grid equality assertion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

__all__ = ["BatchMetrics", "RepetitionResult", "RunResult"]


@dataclass(frozen=True)
class BatchMetrics:
    """One batch's measured period and energy."""

    batch_index: int
    latency_us_per_byte: float
    energy_uj_per_byte: float
    violated: bool


@dataclass(frozen=True)
class RepetitionResult:
    """One measurement run (several batches through the pipeline)."""

    repetition: int
    batches: Tuple[BatchMetrics, ...]
    latency_us_per_byte: float
    energy_uj_per_byte: float
    violated: bool
    plan_description: str = ""


@dataclass(frozen=True)
class RunResult:
    """Aggregate over the repeated measurements of one configuration."""

    repetitions: Tuple[RepetitionResult, ...]
    #: event-level digest of a traced run (None when tracing was off);
    #: comparison-neutral so traced == untraced holds for equal numbers
    trace_summary: Optional[object] = field(
        default=None, compare=False, repr=False
    )

    @property
    def clcv(self) -> float:
        """Fraction of repetitions violating the latency constraint."""
        if not self.repetitions:
            return 0.0
        return sum(r.violated for r in self.repetitions) / len(self.repetitions)

    @property
    def mean_energy_uj_per_byte(self) -> float:
        return float(
            np.mean([r.energy_uj_per_byte for r in self.repetitions])
        )

    @property
    def mean_latency_us_per_byte(self) -> float:
        return float(
            np.mean([r.latency_us_per_byte for r in self.repetitions])
        )
