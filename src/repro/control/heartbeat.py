"""Embed the session controller behind an external heartbeat.

:class:`~repro.control.controller.SessionController` was built as the
executor's window callback: the DES calls ``on_window`` with a
:class:`~repro.runtime.executor.WindowObservation` it assembled from
the simulation. The fleet tier (:mod:`repro.fleet`) runs *many*
controllers — one per placed tenant — without a DES underneath: board
load, throttles and noise are synthesized at the fleet's model level.
:class:`ExternalHeartbeat` is the adapter that makes the controller
embeddable there: the host feeds it per-window measurements and
hardware signals, it assembles the observation exactly the way the
executor would, forwards it to the controller and keeps the decision
history. The controller cannot tell the difference — drift detection,
failover replans (e.g. on a board-level throttle reported as every
core's capped frequency) and migration gating all work unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.control.controller import SessionController
from repro.runtime.executor import WindowDecision, WindowObservation

__all__ = ["ExternalHeartbeat"]


@dataclass
class ExternalHeartbeat:
    """Window-boundary pump for a controller with no executor attached.

    ``windows_observed`` and ``decisions`` mirror what the executor's
    session path would have recorded, so fleet health reports can show
    per-tenant control activity with the same vocabulary as single-board
    sessions.
    """

    controller: SessionController
    windows_observed: int = 0
    batches_fed: int = 0
    decisions: List[WindowDecision] = field(default_factory=list)

    def observe(
        self,
        window_index: int,
        latencies_us_per_byte: Sequence[float],
        now_us: float,
        failed_cores: Tuple[int, ...] = (),
        throttled_mhz: Tuple[Tuple[int, float], ...] = (),
        telemetry: Optional[object] = None,
    ) -> Optional[WindowDecision]:
        """Feed one completed window; return the controller's verdict.

        Batch indices are assigned consecutively from the number of
        batches fed so far, matching how the executor numbers a
        session's batches — the controller indexes its per-batch cost
        stream with them.
        """
        batch_count = len(latencies_us_per_byte)
        observation = WindowObservation(
            window_index=window_index,
            batch_start=self.batches_fed,
            batch_count=batch_count,
            now_us=now_us,
            latencies_us_per_byte=tuple(latencies_us_per_byte),
            failed_cores=failed_cores,
            throttled_mhz=throttled_mhz,
            telemetry=telemetry,
        )
        self.windows_observed += 1
        self.batches_fed += batch_count
        decision = self.controller.on_window(observation)
        if decision is not None:
            self.decisions.append(decision)
        return decision
