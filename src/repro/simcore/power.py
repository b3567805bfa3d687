"""Power accounting and the board energy meter.

The paper measures energy with a custom INA226 + ESP32 meter attached to
the board's supply rail (§VI-C, Fig 6). The simulated equivalent is
:class:`EnergyMeter`: components report timed power draws (busy
intervals, context switches, DVFS transitions) and the meter integrates
them, together with always-on static power (per-core leakage + uncore),
over the measurement window.

Like the real meter, it measures *everything* — including scheduler and
profiling overhead — which is one source of the cost model's residual
error in Table V (the model only predicts task energies, Eq 4).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict

from repro.errors import SimulationError
from repro.numerics import ordered_sum
from repro.simcore.boards import BoardSpec

__all__ = ["EnergyMeter", "EnergyBreakdown"]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Integrated energy (µJ) by accounting category."""

    busy_uj: float
    static_uj: float
    overhead_uj: float

    @property
    def total_uj(self) -> float:
        return self.busy_uj + self.static_uj + self.overhead_uj


class EnergyMeter:
    """Integrates component power reports over a measurement window.

    Usage: components call :meth:`record_busy` / :meth:`record_overhead`
    as simulated time advances; :meth:`finalize` closes the window at a
    given end time and adds static energy for the whole duration.
    """

    def __init__(self, board: BoardSpec, trace=None, clock=None) -> None:
        self.board = board
        self.trace = trace
        self.clock = clock
        self._busy_uj: Dict[int, float] = defaultdict(float)
        self._overhead_uj = 0.0

    # -- recording ---------------------------------------------------------

    def record_busy(
        self, core_id: int, start_us: float, duration_us: float, power_w: float
    ) -> float:
        """A core ran at ``power_w`` for ``duration_us``; returns the µJ."""
        if duration_us < 0 or power_w < 0:
            raise SimulationError("busy interval must have non-negative extent")
        energy = power_w * duration_us  # W × µs = µJ
        self._busy_uj[core_id] += energy
        if self.trace is not None:
            self.trace.energy_sample(
                "busy", energy, start_us + duration_us
            )
        return energy

    def record_overhead(self, energy_uj: float) -> None:
        """Scheduling / switching / migration energy, lump-sum."""
        if energy_uj < 0:
            raise SimulationError("overhead energy must be non-negative")
        self._overhead_uj += energy_uj
        if self.trace is not None:
            self.trace.energy_sample(
                "overhead",
                energy_uj,
                self.clock() if self.clock is not None else 0.0,
            )

    # -- results -----------------------------------------------------------

    def finalize(self, window_us: float) -> EnergyBreakdown:
        """Close the window: add static power for ``window_us``."""
        if window_us < 0:
            raise SimulationError("measurement window must be non-negative")
        static_power = self.board.uncore_power_w + ordered_sum(
            core.static_power_w for core in self.board.cores
        )
        return EnergyBreakdown(
            busy_uj=ordered_sum(self._busy_uj.values()),
            static_uj=static_power * window_us,
            overhead_uj=self._overhead_uj,
        )

    def busy_energy_by_core(self) -> Dict[int, float]:
        """µJ of busy energy attributed to each core so far."""
        return dict(self._busy_uj)
