"""Power accounting and the board energy meter.

The paper measures energy with a custom INA226 + ESP32 meter attached to
the board's supply rail (§VI-C, Fig 6). The simulated equivalent is
:class:`EnergyMeter`: components report timed power draws (busy
intervals, context switches, DVFS transitions) as simulated time
advances. The executor charges each batch its own busy energy and the
board's always-on static power (:attr:`BoardSpec.static_power_w`) over
the batch's period, and splits the meter's lump-sum overhead evenly
across the batches.

Like the real meter, it measures *everything* — including scheduler and
profiling overhead — which is one source of the cost model's residual
error in Table V (the model only predicts task energies, Eq 4).
"""

from __future__ import annotations

from repro.errors import SimulationError

__all__ = ["EnergyMeter"]


class EnergyMeter:
    """Takes the components' power reports.

    :meth:`record_busy` prices a busy interval and :meth:`record_overhead`
    adds to :attr:`overhead_uj`. With a trace attached, each report is
    also a sample of the cumulative energy counter.
    """

    def __init__(self, trace=None, clock=None) -> None:
        self.trace = trace
        self.clock = clock
        #: scheduling / switching / migration energy so far, µJ
        self.overhead_uj = 0.0

    # -- recording ---------------------------------------------------------

    def record_busy(
        self, start_us: float, duration_us: float, power_w: float
    ) -> float:
        """A core ran at ``power_w`` for ``duration_us``; returns the µJ."""
        if duration_us < 0 or power_w < 0:
            raise SimulationError("busy interval must have non-negative extent")
        energy = power_w * duration_us  # W × µs = µJ
        if self.trace is not None:
            self.trace.energy_sample(
                "busy", energy, start_us + duration_us
            )
        return energy

    def record_overhead(self, energy_uj: float) -> None:
        """Scheduling / switching / migration energy, lump-sum."""
        if energy_uj < 0:
            raise SimulationError("overhead energy must be non-negative")
        self.overhead_uj += energy_uj
        if self.trace is not None:
            self.trace.energy_sample(
                "overhead",
                energy_uj,
                self.clock() if self.clock is not None else 0.0,
            )
