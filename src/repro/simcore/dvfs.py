"""DVFS governors (paper §VII-C).

Governors set per-core frequencies between batches based on the observed
utilization of the previous batch. Every frequency change costs a stall
and a transition energy — this overhead is why the paper finds that
"on-demand" (which re-targets aggressively every sample) performs *worse*
than running flat out, while "conservative" (one step at a time) saves
some energy at the price of latency-constraint violations.

* :class:`StaticGovernor` — fixed frequency map; the paper's "default"
  pins every core at its maximum (and Fig 15's static sweep uses other
  fixed maps).
* :class:`ConservativeGovernor` — steps one frequency level toward the
  target utilization band per decision.
* :class:`OndemandGovernor` — jumps straight to the maximum when above
  the up-threshold and straight down to the proportional level when
  below it.
"""

from __future__ import annotations

import abc
from typing import Dict, Mapping, Optional

from repro.errors import ConfigurationError
from repro.simcore.boards import BoardSpec

__all__ = [
    "Governor",
    "StaticGovernor",
    "ConservativeGovernor",
    "OndemandGovernor",
    "FREQUENCY_SWITCH_STALL_US",
    "FREQUENCY_SWITCH_ENERGY_UJ",
    "get_governor",
]

# Cost of one frequency transition: PLL relock stall plus regulator energy.
FREQUENCY_SWITCH_STALL_US = 150.0
FREQUENCY_SWITCH_ENERGY_UJ = 45.0


class Governor(abc.ABC):
    """Per-core frequency policy driven by utilization feedback."""

    name: str = ""
    #: fraction of the sampling periods in which this governor, once it
    #: decides to move, keeps re-switching (on-demand hunts around the
    #: target level; conservative settles after its single step)
    oscillation_factor: float = 0.05
    #: False when :meth:`observe` can never change a frequency; the
    #: executor then skips the per-batch utilization feed
    adapts: bool = True

    def __init__(self, board: BoardSpec) -> None:
        self.board = board
        self.frequencies: Dict[int, float] = {
            core.core_id: core.max_frequency_mhz for core in board.cores
        }
        self.switch_count = 0
        self._trace = None
        self._clock = None

    def attach_trace(self, trace, clock) -> None:
        """Report frequency transitions to a recorder; ``clock`` is a
        zero-argument callable yielding the simulated time (µs). Passive:
        attaching a trace never changes a decision."""
        self._trace = trace
        self._clock = clock

    def frequency_of(self, core_id: int) -> float:
        return self.frequencies[core_id]

    def observe(self, utilization: Mapping[int, float]) -> Dict[int, float]:
        """Feed per-core utilization in [0, 1]; returns the new frequency
        map and counts transitions."""
        changes = 0
        for core in self.board.cores:
            current = self.frequencies[core.core_id]
            target = self._decide(
                core.core_id,
                current,
                utilization.get(core.core_id, 0.0),
                core.frequency_levels_mhz,
            )
            if target != current:
                self.frequencies[core.core_id] = target
                changes += 1
                if self._trace is not None:
                    self._trace.dvfs_transition(
                        core.core_id,
                        current,
                        target,
                        self._clock() if self._clock is not None else 0.0,
                    )
        self.switch_count += changes
        return dict(self.frequencies)

    def transition_cost(self, changes: int = 1):
        """(stall µs, energy µJ) of ``changes`` frequency transitions."""
        return (
            FREQUENCY_SWITCH_STALL_US * changes,
            FREQUENCY_SWITCH_ENERGY_UJ * changes,
        )

    @abc.abstractmethod
    def _decide(
        self,
        core_id: int,
        current_mhz: float,
        utilization: float,
        levels,
    ) -> float:
        """Return the next frequency for one core."""


class StaticGovernor(Governor):
    """Fixed frequencies; the default pins every core at its maximum."""

    name = "default"
    adapts = False

    def __init__(
        self, board: BoardSpec, frequency_map: Optional[Mapping[int, float]] = None
    ) -> None:
        super().__init__(board)
        if frequency_map:
            for core_id, freq in frequency_map.items():
                core = board.core_by_id.get(core_id)
                if core is None:
                    raise ConfigurationError(f"unknown core {core_id}")
                if freq not in core.frequency_levels_mhz:
                    raise ConfigurationError(
                        f"{freq} MHz is not a level of core {core_id}: "
                        f"{core.frequency_levels_mhz}"
                    )
                self.frequencies[core_id] = freq

    def _decide(self, core_id, current_mhz, utilization, levels) -> float:
        return current_mhz


class ConservativeGovernor(Governor):
    """Step one level up/down toward a utilization band."""

    name = "conservative"

    oscillation_factor = 0.02

    def __init__(
        self,
        board: BoardSpec,
        up_threshold: float = 0.85,
        down_threshold: float = 0.65,
    ) -> None:
        super().__init__(board)
        if not 0.0 < down_threshold < up_threshold <= 1.0:
            raise ConfigurationError("need 0 < down_threshold < up_threshold <= 1")
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold

    def _decide(self, core_id, current_mhz, utilization, levels) -> float:
        index = levels.index(current_mhz)
        if utilization > self.up_threshold and index + 1 < len(levels):
            return levels[index + 1]
        if utilization < self.down_threshold and index > 0:
            return levels[index - 1]
        return current_mhz


class OndemandGovernor(Governor):
    """Jump to max above the threshold, drop proportionally below it."""

    name = "ondemand"
    oscillation_factor = 0.6

    def __init__(self, board: BoardSpec, up_threshold: float = 0.80) -> None:
        super().__init__(board)
        if not 0.0 < up_threshold <= 1.0:
            raise ConfigurationError("up_threshold must be in (0, 1]")
        self.up_threshold = up_threshold

    def _decide(self, core_id, current_mhz, utilization, levels) -> float:
        if utilization > self.up_threshold:
            return levels[-1]
        # Lowest level that would serve the load at ~up_threshold.
        needed = levels[-1] * utilization / self.up_threshold
        for level in levels:
            if level >= needed:
                return level
        return levels[-1]


_GOVERNORS = {
    StaticGovernor.name: StaticGovernor,
    ConservativeGovernor.name: ConservativeGovernor,
    OndemandGovernor.name: OndemandGovernor,
}


def get_governor(name: str, board: BoardSpec, **options) -> Governor:
    """Instantiate a governor by cpufreq-style name."""
    try:
        governor_class = _GOVERNORS[name]
    except KeyError:
        known = ", ".join(sorted(_GOVERNORS))
        raise ConfigurationError(f"unknown governor {name!r}; known: {known}")
    return governor_class(board, **options)
