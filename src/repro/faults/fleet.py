"""Fleet chaos arm: named board-level fault scenarios.

The single-board chaos harness (:mod:`repro.faults.chaos`) aims typed
core/stream faults at one session; this module is its fleet analogue —
it builds :class:`~repro.faults.model.FaultPlan` objects out of the
board-level events (:class:`~repro.faults.model.BoardCrash`,
:class:`~repro.faults.model.BoardReboot`,
:class:`~repro.faults.model.BoardThrottle`) that the fleet gateway
(:mod:`repro.fleet.gateway`) consumes window by window. The scenario
comparison itself (static vs shedding vs shedding+failover arms) lives
in :mod:`repro.fleet.scenario`, which imports this module — never the
other way round, so the fault layer stays dependency-light.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.faults.model import (
    BoardCrash,
    BoardThrottle,
    FaultPlan,
)

__all__ = [
    "FLEET_SCENARIOS",
    "build_fleet_fault_plan",
]

#: named board-level fault scenarios ``cstream serve`` and the fleet
#: bench sweep understand
FLEET_SCENARIOS = (
    "none",
    "board-crash",
    "board-crash-reboot",
    "board-throttle",
)

#: windows a crashed board stays down in ``board-crash-reboot``
_REBOOT_AFTER_WINDOWS = 4
#: the sustained frequency cap of ``board-throttle``, MHz
_THROTTLE_MHZ = 408.0


def build_fleet_fault_plan(
    scenario: str,
    board_index: int = 0,
    at_window: int = 3,
    seed: int = 0,
) -> FaultPlan:
    """The scenario's board-level fault events, aimed at ``board_index``.

    ``board_index`` is a position in the fleet's board list; the fleet
    scenario glue passes ``FleetScenarioSpec.fault_board`` (board 0
    unless set), whether or not a tenant runs there.
    """
    if scenario not in FLEET_SCENARIOS:
        raise ConfigurationError(
            f"unknown fleet scenario {scenario!r}; "
            f"expected one of {FLEET_SCENARIOS}"
        )
    if scenario == "none":
        return FaultPlan(seed=seed)
    if scenario == "board-crash":
        return FaultPlan(
            events=(
                BoardCrash(board_index=board_index, at_window=at_window),
            ),
            seed=seed,
        )
    if scenario == "board-crash-reboot":
        return FaultPlan(
            events=(
                BoardCrash(
                    board_index=board_index,
                    at_window=at_window,
                    reboot_after_windows=_REBOOT_AFTER_WINDOWS,
                ),
            ),
            seed=seed,
        )
    return FaultPlan(
        events=(
            BoardThrottle(
                board_index=board_index,
                at_window=at_window,
                frequency_mhz=_THROTTLE_MHZ,
            ),
        ),
        seed=seed,
    )
