"""Per-board circuit breaker: closed → open → half-open → closed.

The gateway counts each board's *consecutive* failed window RPCs. At
``failure_threshold`` the breaker opens: the board takes no placements
and no window traffic, so a dead or flapping board stops burning
retries. After ``cooldown_windows`` the breaker lets one probe through
(half-open); a successful probe closes it, a failed one re-opens it and
restarts the cooldown.

Every transition is recorded with its window and reason; invariant
FLT003 (:func:`repro.analysis.verify.verify_fleet_health`) replays the
recorded sequence in a :class:`~repro.obs.health.FleetHealth` report
against the legal state machine, so breaker traces are auditable after
the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import ConfigurationError

__all__ = [
    "BREAKER_STATES",
    "LEGAL_TRANSITIONS",
    "BreakerConfig",
    "BreakerTransition",
    "CircuitBreaker",
]

BREAKER_STATES = ("closed", "open", "half-open")

#: the legal edges of the state machine (FLT003)
LEGAL_TRANSITIONS = frozenset({
    ("closed", "open"),
    ("open", "half-open"),
    ("half-open", "closed"),
    ("half-open", "open"),
})


@dataclass(frozen=True)
class BreakerConfig:
    """Trip and recovery thresholds."""

    #: consecutive failed window RPCs that open the breaker
    failure_threshold: int = 2
    #: windows an open breaker waits before probing (half-open)
    cooldown_windows: int = 2

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be >= 1")
        if self.cooldown_windows < 1:
            raise ConfigurationError("cooldown_windows must be >= 1")


@dataclass(frozen=True)
class BreakerTransition:
    """One recorded state-machine edge."""

    board_index: int
    window_index: int
    from_state: str
    to_state: str
    #: "threshold" (failures hit the trip point), "cooldown" (probe
    #: window reached), "probe-success", "probe-failure"
    reason: str


@dataclass
class CircuitBreaker:
    """The live per-board state machine the gateway drives."""

    board_index: int
    config: BreakerConfig = field(default_factory=BreakerConfig)
    state: str = "closed"
    consecutive_failures: int = 0
    #: window the breaker last opened in (meaningful while open)
    opened_at_window: int = -1
    transitions: List[BreakerTransition] = field(default_factory=list)

    def _move(self, window: int, to_state: str, reason: str) -> None:
        edge = (self.state, to_state)
        if edge not in LEGAL_TRANSITIONS:
            raise ConfigurationError(
                f"illegal breaker transition {edge[0]} -> {edge[1]}"
            )
        self.transitions.append(
            BreakerTransition(
                board_index=self.board_index,
                window_index=window,
                from_state=self.state,
                to_state=to_state,
                reason=reason,
            )
        )
        self.state = to_state

    # -- gateway hooks -------------------------------------------------------

    def allows_traffic(self, window: int) -> bool:
        """May the gateway send this board window RPCs / placements?

        Called at the start of each window; an open breaker whose
        cooldown has elapsed moves to half-open here and lets one probe
        window through.
        """
        if self.state == "open":
            if window >= self.opened_at_window + self.config.cooldown_windows:
                self._move(window, "half-open", "cooldown")
                return True
            return False
        return True

    def record_success(self, window: int) -> None:
        """A window's RPCs against this board all succeeded."""
        if self.state == "half-open":
            self._move(window, "closed", "probe-success")
        self.consecutive_failures = 0

    def record_failure(self, window: int) -> None:
        """A window's RPCs against this board failed (post-retry)."""
        self.consecutive_failures += 1
        if self.state == "half-open":
            self.opened_at_window = window
            self._move(window, "open", "probe-failure")
        elif (
            self.state == "closed"
            and self.consecutive_failures >= self.config.failure_threshold
        ):
            self.opened_at_window = window
            self._move(window, "open", "threshold")

