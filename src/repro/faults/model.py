"""Declarative fault plans: typed hardware/stream faults on a schedule.

Real boards degrade in more ways than a single thermal throttle, so a
:class:`FaultPlan` is a seeded schedule of typed events:

* :class:`CoreFailure` — a core dies permanently after ``at_batch``
  batches complete; its in-flight work is lost and re-enqueued on a
  deterministic same-cluster fallback, and everything later routed to
  the dead core pays an emergency-rerouting penalty until the control
  loop adopts a plan that avoids it;
* :class:`CoreStall` — a transient stall (thermal hiccup, RCU storm):
  the core's next task pays ``stall_us`` extra occupancy once;
* :class:`DvfsThrottle` — after ``at_batch`` batches complete, the
  core is permanently capped to ``frequency_mhz`` (the SoC's thermal
  governor stepping in); a cap above the current frequency changes
  nothing;
* :class:`InterconnectDegradation` — one path class (c0/c1/c2) loses
  bandwidth: per-byte cost and per-message overhead scale by ``factor``;
* :class:`BatchCorruption` — each delivered batch in a range is corrupt
  with ``probability``; the sink detects corruption via decode
  verification and retries with capped exponential backoff, so the
  batch's latency (and energy) inflates before it can count as a
  constraint violation.

Board-level events extend the same plan to the fleet tier
(:mod:`repro.fleet`): a :class:`BoardCrash` kills a whole board (all
cores, all tenants) at a window boundary, optionally rebooting after a
fixed number of windows; a :class:`BoardReboot` brings a crashed board
back explicitly; a :class:`BoardThrottle` is a sustained thermal cap on
every core of a board (the fleet analogue of :class:`DvfsThrottle`).
Board events are keyed by *window*, not batch — the fleet gateway ticks
in windows — and are ignored by the single-board executor, so a fault
plan that mixes both levels drives a fleet scenario and its per-board
inner sessions from one declarative object.

Determinism: corruption draws come from a dedicated
``default_rng(plan.seed, repetition)`` stream computed *before* the
simulation starts (:func:`corruption_schedule`), so the schedule is
byte-identical regardless of process interleaving and never perturbs
the simulation's own RNG draw order. Batch-indexed events fire at batch
boundaries in plan order. ``repetition=None`` fires the event in every
repetition; an integer restricts it to that repetition only.

Layering: this module imports only :mod:`repro.errors` and numpy, so
both the runtime executor and the bench harness can depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "CoreFailure",
    "CoreStall",
    "DvfsThrottle",
    "InterconnectDegradation",
    "BatchCorruption",
    "BoardCrash",
    "BoardReboot",
    "BoardThrottle",
    "FaultEvent",
    "BoardEvent",
    "FaultPlan",
    "CorruptedBatch",
    "FiredFault",
    "corruption_schedule",
]

#: path-class names an :class:`InterconnectDegradation` may target
_DEGRADABLE_PATHS = ("c0", "c1", "c2")


def _check_batch(at_batch: int) -> None:
    if at_batch < 0:
        raise ConfigurationError("at_batch must be non-negative")


def _check_repetition(repetition: Optional[int]) -> None:
    if repetition is not None and repetition < 0:
        raise ConfigurationError("repetition must be non-negative (or None)")


@dataclass(frozen=True)
class CoreFailure:
    """Permanent core failure after ``at_batch`` batches complete.

    ``reroute_penalty`` is the relative latency/energy surcharge on work
    emergency-routed off the dead core (threads running without their
    planned placement: cold caches, doubled-up queues). It persists
    until a replan stops referencing the dead core.
    """

    core_id: int
    at_batch: int
    repetition: Optional[int] = None
    reroute_penalty: float = 0.5

    kind = "core-failure"

    def __post_init__(self) -> None:
        _check_batch(self.at_batch)
        _check_repetition(self.repetition)
        if self.reroute_penalty < 0:
            raise ConfigurationError("reroute_penalty must be non-negative")


@dataclass(frozen=True)
class CoreStall:
    """Transient stall: the core's next task pays ``stall_us`` once."""

    core_id: int
    at_batch: int
    stall_us: float
    repetition: Optional[int] = None

    kind = "core-stall"

    def __post_init__(self) -> None:
        _check_batch(self.at_batch)
        _check_repetition(self.repetition)
        if self.stall_us <= 0:
            raise ConfigurationError("stall_us must be positive")


@dataclass(frozen=True)
class DvfsThrottle:
    """Permanent frequency cap: once ``at_batch`` batches complete,
    ``core_id`` runs at no more than ``frequency_mhz``."""

    core_id: int
    at_batch: int
    frequency_mhz: float
    repetition: Optional[int] = None

    kind = "dvfs-throttle"

    def __post_init__(self) -> None:
        _check_batch(self.at_batch)
        _check_repetition(self.repetition)
        if self.frequency_mhz <= 0:
            raise ConfigurationError("capped frequency must be positive")


@dataclass(frozen=True)
class InterconnectDegradation:
    """One path class loses bandwidth: its per-byte unit cost and
    per-message overhead scale by ``factor`` (contention, link retrain)."""

    at_batch: int
    path: str
    factor: float
    repetition: Optional[int] = None

    kind = "interconnect-degradation"

    def __post_init__(self) -> None:
        _check_batch(self.at_batch)
        _check_repetition(self.repetition)
        if self.path not in _DEGRADABLE_PATHS:
            raise ConfigurationError(
                f"degradable paths are {_DEGRADABLE_PATHS}, not {self.path!r}"
            )
        if self.factor < 1.0:
            raise ConfigurationError(
                "degradation factor must be >= 1 (a speed-up is not a fault)"
            )


@dataclass(frozen=True)
class BatchCorruption:
    """Probabilistic batch corruption over ``[from_batch, until_batch)``.

    Each delivery of a covered batch is corrupt with ``probability``
    (retries redraw — a retried batch can be corrupt again). The sink
    detects corruption by decode verification and re-runs the final
    stage after a capped exponential backoff
    (``min(backoff_us * 2**attempt, backoff_cap_us)``), at most
    ``max_retries`` times; an exhausted batch is delivered as-is and its
    inflated latency is what the violation accounting sees. When several
    corruption events cover one batch, the first in plan order governs.
    """

    probability: float
    from_batch: int = 0
    until_batch: Optional[int] = None
    max_retries: int = 3
    backoff_us: float = 200.0
    backoff_cap_us: float = 1600.0
    repetition: Optional[int] = None

    kind = "batch-corruption"

    def __post_init__(self) -> None:
        _check_repetition(self.repetition)
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError("probability must be in [0, 1]")
        if self.from_batch < 0:
            raise ConfigurationError("from_batch must be non-negative")
        if self.until_batch is not None and self.until_batch <= self.from_batch:
            raise ConfigurationError("until_batch must exceed from_batch")
        if self.max_retries < 1:
            raise ConfigurationError("max_retries must be at least 1")
        if self.backoff_us < 0 or self.backoff_cap_us < self.backoff_us:
            raise ConfigurationError(
                "need 0 <= backoff_us <= backoff_cap_us"
            )

    def covers(self, batch_index: int) -> bool:
        if batch_index < self.from_batch:
            return False
        return self.until_batch is None or batch_index < self.until_batch


def _check_window(at_window: int) -> None:
    if at_window < 0:
        raise ConfigurationError("at_window must be non-negative")


def _check_board(board_index: int) -> None:
    if board_index < 0:
        raise ConfigurationError("board_index must be non-negative")


@dataclass(frozen=True)
class BoardCrash:
    """A whole board dies at window ``at_window`` (power loss, kernel
    panic, watchdog reset). Every tenant placed on it is stranded until
    the fleet scheduler re-places them; window RPCs to the board time
    out. ``reboot_after_windows`` brings the board back automatically
    that many windows later (None: it stays down)."""

    board_index: int
    at_window: int
    reboot_after_windows: Optional[int] = None

    kind = "board-crash"

    def __post_init__(self) -> None:
        _check_board(self.board_index)
        _check_window(self.at_window)
        if self.reboot_after_windows is not None and (
            self.reboot_after_windows < 1
        ):
            raise ConfigurationError(
                "reboot_after_windows must be at least 1 (or None)"
            )


@dataclass(frozen=True)
class BoardReboot:
    """A crashed board comes back at window ``at_window`` — cold, empty
    (its tenants were lost or migrated), and behind a half-open circuit
    breaker until a probe window succeeds."""

    board_index: int
    at_window: int

    kind = "board-reboot"

    def __post_init__(self) -> None:
        _check_board(self.board_index)
        _check_window(self.at_window)


@dataclass(frozen=True)
class BoardThrottle:
    """Sustained thermal throttle on every core of a board from window
    ``at_window``: the fleet analogue of :class:`DvfsThrottle`. Each
    tenant's heartbeat reports the capped frequency, so their embedded
    controllers replan around it; ``duration_windows`` lifts the cap
    again (None: it persists)."""

    board_index: int
    at_window: int
    frequency_mhz: float
    duration_windows: Optional[int] = None

    kind = "board-throttle"

    def __post_init__(self) -> None:
        _check_board(self.board_index)
        _check_window(self.at_window)
        if self.frequency_mhz <= 0:
            raise ConfigurationError("capped frequency must be positive")
        if self.duration_windows is not None and self.duration_windows < 1:
            raise ConfigurationError(
                "duration_windows must be at least 1 (or None)"
            )


FaultEvent = Union[
    CoreFailure, CoreStall, DvfsThrottle, InterconnectDegradation,
    BatchCorruption, BoardCrash, BoardReboot, BoardThrottle,
]

BoardEvent = Union[BoardCrash, BoardReboot, BoardThrottle]

#: events that fire at a batch boundary (corruption is per-delivery)
_BOUNDARY_EVENTS = (
    CoreFailure, CoreStall, DvfsThrottle, InterconnectDegradation,
)

#: fleet-level events, keyed by window; the single-board executor
#: ignores them entirely
_BOARD_EVENTS = (BoardCrash, BoardReboot, BoardThrottle)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of fault events for one measurement."""

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for event in self.events:
            if not isinstance(
                event, _BOUNDARY_EVENTS + (BatchCorruption,) + _BOARD_EVENTS
            ):
                raise ConfigurationError(
                    f"not a fault event: {event!r}"
                )

    def events_for(self, repetition: int) -> Tuple[FaultEvent, ...]:
        """The events active in ``repetition`` (None = every repetition).

        Board-level events carry no repetition (the fleet tier runs one
        window sequence, not repeated measurements) and are excluded.
        """
        return tuple(
            event for event in self.events
            if not isinstance(event, _BOARD_EVENTS)
            and (event.repetition is None or event.repetition == repetition)
        )

    def board_events(self) -> Tuple[BoardEvent, ...]:
        """The fleet-level events, in plan order."""
        return tuple(
            event for event in self.events
            if isinstance(event, _BOARD_EVENTS)
        )

    def board_schedule(self) -> Dict[int, Tuple[BoardEvent, ...]]:
        """Board-level events keyed by window index.

        A key of ``w`` fires at the *start* of window ``w``, before that
        window's admissions and RPCs — a board crashed at window 4 times
        out its window-4 RPC. Implicit reboots
        (``BoardCrash.reboot_after_windows``) are materialized as
        :class:`BoardReboot` entries so consumers see one schedule.
        """
        schedule: Dict[int, List[BoardEvent]] = {}
        for event in self.board_events():
            schedule.setdefault(event.at_window, []).append(event)
            if (
                isinstance(event, BoardCrash)
                and event.reboot_after_windows is not None
            ):
                reboot = BoardReboot(
                    board_index=event.board_index,
                    at_window=event.at_window + event.reboot_after_windows,
                )
                schedule.setdefault(reboot.at_window, []).append(reboot)
        return {window: tuple(events) for window, events in schedule.items()}

    def schedule_for(
        self, repetition: int
    ) -> Dict[int, Tuple[FaultEvent, ...]]:
        """Batch-boundary events keyed by completed-batch count.

        A key of ``n`` fires after the ``n``-th batch completes, so
        ``at_batch=0`` never fires: the executor compares *after*
        incrementing its completion counter.
        """
        schedule: Dict[int, List[FaultEvent]] = {}
        for event in self.events_for(repetition):
            if isinstance(event, _BOUNDARY_EVENTS):
                schedule.setdefault(event.at_batch, []).append(event)
        return {batch: tuple(events) for batch, events in schedule.items()}

    def corruptions(self, repetition: int) -> Tuple[BatchCorruption, ...]:
        return tuple(
            event for event in self.events_for(repetition)
            if isinstance(event, BatchCorruption)
        )


@dataclass(frozen=True)
class CorruptedBatch:
    """Pre-drawn corruption outcome of one batch delivery.

    ``backoff_us`` holds one entry per retry (capped exponential);
    ``exhausted`` marks a batch that used all its retries.
    """

    attempts: int
    backoff_us: Tuple[float, ...]
    exhausted: bool


@dataclass(frozen=True)
class FiredFault:
    """One fault that actually fired during a run (for reporting)."""

    kind: str
    ts_us: float
    batch: int
    core_id: int = -1
    detail: str = ""


def corruption_schedule(
    plan: FaultPlan, repetition: int, batch_count: int
) -> Dict[int, CorruptedBatch]:
    """Pre-draw every batch's corruption outcome for one repetition.

    Drawn from a dedicated RNG stream (independent of the simulation's
    service-noise stream) before the DES starts, so the schedule cannot
    depend on event interleaving and the fault-free draw order is
    untouched. Clean batches are omitted from the returned mapping, so
    the executor's per-batch lookup is a no-op guard on healthy runs.
    """
    events = plan.corruptions(repetition)
    if not events:
        return {}
    rng = np.random.default_rng([plan.seed, 104729 + repetition])
    schedule: Dict[int, CorruptedBatch] = {}
    for batch_index in range(batch_count):
        event = next((e for e in events if e.covers(batch_index)), None)
        if event is None:
            continue
        attempts = 0
        while attempts < event.max_retries and rng.random() < event.probability:
            attempts += 1
        if attempts == 0:
            continue
        backoffs = tuple(
            min(event.backoff_us * (2.0 ** attempt), event.backoff_cap_us)
            for attempt in range(attempts)
        )
        schedule[batch_index] = CorruptedBatch(
            attempts=attempts,
            backoff_us=backoffs,
            exhausted=attempts >= event.max_retries,
        )
    return schedule
