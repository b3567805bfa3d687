"""Structured tracing of simulated runs.

A :class:`TraceRecorder` collects three kinds of events while the DES
runs, mirroring the Chrome trace-event model so exports are trivial:

* **spans** (phase ``X``) — a task servicing a batch on a core, or the
  context-switch stall between two different tasks on the same core;
* **instants** (phase ``i``) — batch completions, OS migrations, DVFS
  transitions, fault injections, EAS placement decisions, process
  resume/termination (the latter only with ``process_events=True``);
* **counters** (phase ``C``) — queue depths on every named
  :class:`~repro.simcore.engine.Store`, cumulative context switches and
  cumulative energy (the simulated INA226 stream).

Design constraints, enforced by tests (``tests/test_trace_determinism``):

* **zero overhead when off** — every hook in the engine, executor,
  governor and meter is guarded by ``if trace is not None``; an
  untraced run executes exactly the pre-observability code path;
* **read-only** — a recorder never draws from the run's RNG, never
  schedules an event and never changes a duration, so traced and
  untraced runs produce byte-identical :class:`RunResult` numbers, and
  two traced runs of the same seed produce identical event streams.

Event timestamps are simulated microseconds; the ``pid`` of an event is
the repetition it belongs to (so multi-repetition traces open as one
process per repetition in Perfetto) and the ``tid`` is the core id, or
one of the ``TID_*`` synthetic tracks for non-core actors.

Events live in one row buffer: each hook appends a plain tuple in
:class:`TraceEvent` field order, its ``args`` pairs already sorted by
key. :func:`repro.obs.export.write_chrome_trace` renders those rows
straight to JSON text, without a dict per event;
:attr:`TraceRecorder.events` builds the dataclasses on each read, for
tests and verifiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "TraceEvent",
    "TraceRecorder",
    "TraceSummary",
    "active_recorder",
    "set_active_recorder",
    "TID_GOVERNOR",
    "TID_OS_SCHED",
    "TID_RUNTIME",
]

#: synthetic track ids for actors that are not cores
TID_GOVERNOR = 900
TID_OS_SCHED = 901
TID_RUNTIME = 902

#: one mebibyte, the denominator of the paper's "per MB" counters
_MB = float(1 << 20)


@dataclass(frozen=True)
class TraceEvent:
    """One trace event (Chrome trace-event phases ``X``/``i``/``C``).

    ``args`` is a tuple of ``(key, value)`` pairs rather than a dict so
    events are hashable, deterministic to compare and cheap to pickle.
    """

    name: str
    phase: str
    ts_us: float
    pid: int
    tid: int
    dur_us: float = 0.0
    category: str = "sim"
    args: Tuple[Tuple[str, Any], ...] = ()


class TraceRecorder:
    """Collects trace events and rolls the aggregate counters.

    One recorder spans a whole measurement run (all repetitions); the
    executor brackets each repetition with :meth:`begin_repetition` /
    :meth:`end_repetition` so events land on per-repetition tracks and
    window/byte totals accumulate correctly.
    """

    def __init__(self, process_events: bool = False) -> None:
        #: also record engine-level process resume/end instants (noisy;
        #: off by default, ``cstream trace --process-events`` turns it on)
        self.process_events = process_events
        # The row buffer (module docstring). Counters stay eager: hooks
        # read them back mid-run (cumulative counter events).
        self._rows: List[tuple] = []
        self.repetition = 0
        # aggregate counters (the raw material of TraceSummary)
        self.repetitions_seen = 0
        self.batches_completed = 0
        self.batches_processed = 0
        self.bytes_processed = 0
        self.window_us = 0.0
        self.context_switches = 0.0
        self.migrations = 0
        self.dvfs_transitions = 0
        self.fault_injections = 0
        self.core_busy_us: Dict[int, float] = {}
        self.queue_highwater: Dict[str, int] = {}
        self.energy_busy_uj = 0.0
        self.energy_overhead_uj = 0.0
        # control-loop counters (recorder-level only: TraceSummary's
        # field set is frozen for cached-pickle compatibility)
        self.replans = 0
        self.replans_adopted = 0
        self.plan_migrations = 0
        self.migration_pause_us = 0.0
        # fault-subsystem counters (recorder-level only, same reason)
        self.core_failures = 0
        self.core_stalls = 0
        self.interconnect_faults = 0
        self.corrupted_batches = 0
        self.batch_retries = 0

    # -- run structure -------------------------------------------------------

    def begin_repetition(self, repetition: int) -> None:
        self.repetition = repetition
        self.repetitions_seen += 1

    def end_repetition(
        self, window_us: float, batch_bytes: int, batches: int
    ) -> None:
        self.window_us += window_us
        self.bytes_processed += batch_bytes * batches
        self.batches_processed += batches

    # -- raw emission --------------------------------------------------------

    def _emit(
        self,
        name: str,
        phase: str,
        ts_us: float,
        tid: int,
        dur_us: float = 0.0,
        category: str = "sim",
        args: Tuple[Tuple[str, Any], ...] = (),
    ) -> None:
        """Append one row; ``args`` pairs must already be sorted by key."""
        self._rows.append(
            (name, phase, ts_us, self.repetition, tid, dur_us, category, args)
        )

    @property
    def events(self) -> List[TraceEvent]:
        """The recorded stream, in emission order (a new list per read)."""
        return [TraceEvent(*row) for row in self._rows]

    # -- executor / engine hooks --------------------------------------------

    def span(
        self, name: str, core_id: int, start_us: float, end_us: float, **args
    ) -> None:
        """A task (or switch stall) occupied ``core_id`` for a span."""
        self.core_busy_us[core_id] = (
            self.core_busy_us.get(core_id, 0.0) + (end_us - start_us)
        )
        self._emit(
            name, "X", start_us, core_id, end_us - start_us, "task",
            tuple(sorted(args.items())),
        )

    def context_switch(self, core_id: int, count: float, ts_us: float) -> None:
        """``count`` context switches on a core (fractional counts model
        the per-KB preemption rates of :class:`MechanismDynamics`). The
        switch's own stall, if any, is a separate ``ctx-switch`` span."""
        self.context_switches += count
        self._emit(
            "context_switches", "C", ts_us, core_id,
            category="os", args=(("value", self.context_switches),),
        )

    def migration(self, core_id: int, ts_us: float) -> None:
        self.migrations += 1
        self._emit(
            "migration", "i", ts_us, core_id, category="os",
            args=(("total", self.migrations),),
        )

    def dvfs_transition(
        self, core_id: int, from_mhz: float, to_mhz: float, ts_us: float
    ) -> None:
        self.dvfs_transitions += 1
        self._emit(
            "dvfs-transition", "i", ts_us, TID_GOVERNOR, category="dvfs",
            args=(("core", core_id), ("from_mhz", from_mhz),
                  ("to_mhz", to_mhz)),
        )

    def fault(self, core_id: int, ts_us: float, frequency_mhz: float) -> None:
        self.fault_injections += 1
        self._emit(
            "fault-injected", "i", ts_us, TID_RUNTIME, category="fault",
            args=(("capped_mhz", frequency_mhz), ("core", core_id)),
        )

    def core_failure(
        self, core_id: int, failover_core: int, ts_us: float
    ) -> None:
        """Permanent core death; later work reroutes to ``failover_core``.

        Trace invariant TRC006 holds that no task span starts on
        ``core_id`` after this instant."""
        self.fault_injections += 1
        self.core_failures += 1
        self._emit(
            "core-failure", "i", ts_us, TID_RUNTIME, category="fault",
            args=(("core", core_id), ("failover", failover_core)),
        )

    def core_stall(
        self, core_id: int, ts_us: float, stall_us: float
    ) -> None:
        """Transient stall charged to the core's next task."""
        self.fault_injections += 1
        self.core_stalls += 1
        self._emit(
            "core-stall", "i", ts_us, TID_RUNTIME, category="fault",
            args=(("core", core_id), ("stall_us", stall_us)),
        )

    def interconnect_degraded(
        self, path: str, ts_us: float, factor: float
    ) -> None:
        """One interconnect path class lost bandwidth by ``factor``."""
        self.fault_injections += 1
        self.interconnect_faults += 1
        self._emit(
            "interconnect-degraded", "i", ts_us, TID_RUNTIME,
            category="fault", args=(("factor", factor), ("path", path)),
        )

    def batch_corrupted(
        self,
        batch_index: int,
        ts_us: float,
        attempts: int,
        exhausted: bool = False,
    ) -> None:
        """Decode verification flagged a delivered batch as corrupt.

        Trace invariant TRC007 holds that every ``batch-retry`` event
        names a batch with a matching ``batch-corrupted`` event."""
        self.corrupted_batches += 1
        self._emit(
            "batch-corrupted", "i", ts_us, TID_RUNTIME, category="fault",
            args=(("attempts", attempts), ("batch", batch_index),
                  ("exhausted", exhausted)),
        )

    def batch_retry(
        self,
        batch_index: int,
        attempt: int,
        ts_us: float,
        backoff_us: float = 0.0,
    ) -> None:
        """One re-run of the final stage after a corrupt delivery."""
        self.batch_retries += 1
        self._emit(
            "batch-retry", "i", ts_us, TID_RUNTIME, category="fault",
            args=(("attempt", attempt), ("backoff_us", backoff_us),
                  ("batch", batch_index)),
        )

    def batch_complete(self, batch_index: int, ts_us: float) -> None:
        self.batches_completed += 1
        self._emit(
            "batch-complete", "i", ts_us, TID_RUNTIME, category="pipeline",
            args=(("batch", batch_index),),
        )

    def queue_depth(self, queue: str, depth: int, ts_us: float) -> None:
        if depth > self.queue_highwater.get(queue, 0):
            self.queue_highwater[queue] = depth
        self._emit(
            queue, "C", ts_us, TID_RUNTIME, category="queue",
            args=(("value", depth),),
        )

    def energy_sample(self, kind: str, energy_uj: float, ts_us: float) -> None:
        """Cumulative energy sample (the simulated INA226 stream)."""
        if kind == "busy":
            self.energy_busy_uj += energy_uj
        else:
            self.energy_overhead_uj += energy_uj
        self._emit(
            f"energy.{kind}", "C", ts_us, TID_RUNTIME, category="energy",
            args=(("value", self.energy_busy_uj + self.energy_overhead_uj),),
        )

    def placement(self, name: str, cores: Tuple[int, ...]) -> None:
        """A scheduler placement decision (e.g. one EAS wake-up round)."""
        self._emit(
            name, "i", 0.0, TID_OS_SCHED, category="sched",
            args=(("cores", tuple(cores)),),
        )

    def process_event(self, kind: str, name: str, ts_us: float) -> None:
        """Engine-level process resume/end (only with process_events)."""
        self._emit(
            f"{kind}:{name}", "i", ts_us, TID_RUNTIME, category="process",
        )

    # -- control-loop hooks --------------------------------------------------

    def replan(
        self,
        window_index: int,
        ts_us: float,
        adopted: bool,
        reason: str,
        energy_uj_per_byte: float,
        warm_start_hits: int = 0,
    ) -> None:
        """A controller replanning decision at a window boundary."""
        self.replans += 1
        if adopted:
            self.replans_adopted += 1
        self._emit(
            "replan", "i", ts_us, TID_RUNTIME, category="control",
            args=(("adopted", adopted),
                  ("energy_uj_per_byte", energy_uj_per_byte),
                  ("reason", reason), ("warm_start_hits", warm_start_hits),
                  ("window", window_index)),
        )

    def plan_migration(
        self,
        window_index: int,
        start_us: float,
        pause_us: float,
        moved_replicas: int,
        energy_uj: float,
        description: str,
    ) -> None:
        """The pipeline pause while replica state transfers between
        cores (a span on the runtime track, so the Chrome trace shows
        the reconfiguration gap)."""
        self.plan_migrations += 1
        self.migration_pause_us += pause_us
        self._emit(
            "plan-migration", "X", start_us, TID_RUNTIME,
            dur_us=pause_us, category="control",
            args=(("energy_uj", energy_uj), ("moved_replicas", moved_replicas),
                  ("moves", description), ("window", window_index)),
        )

    # -- digest --------------------------------------------------------------

    def summary(
        self, scheduler: Tuple[Tuple[str, float], ...] = ()
    ) -> "TraceSummary":
        return TraceSummary(
            repetitions=self.repetitions_seen,
            batches=self.batches_processed,
            bytes_processed=self.bytes_processed,
            window_us=self.window_us,
            context_switches=self.context_switches,
            migrations=self.migrations,
            dvfs_transitions=self.dvfs_transitions,
            fault_injections=self.fault_injections,
            core_busy_us=tuple(sorted(self.core_busy_us.items())),
            queue_highwater=tuple(sorted(self.queue_highwater.items())),
            energy_busy_uj=self.energy_busy_uj,
            energy_overhead_uj=self.energy_overhead_uj,
            event_count=len(self._rows),
            scheduler=tuple(scheduler),
        )


@dataclass(frozen=True)
class TraceSummary:
    """Compact per-run digest of a traced measurement.

    Attached to :class:`~repro.runtime.metrics.RunResult` (as a
    comparison-neutral field, so traced and untraced results still
    compare equal) and persisted in the result cache alongside it.
    """

    repetitions: int
    batches: int
    bytes_processed: int
    window_us: float
    context_switches: float
    migrations: int
    dvfs_transitions: int
    fault_injections: int
    core_busy_us: Tuple[Tuple[int, float], ...]
    queue_highwater: Tuple[Tuple[str, int], ...]
    energy_busy_uj: float
    energy_overhead_uj: float
    event_count: int
    #: scheduler-search instrumentation when the mechanism ran a model
    #: search: (name, value) pairs from :class:`SearchStats`
    scheduler: Tuple[Tuple[str, float], ...] = ()

    @property
    def megabytes(self) -> float:
        return self.bytes_processed / _MB

    @property
    def context_switches_per_mb(self) -> float:
        """The paper's headline OS-vs-CStream diagnostic (§VI-B)."""
        if self.bytes_processed == 0:
            return 0.0
        return self.context_switches / self.megabytes

    @property
    def queue_depth_highwater(self) -> int:
        return max((d for _, d in self.queue_highwater), default=0)

    def occupancy(self) -> Dict[int, float]:
        """Per-core busy fraction of the measurement window."""
        if self.window_us <= 0:
            return {core: 0.0 for core, _ in self.core_busy_us}
        return {
            core: busy / self.window_us for core, busy in self.core_busy_us
        }

    def format(self, board=None) -> str:
        """Terminal table of the digest (what ``cstream trace`` prints)."""
        rows = [
            ("repetitions", f"{self.repetitions}"),
            ("batches", f"{self.batches}"),
            ("bytes processed", f"{self.bytes_processed}"),
            ("window", f"{self.window_us / 1000.0:.2f} ms"),
            ("context switches", f"{self.context_switches:.1f}"),
            ("context switches/MB", f"{self.context_switches_per_mb:.1f}"),
            ("migrations", f"{self.migrations}"),
            ("DVFS transitions", f"{self.dvfs_transitions}"),
            ("fault injections", f"{self.fault_injections}"),
            ("queue-depth highwater", f"{self.queue_depth_highwater}"),
            ("busy energy", f"{self.energy_busy_uj:.1f} µJ"),
            ("overhead energy", f"{self.energy_overhead_uj:.1f} µJ"),
            ("trace events", f"{self.event_count}"),
        ]
        occupancy = self.occupancy()
        labels = {}
        if board is not None:
            labels = {
                core.core_id: f" ({'big' if core.is_big else 'little'})"
                for core in board.cores
            }
        for core, fraction in sorted(occupancy.items()):
            rows.append(
                (
                    f"core {core}{labels.get(core, '')} occupancy",
                    f"{fraction:6.1%}",
                )
            )
        for name, value in self.scheduler:
            rows.append((f"scheduler {name}", f"{value:g}"))
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


# -- ambient recorder ---------------------------------------------------------
#
# Some instrumentation points sit behind call signatures that cannot carry
# a recorder without breaking public APIs (the per-repetition plan
# providers call `eas_place(board, workers, rng)`). The executor publishes
# its recorder here for the duration of a traced run; untraced runs leave
# it None so the hooks stay zero-cost.

_ACTIVE: Optional[TraceRecorder] = None


def set_active_recorder(recorder: Optional[TraceRecorder]) -> None:
    global _ACTIVE
    _ACTIVE = recorder


def active_recorder() -> Optional[TraceRecorder]:
    return _ACTIVE
