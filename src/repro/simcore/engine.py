"""A compact discrete-event simulation engine.

The asymmetric-multicore board is simulated as a set of cooperating
processes (compression tasks, DVFS governors, the OS scheduler) advancing
a shared virtual clock. The engine is a minimal generator-based DES in
the style of SimPy:

* a :class:`Simulator` owns the event calendar and the clock
  (microseconds);
* a :class:`Process` wraps a generator that ``yield``\\ s events — most
  commonly :meth:`Simulator.timeout` — and resumes when they fire;
* a :class:`Store` is a FIFO channel with optional capacity, used for the
  message queues between pipeline tasks.

Only the features this package needs are implemented, but they are
implemented fully: deterministic FIFO ordering for simultaneous events,
process completion events (so processes can join each other), and error
propagation out of :meth:`Simulator.run`.

Performance (see DESIGN.md "Performance engineering"): the calendar is
*indexed* — a dict of exact-timestamp FIFO buckets plus a heap of the
distinct pending timestamps — rather than one heap of
``(time, sequence, event)`` tuples. Most events in a pipeline
simulation land on a timestamp that already exists (zero-delay store
handshakes, same-tick resumes), which the index turns into one dict hit
and a list append, no tuple comparisons. Within a bucket, insertion
order *is* the old sequence order, so pop order is provably identical
to the heap it replaced. Events have no cancel API (they fire exactly
once), so no lazy-cancellation bookkeeping is needed.

A bucket entry is either an :class:`Event` or a *thunk*: a bound
method the engine (or a core server of the executor) queues with
:meth:`Simulator._schedule` for a hop nobody else waits on — a process
bootstrap, a core server's kick, switch pause and service completion.
The run loop calls a thunk directly instead of triggering an event and
running its one callback. A thunk takes the bucket slot the event it
replaces would have taken, so pop order is unchanged. Other internal
events — already-triggered-target resume ticks, :meth:`Simulator.all_of`
deferred counts — are recycled through a free-list the public
constructors (``timeout``/``event``/store handshakes) draw from; events
handed to user code are never recycled, so holding one after it fired
stays safe.

Observability: a :class:`Simulator` may carry a
:class:`~repro.obs.trace.TraceRecorder` (``trace=``). Named stores then
report their queue depth on every put/get, and — when the recorder asks
for ``process_events`` — process resume/termination emits instants.
Every hook is a guarded read-only observer, so a traced simulation is
event-for-event identical to an untraced one.
"""

from __future__ import annotations

import heapq
from collections import deque
from operator import length_hint
from types import MethodType
from typing import Any, Callable, Generator, List, Optional

from repro.errors import SimulationError

__all__ = ["Event", "Process", "Simulator", "Store"]


class Event:
    """A one-shot occurrence in virtual time.

    An event is *queued* once :meth:`succeed` places it on the calendar
    with a value, and *triggered* once the simulator pops it and runs its
    callbacks. Processes waiting on an event resume with its value.

    ``recyclable`` marks engine-internal events (resume ticks, join
    counters) that provably have no external references once
    fired; the run loop resets those into the simulator's free-list.
    """

    __slots__ = (
        "simulator", "callbacks", "queued", "triggered", "value", "recyclable"
    )

    def __init__(self, simulator: "Simulator") -> None:
        self.simulator = simulator
        self.callbacks: List[Callable[["Event"], None]] = []
        self.queued = False
        self.triggered = False
        self.value: Any = None
        self.recyclable = False

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Queue the event to fire ``delay`` µs from now with ``value``."""
        if self.queued:
            raise SimulationError("event succeeded twice")
        self.queued = True
        self.value = value
        self.simulator._schedule(delay, self)
        return self


class Process(Event):
    """An active entity driven by a generator.

    The generator yields :class:`Event` instances; the process resumes
    with ``event.value`` when the event fires. A process is itself an
    event that triggers (with the generator's return value) when the
    generator finishes, so other processes can wait for it.
    """

    __slots__ = ("_generator", "name", "_traced")

    def __init__(
        self,
        simulator: "Simulator",
        generator: Generator[Event, Any, Any],
        name: str = "process",
    ) -> None:
        super().__init__(simulator)
        self._generator = generator
        self.name = name
        trace = simulator.trace
        self._traced = trace is not None and trace.process_events
        simulator._schedule(0.0, self._bootstrap)

    def _bootstrap(self) -> None:
        # A process's own value is None until its generator returns, so
        # the process stands in for the bootstrap event.
        self._resume(self)

    def _resume(self, event: Event) -> None:
        simulator = self.simulator
        if self._traced:
            trace = simulator.trace
            if trace is not None:
                trace.process_event("resume", self.name, simulator.now)
        try:
            target = self._generator.send(event.value)
        except StopIteration as stop:
            if self._traced:
                trace = simulator.trace
                if trace is not None:
                    trace.process_event("end", self.name, simulator.now)
            if not self.queued:
                self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
        if target.triggered:
            # The event already fired; resume on the next tick so that
            # event ordering stays deterministic.
            immediate = simulator.event(transient=True)
            immediate.callbacks.append(self._resume)
            immediate.succeed(target.value)
        else:
            target.callbacks.append(self._resume)


class Simulator:
    """Indexed event calendar plus virtual clock (microseconds).

    ``trace`` is an optional :class:`~repro.obs.trace.TraceRecorder`
    that named stores and processes report to; ``None`` (the default)
    keeps every hook on its zero-cost guard path.
    """

    def __init__(self, trace=None) -> None:
        self.now = 0.0
        self.trace = trace
        #: exact timestamp -> FIFO list of events queued for it
        self._buckets = {}
        #: heap of the distinct timestamps present in ``_buckets``
        self._times: List[float] = []
        #: recycled engine-internal events (see :class:`Event`)
        self._free: List[Event] = []

    def _schedule(self, delay: float, entry) -> None:
        """Queue ``entry`` — an :class:`Event` or a thunk (a bound
        method taking no argument) — ``delay`` µs from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} into the past")
        at = self.now + delay
        bucket = self._buckets.get(at)
        if bucket is None:
            self._buckets[at] = [entry]
            heapq.heappush(self._times, at)
        else:
            bucket.append(entry)

    def timeout(self, delay: float, value: Any = None, transient: bool = False) -> Event:
        """An event that fires ``delay`` microseconds from now.

        ``transient=True`` promises the caller will not retain the event
        after it fires (a fire-and-forget sleep); the engine then
        recycles it through the free-list. The default keeps the event
        caller-owned forever, so holding a timeout across
        :meth:`run` calls stays safe.
        """
        free = self._free
        event = free.pop() if free else Event(self)
        event.recyclable = transient
        event.succeed(value, delay=delay)
        return event

    def event(self, transient: bool = False) -> Event:
        """A fresh unqueued event (queue it with ``succeed``).

        ``transient`` has the same not-retained-after-firing contract as
        in :meth:`timeout`.
        """
        free = self._free
        event = free.pop() if free else Event(self)
        event.recyclable = transient
        return event

    def process(self, generator: Generator, name: str = "process") -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: List[Event]) -> Event:
        """An event that fires once every event in ``events`` has fired.

        The join's value is the list of member values in the order the
        members were passed (not the order they fired), so waiters see a
        deterministic result. Already-triggered members count
        immediately; an empty list yields a join that fires on the next
        tick — both cases keep a reconfiguration barrier well-defined
        even when a window had nothing in flight.

        Already-fired members are folded into one deferred count event
        (not one tick event each): the deferred decrement lands on the
        calendar at the position the *first* per-member tick used to
        occupy, and since the per-member ticks were scheduled
        back-to-back nothing else could ever fire between them — so
        collapsing them is observably identical while a wide drain
        barrier (windowed sessions fire one per window) allocates O(1)
        extra events instead of O(members).
        """
        join = self.event()
        members = list(events)
        if not members:
            join.succeed([])
            return join
        pending = [member for member in members if not member.triggered]
        # the already-fired members count as one deferred member
        remaining = [len(pending) + (len(pending) < len(members))]

        def _on_fire(_event: Event) -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                join.succeed([m.value for m in members])

        for member in pending:
            member.callbacks.append(_on_fire)
        if len(pending) < len(members):
            deferred = self.event(transient=True)
            deferred.callbacks.append(_on_fire)
            deferred.succeed(None)
        return join

    def run(self, until: Optional[float] = None) -> float:
        """Execute events until the calendar drains or the clock passes
        ``until``. Returns the final clock value."""
        buckets = self._buckets
        times = self._times
        free = self._free
        while times:
            time = times[0]
            if until is not None and time > until:
                self.now = until
                return self.now
            self.now = time
            # Events scheduled *while draining* at the same timestamp are
            # appended to this same bucket, and the iterator drains them
            # in this pass — where the old heap's sequence numbers did.
            bucket = buckets[time]
            entries = iter(bucket)
            try:
                for event in entries:
                    if event.__class__ is MethodType:
                        event()
                        continue
                    event.triggered = True
                    callbacks = event.callbacks
                    if not event.recyclable:
                        event.callbacks = []
                    for callback in callbacks:
                        callback(event)
                    if event.recyclable:
                        # a triggered event gains no callbacks: keep the list
                        callbacks.clear()
                        event.recyclable = False
                        event.queued = False
                        event.triggered = False
                        event.value = None
                        free.append(event)
            except BaseException:
                # Leave the calendar resumable: drop what already fired,
                # keep the rest of the bucket for a later run().
                del bucket[:len(bucket) - length_hint(entries)]
                raise
            del buckets[time]
            heapq.heappop(times)
        # Recycled events point back at the simulator; a drained
        # calendar drops them so the pair is not left to the cycle
        # collector.
        free.clear()
        if until is not None:
            self.now = until
        return self.now


class Store:
    """FIFO channel between processes, with optional capacity.

    ``put`` returns an event that fires when the item has been accepted
    (immediately unless the store is full); ``get`` returns an event that
    fires with the oldest item once one is available.

    A *named* store on a traced simulator reports its depth (queued
    items plus blocked putters — i.e. total backlog) after every put and
    get, giving the per-queue depth counters and highwater marks in the
    trace.
    """

    def __init__(
        self,
        simulator: Simulator,
        capacity: Optional[int] = None,
        name: Optional[str] = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"store capacity must be >= 1, got {capacity}")
        self.simulator = simulator
        self.capacity = capacity
        self.name = name
        self._traced = simulator.trace is not None and name is not None
        self._items = deque()
        self._getters = deque()
        self._putters = deque()  # (event, item) pairs waiting for room

    def _report_depth(self) -> None:
        trace = self.simulator.trace
        if trace is not None and self.name is not None:
            trace.queue_depth(
                self.name,
                len(self._items) + len(self._putters),
                self.simulator.now,
            )

    def put(self, item: Any, transient: bool = False) -> Event:
        free = self.simulator._free
        event = free.pop() if free else Event(self.simulator)
        event.recyclable = transient
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed(None)
            # Getters and items are never both pending after a public
            # call (_dispatch drains), so an empty getter queue means
            # there is provably nothing to match.
            if self._getters:
                self._dispatch()
        else:
            self._putters.append((event, item))
        if self._traced:
            self._report_depth()
        return event

    def get(self, transient: bool = False) -> Event:
        free = self.simulator._free
        event = free.pop() if free else Event(self.simulator)
        event.recyclable = transient
        self._getters.append(event)
        if self._items:
            self._dispatch()
        if self._traced:
            self._report_depth()
        return event

    def _dispatch(self) -> None:
        while self._getters and self._items:
            getter = self._getters.popleft()
            getter.succeed(self._items.popleft())
            while self._putters and (
                self.capacity is None or len(self._items) < self.capacity
            ):
                putter, item = self._putters.popleft()
                self._items.append(item)
                putter.succeed(None)
