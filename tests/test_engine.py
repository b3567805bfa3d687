"""Discrete-event engine semantics."""

import pytest

from repro.errors import SimulationError
from repro.simcore.engine import Simulator, Store


class TestClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_timeout_advances_clock(self):
        sim = Simulator()
        sim.timeout(5.0)
        sim.run()
        assert sim.now == 5.0

    def test_run_until_stops_early(self):
        sim = Simulator()
        sim.timeout(100.0)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_with_empty_heap(self):
        sim = Simulator()
        assert sim.run(until=42.0) == 42.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)


class TestEvents:
    def test_succeed_delivers_value(self):
        sim = Simulator()
        event = sim.event()
        seen = []
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed("payload")
        sim.run()
        assert seen == ["payload"]

    def test_double_succeed_rejected(self):
        sim = Simulator()
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_simultaneous_events_fire_in_fifo_order(self):
        sim = Simulator()
        order = []
        for tag in ("a", "b", "c"):
            event = sim.timeout(1.0, tag)
            event.callbacks.append(lambda e: order.append(e.value))
        sim.run()
        assert order == ["a", "b", "c"]


class TestProcesses:
    def test_process_advances_through_timeouts(self):
        sim = Simulator()
        trace = []

        def worker():
            trace.append(sim.now)
            yield sim.timeout(3.0)
            trace.append(sim.now)
            yield sim.timeout(4.0)
            trace.append(sim.now)

        sim.process(worker())
        sim.run()
        assert trace == [0.0, 3.0, 7.0]

    def test_timeout_value_passed_to_process(self):
        sim = Simulator()
        received = []

        def worker():
            value = yield sim.timeout(1.0, "token")
            received.append(value)

        sim.process(worker())
        sim.run()
        assert received == ["token"]

    def test_process_completion_is_waitable(self):
        sim = Simulator()
        results = []

        def child():
            yield sim.timeout(2.0)
            return "done"

        def parent():
            value = yield sim.process(child())
            results.append((sim.now, value))

        sim.process(parent())
        sim.run()
        assert results == [(2.0, "done")]

    def test_yielding_non_event_raises(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_two_processes_interleave(self):
        sim = Simulator()
        trace = []

        def ticker(name, period):
            for _ in range(3):
                yield sim.timeout(period)
                trace.append((sim.now, name))

        sim.process(ticker("fast", 1.0))
        sim.process(ticker("slow", 2.5))
        sim.run()
        assert trace == [
            (1.0, "fast"), (2.0, "fast"), (2.5, "slow"),
            (3.0, "fast"), (5.0, "slow"), (7.5, "slow"),
        ]


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        seen = []

        def consumer():
            item = yield store.get()
            seen.append(item)

        store.put("x")
        sim.process(consumer())
        sim.run()
        assert seen == ["x"]

    def test_get_waits_for_put(self):
        sim = Simulator()
        store = Store(sim)
        seen = []

        def consumer():
            item = yield store.get()
            seen.append((sim.now, item))

        def producer():
            yield sim.timeout(5.0)
            yield store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert seen == [(5.0, "late")]

    def test_fifo_ordering(self):
        sim = Simulator()
        store = Store(sim)
        seen = []

        def consumer():
            for _ in range(3):
                item = yield store.get()
                seen.append(item)

        for item in (1, 2, 3):
            store.put(item)
        sim.process(consumer())
        sim.run()
        assert seen == [1, 2, 3]

    def test_capacity_blocks_producer(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        produced = []

        def producer():
            for index in range(3):
                yield store.put(index)
                produced.append((sim.now, index))

        def consumer():
            for _ in range(3):
                yield sim.timeout(10.0)
                yield store.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        # First put is immediate; each later put waits for a get.
        assert produced[0][0] == 0.0
        assert produced[1][0] >= 10.0
        assert produced[2][0] >= 20.0

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Store(Simulator(), capacity=0)
