"""Energy meter: busy pricing, overhead total, trace energy samples; the
board's static power."""

import pytest

from repro.errors import SimulationError
from repro.simcore.boards import rk3399
from repro.simcore.power import EnergyMeter


@pytest.fixture
def meter():
    return EnergyMeter()


class TestBusyRecording:
    def test_energy_is_power_times_time(self, meter):
        energy = meter.record_busy(0.0, 100.0, 0.02)
        assert energy == pytest.approx(2.0)  # W x µs = µJ

    def test_negative_duration_rejected(self, meter):
        with pytest.raises(SimulationError):
            meter.record_busy(0.0, -1.0, 1.0)

    def test_negative_power_rejected(self, meter):
        with pytest.raises(SimulationError):
            meter.record_busy(0.0, 1.0, -1.0)


class TestOverhead:
    def test_overhead_accumulates(self, meter):
        meter.record_overhead(3.0)
        meter.record_overhead(4.0)
        assert meter.overhead_uj == pytest.approx(7.0)

    def test_negative_overhead_rejected(self, meter):
        with pytest.raises(SimulationError):
            meter.record_overhead(-1.0)


class TestStaticPower:
    def test_static_power_includes_uncore_and_cores(self):
        board = rk3399()
        expected = board.uncore_power_w + sum(
            core.static_power_w for core in board.cores
        )
        assert board.static_power_w == pytest.approx(expected)


class TestTraceSamples:
    def test_busy_interval_sampled_at_its_end(self):
        from repro.obs.trace import TraceRecorder

        recorder = TraceRecorder()
        meter = EnergyMeter(trace=recorder)
        meter.record_busy(20.0, 30.0, 0.5)
        meter.record_busy(60.0, 10.0, 0.25)
        samples = [
            (event.ts_us, dict(event.args)["value"])
            for event in recorder.events
            if event.name == "energy.busy"
        ]
        # The cumulative busy-energy counter steps at each interval's
        # end: the time series a power trace would integrate to.
        assert samples == [(50.0, pytest.approx(15.0)),
                           (70.0, pytest.approx(17.5))]

    def test_counter_is_busy_plus_overhead(self):
        from repro.obs.trace import TraceRecorder

        recorder = TraceRecorder()
        meter = EnergyMeter(trace=recorder, clock=lambda: 40.0)
        meter.record_busy(0.0, 10.0, 1.0)
        meter.record_overhead(5.0)
        last = [e for e in recorder.events if e.name.startswith("energy.")][-1]
        assert (last.name, last.ts_us) == ("energy.overhead", 40.0)
        assert dict(last.args)["value"] == pytest.approx(15.0)
        assert meter.overhead_uj == pytest.approx(5.0)
