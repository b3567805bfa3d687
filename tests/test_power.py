"""Energy meter: integration, breakdown, trace energy samples."""

import pytest

from repro.errors import SimulationError
from repro.simcore.boards import rk3399
from repro.simcore.power import EnergyMeter


@pytest.fixture
def meter():
    return EnergyMeter(rk3399())


class TestBusyRecording:
    def test_energy_is_power_times_time(self, meter):
        energy = meter.record_busy(0, 0.0, 100.0, 0.02)
        assert energy == pytest.approx(2.0)  # W x µs = µJ

    def test_accumulates_per_core(self, meter):
        meter.record_busy(0, 0.0, 10.0, 1.0)
        meter.record_busy(0, 10.0, 10.0, 1.0)
        meter.record_busy(4, 0.0, 5.0, 2.0)
        by_core = meter.busy_energy_by_core()
        assert by_core[0] == pytest.approx(20.0)
        assert by_core[4] == pytest.approx(10.0)

    def test_negative_duration_rejected(self, meter):
        with pytest.raises(SimulationError):
            meter.record_busy(0, 0.0, -1.0, 1.0)

    def test_negative_power_rejected(self, meter):
        with pytest.raises(SimulationError):
            meter.record_busy(0, 0.0, 1.0, -1.0)


class TestOverhead:
    def test_overhead_accumulates(self, meter):
        meter.record_overhead(3.0)
        meter.record_overhead(4.0)
        breakdown = meter.finalize(0.0)
        assert breakdown.overhead_uj == pytest.approx(7.0)

    def test_negative_overhead_rejected(self, meter):
        with pytest.raises(SimulationError):
            meter.record_overhead(-1.0)


class TestFinalize:
    def test_static_energy_scales_with_window(self, meter):
        short = EnergyMeter(rk3399()).finalize(1000.0)
        long = EnergyMeter(rk3399()).finalize(2000.0)
        assert long.static_uj == pytest.approx(2 * short.static_uj)

    def test_total_is_sum_of_parts(self, meter):
        meter.record_busy(0, 0.0, 10.0, 1.0)
        meter.record_overhead(5.0)
        breakdown = meter.finalize(100.0)
        assert breakdown.total_uj == pytest.approx(
            breakdown.busy_uj + breakdown.static_uj + breakdown.overhead_uj
        )

    def test_negative_window_rejected(self, meter):
        with pytest.raises(SimulationError):
            meter.finalize(-1.0)

    def test_static_power_includes_uncore_and_cores(self):
        board = rk3399()
        breakdown = EnergyMeter(board).finalize(1000.0)
        expected = (
            board.uncore_power_w
            + sum(core.static_power_w for core in board.cores)
        ) * 1000.0
        assert breakdown.static_uj == pytest.approx(expected)


class TestTraceSamples:
    def test_busy_interval_sampled_at_its_end(self):
        from repro.obs.trace import TraceRecorder

        recorder = TraceRecorder()
        meter = EnergyMeter(rk3399(), trace=recorder)
        meter.record_busy(0, 20.0, 30.0, 0.5)
        meter.record_busy(1, 60.0, 10.0, 0.25)
        samples = [
            (event.ts_us, dict(event.args)["value"])
            for event in recorder.events
            if event.name == "energy.busy"
        ]
        # The cumulative busy-energy counter steps at each interval's
        # end: the time series a power trace would integrate to.
        assert samples == [(50.0, pytest.approx(15.0)),
                           (70.0, pytest.approx(17.5))]
