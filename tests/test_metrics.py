"""Measurement record aggregation (CLCV, E_mes)."""

import pytest

from repro.runtime.metrics import BatchMetrics, RepetitionResult, RunResult


def make_repetition(index, latency, energy, violated):
    batch = BatchMetrics(
        batch_index=0,
        latency_us_per_byte=latency,
        energy_uj_per_byte=energy,
        violated=violated,
    )
    return RepetitionResult(
        repetition=index,
        batches=(batch,),
        latency_us_per_byte=latency,
        energy_uj_per_byte=energy,
        violated=violated,
    )


class TestRunResult:
    def test_clcv_fraction(self):
        repetitions = tuple(
            make_repetition(i, 20.0, 0.4, i < 3) for i in range(10)
        )
        assert RunResult(repetitions).clcv == pytest.approx(0.3)

    def test_clcv_empty(self):
        assert RunResult(()).clcv == 0.0

    def test_clcv_zero_when_no_violations(self):
        repetitions = tuple(
            make_repetition(i, 20.0, 0.4, False) for i in range(5)
        )
        assert RunResult(repetitions).clcv == 0.0

    def test_mean_energy(self):
        repetitions = (
            make_repetition(0, 20.0, 0.3, False),
            make_repetition(1, 20.0, 0.5, False),
        )
        assert RunResult(repetitions).mean_energy_uj_per_byte == (
            pytest.approx(0.4)
        )

    def test_mean_latency(self):
        repetitions = (
            make_repetition(0, 10.0, 0.4, False),
            make_repetition(1, 30.0, 0.4, True),
        )
        assert RunResult(repetitions).mean_latency_us_per_byte == (
            pytest.approx(20.0)
        )

