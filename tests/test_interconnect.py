"""Interconnect cost model and the Table II probe."""

import pytest

from repro.errors import ConfigurationError
from repro.simcore.boards import rk3399
from repro.simcore.interconnect import (
    InterconnectSpec,
    Path,
    PathCost,
    stream_probe,
)


@pytest.fixture(scope="module")
def spec():
    return rk3399().interconnect


class TestPathCost:
    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            PathCost(
                unit_cost_us_per_byte=-1.0,
                message_overhead_us=0.0,
                raw_bandwidth_gbps=1.0,
                raw_latency_ns=1.0,
            )

    def test_missing_path_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            InterconnectSpec(costs={Path.C0: spec.costs[Path.C0]})


class TestCostOrdering:
    def test_latency_ordering_c0_c1_c2(self, spec):
        assert (
            spec.costs[Path.C0].unit_cost_us_per_byte
            < spec.costs[Path.C1].unit_cost_us_per_byte
            < spec.costs[Path.C2].unit_cost_us_per_byte
        )

    def test_overhead_ordering(self, spec):
        assert (
            spec.costs[Path.C0].message_overhead_us
            < spec.costs[Path.C1].message_overhead_us
            < spec.costs[Path.C2].message_overhead_us
        )

    def test_raw_bandwidth_ordering_matches_paper(self, spec):
        assert spec.costs[Path.C0].raw_bandwidth_gbps == pytest.approx(2.7)
        assert spec.costs[Path.C1].raw_bandwidth_gbps == pytest.approx(0.7)
        assert spec.costs[Path.C2].raw_bandwidth_gbps == pytest.approx(0.4)

    def test_raw_latency_matches_paper(self, spec):
        assert spec.costs[Path.C0].raw_latency_ns == pytest.approx(70.4)
        assert spec.costs[Path.C1].raw_latency_ns == pytest.approx(142.4)
        assert spec.costs[Path.C2].raw_latency_ns == pytest.approx(420.8)

    def test_local_path_free(self, spec):
        assert spec.message_energy(Path.LOCAL) == 0.0
        assert spec.transfer_latency_us(Path.LOCAL, 1 << 20) == 0.0


class TestTransferLatency:
    def test_eq7_linear_form(self, spec):
        """Eq 7: latency = bytes x unit cost + ω."""
        cost = spec.costs[Path.C1]
        transferred = 1000.0
        expected = (
            transferred * cost.unit_cost_us_per_byte + cost.message_overhead_us
        )
        assert spec.transfer_latency_us(Path.C1, transferred) == pytest.approx(
            expected
        )

    def test_zero_bytes_costs_overhead_only(self, spec):
        assert spec.transfer_latency_us(Path.C2, 0.0) == pytest.approx(
            spec.costs[Path.C2].message_overhead_us
        )


class TestStreamProbe:
    def test_probe_near_raw_numbers(self, spec):
        probe = stream_probe(spec, Path.C0)
        assert probe["bandwidth_gbps"] == pytest.approx(2.7, rel=0.05)
        assert probe["latency_ns"] == pytest.approx(70.4, rel=0.05)

    def test_probe_deterministic_per_seed(self, spec):
        assert stream_probe(spec, Path.C1, seed=9) == stream_probe(
            spec, Path.C1, seed=9
        )

    def test_probe_rejects_local(self, spec):
        with pytest.raises(ConfigurationError):
            stream_probe(spec, Path.LOCAL)

    def test_probe_rejects_empty(self, spec):
        with pytest.raises(ConfigurationError):
            stream_probe(spec, Path.C0, probe_bytes=0)

    def test_probe_total_time_scales_with_size(self, spec):
        small = stream_probe(spec, Path.C2, probe_bytes=1 << 10)
        large = stream_probe(spec, Path.C2, probe_bytes=1 << 20)
        assert large["total_ns"] == pytest.approx(
            small["total_ns"] * 1024, rel=1e-9
        )
