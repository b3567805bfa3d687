"""Hardware model: rooflines, frequency scaling, power, replication."""

import pytest

from repro.errors import ConfigurationError
from repro.simcore.hardware import (
    CoreType,
    PiecewiseRoofline,
    replication_factor,
)
from repro.simcore.boards import rk3399


@pytest.fixture(scope="module")
def big(board_module=None):
    return rk3399().cores_of_type(CoreType.BIG)[0]


@pytest.fixture(scope="module")
def little():
    return rk3399().cores_of_type(CoreType.LITTLE)[0]


class TestPiecewiseRoofline:
    def test_segment_evaluation(self):
        curve = PiecewiseRoofline(
            breakpoints=(10.0, 20.0),
            slopes=(1.0, 0.5),
            intercepts=(0.0, 5.0),
            roof=15.0,
        )
        assert curve.value(5.0) == 5.0
        assert curve.value(15.0) == 12.5
        assert curve.value(100.0) == 15.0

    def test_roof_above_last_breakpoint(self):
        curve = PiecewiseRoofline((1.0,), (2.0,), (0.0,), roof=7.0)
        assert curve.value(50.0) == 7.0

    def test_negative_kappa_rejected(self):
        curve = PiecewiseRoofline((1.0,), (1.0,), (0.0,), roof=1.0)
        with pytest.raises(ValueError):
            curve.value(-1.0)

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ConfigurationError):
            PiecewiseRoofline((1.0, 2.0), (1.0,), (0.0,), roof=1.0)

    def test_unsorted_breakpoints_rejected(self):
        with pytest.raises(ConfigurationError):
            PiecewiseRoofline((2.0, 1.0), (1.0, 1.0), (0.0, 0.0), roof=1.0)

    def test_value_floors_at_epsilon(self):
        # A pathological segment dipping below zero must not return <= 0.
        curve = PiecewiseRoofline((10.0,), (-1.0,), (1.0,), roof=5.0)
        assert curve.value(9.0) > 0


class TestAsymmetricComputation:
    """The asymmetric computation effect (paper §II-B)."""

    def test_big_faster_at_high_kappa(self, big, little):
        for kappa in (100, 200, 320, 450):
            assert big.eta.value(kappa) > little.eta.value(kappa)

    def test_little_more_efficient_everywhere(self, big, little):
        for kappa in (10, 50, 102, 220, 320):
            assert little.zeta.value(kappa) > big.zeta.value(kappa)

    def test_little_eta_dips_in_stall_region(self, little):
        """Fig 3's key observation: η decreases between κ 30 and 70 on
        the in-order little core."""
        assert little.eta.value(30) > little.eta.value(50) > little.eta.value(69)

    def test_big_eta_monotone(self, big):
        values = [big.eta.value(k) for k in range(5, 500, 5)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_big_core_advantage_grows_past_25(self, big, little):
        """Paper: above κ≈25 running on big cores becomes increasingly
        cost-effective."""
        gain_low = big.eta.value(25) / little.eta.value(25)
        gain_high = big.eta.value(300) / little.eta.value(300)
        assert gain_high > gain_low


class TestFrequencyScaling:
    def test_eta_scales_down(self, big):
        assert big.eta_at(300, 900.0) < big.eta_at(300, 1800.0)

    def test_eta_sublinear_in_frequency(self, big):
        half = big.eta_at(300, 900.0)
        full = big.eta_at(300, 1800.0)
        assert half > 0.5 * full  # memory-bound share does not scale

    def test_default_frequency_is_max(self, big):
        assert big.eta_at(300) == big.eta_at(300, 1800.0)

    def test_power_scales_superlinearly(self, big):
        half = big.busy_power_w(300, 900.0)
        full = big.busy_power_w(300, 1800.0)
        assert half < 0.5 * full

    def test_busy_power_at_max_matches_rooflines(self, big):
        kappa = 300
        expected = big.eta.value(kappa) / big.zeta.value(kappa)
        assert big.busy_power_w(kappa) == pytest.approx(expected)

    def test_energy_per_instruction_u_shape(self, little):
        """Fig 15: the lowest frequency is not the most efficient."""
        kappa = 102

        def energy_per_instruction(freq):
            return little.busy_power_w(kappa, freq) / little.eta_at(kappa, freq)

        lowest = energy_per_instruction(408.0)
        middle = energy_per_instruction(816.0)
        maximum = energy_per_instruction(1416.0)
        assert middle < maximum
        assert middle < lowest

    def test_invalid_frequency_rejected(self, big):
        with pytest.raises(ConfigurationError):
            big.eta_at(100, -5.0)

    def test_overclocking_clamped(self, big):
        assert big.eta_at(100, 9999.0) == big.eta_at(100, 1800.0)


class TestReplicationFactor:
    def test_single_replica_free(self):
        assert replication_factor(0.27, 1) == 1.0

    def test_two_replicas_is_anchor(self):
        # Table IV: t_re×2 costs ~27% more than t_all.
        assert replication_factor(0.27, 2) == pytest.approx(1.27)

    def test_sublinear_growth(self):
        six = replication_factor(0.27, 6)
        linear = 1 + 0.27 * 5
        assert 1.27 < six < linear

    def test_invalid_replicas(self):
        with pytest.raises(ConfigurationError):
            replication_factor(0.1, 0)
