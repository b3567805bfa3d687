"""Segmented least-squares roofline fitting (Eq 5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profiler import profile_roofline
from repro.core.roofline import _line_fit_errors, fit_piecewise
from repro.errors import ProfilingError
from repro.simcore.boards import jetson_tx2_like, rk3399
from repro.simcore.hardware import CoreType
from tests import roofline_oracle


class TestExactRecovery:
    def test_single_line(self):
        x = list(range(1, 20))
        y = [2.0 * k + 1.0 for k in x]
        fit = fit_piecewise(x, y, segments=1)
        assert fit.slopes[0] == pytest.approx(2.0)
        assert fit.intercepts[0] == pytest.approx(1.0)
        assert fit.residual == pytest.approx(0.0, abs=1e-9)

    def test_two_segments_with_kink(self):
        x = list(range(1, 31))
        y = [float(k) if k <= 15 else 15.0 + 0.1 * (k - 15) for k in x]
        fit = fit_piecewise(x, y, segments=2)
        assert fit.residual == pytest.approx(0.0, abs=1e-6)
        # The kink point lies on both lines, so either split is exact.
        assert fit.boundaries[0] in (14.0, 15.0)

    def test_noiseless_rk3399_little_eta(self):
        """The DP recovers the little core's true four segments."""
        little = rk3399().cores_of_type(CoreType.LITTLE)[0]
        kappas = list(range(2, 500, 2))
        values = [little.eta.value(k) for k in kappas]
        fit = fit_piecewise(kappas, values, segments=4)
        # Kinks at 30 and 70 recovered within grid resolution.
        assert abs(fit.boundaries[0] - 30) <= 2
        assert abs(fit.boundaries[1] - 70) <= 2
        for kappa in (10, 28, 31, 50, 69, 71, 150, 400):
            assert fit.value(kappa) == pytest.approx(
                little.eta.value(kappa), rel=0.02
            )

    def test_residual_decreases_with_segments(self):
        x = list(range(1, 50))
        y = [np.sqrt(k) for k in x]
        residuals = [
            fit_piecewise(x, y, segments=s).residual for s in (1, 2, 4)
        ]
        assert residuals[0] >= residuals[1] >= residuals[2]


class TestEdgeCases:
    def test_too_few_samples_rejected(self):
        with pytest.raises(ProfilingError):
            fit_piecewise([1.0], [1.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ProfilingError):
            fit_piecewise([1.0, 2.0], [1.0])

    def test_two_points_fit_one_segment(self):
        fit = fit_piecewise([1.0, 2.0], [3.0, 5.0])
        assert fit.segment_count == 1
        assert fit.value(1.5) == pytest.approx(4.0)

    def test_segments_clamped_to_data(self):
        fit = fit_piecewise([1, 2, 3, 4], [1, 2, 3, 4], segments=4)
        assert fit.segment_count <= 2

    def test_unsorted_input_handled(self):
        fit = fit_piecewise([3, 1, 2], [6, 2, 4], segments=1)
        assert fit.value(2.0) == pytest.approx(4.0)

    def test_clamping_below_and_above(self):
        fit = fit_piecewise([10, 20, 30, 40], [1, 2, 3, 4], segments=1)
        assert fit.value(50.0) == fit.value(40.0)  # roof
        assert fit.value(0.0) <= fit.value(10.0)

    def test_negative_kappa_rejected(self):
        fit = fit_piecewise([1, 2, 3], [1, 2, 3], segments=1)
        with pytest.raises(ValueError):
            fit.value(-1.0)

    def test_value_never_nonpositive(self):
        fit = fit_piecewise([1, 2, 3, 4], [4, 3, 2, 1], segments=1)
        assert fit.value(0.0) > 0


class TestProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1, max_value=500),
                st.floats(min_value=0.1, max_value=100),
            ),
            min_size=4,
            max_size=40,
            unique_by=lambda pair: round(pair[0], 3),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_fit_is_finite_everywhere(self, points):
        kappas = [p[0] for p in points]
        values = [p[1] for p in points]
        fit = fit_piecewise(kappas, values)
        for kappa in np.linspace(0, 600, 50):
            assert np.isfinite(fit.value(float(kappa)))
            assert fit.value(float(kappa)) > 0

    @given(st.integers(min_value=1, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_perfect_line_always_recovered(self, segments):
        x = list(range(1, 25))
        y = [0.5 * k + 2 for k in x]
        fit = fit_piecewise(x, y, segments=segments)
        assert fit.value(12.0) == pytest.approx(8.0, rel=0.01)


def _assert_matches_oracle(kappas, values, segments=4):
    """Whole-matrix fit == row-at-a-time oracle, bit for bit."""
    order = np.argsort(np.asarray(kappas, dtype=float))
    x = np.asarray(kappas, dtype=float)[order]
    y = np.asarray(values, dtype=float)[order]
    assert (
        _line_fit_errors(x, y).tobytes()
        == roofline_oracle.line_fit_errors(x, y).tobytes()
    )
    # repr round-trips every float and tells -0.0 from 0.0
    assert repr(fit_piecewise(kappas, values, segments)) == repr(
        roofline_oracle.fit_piecewise(kappas, values, segments)
    )


class TestMatchesRowOracle:
    @pytest.mark.parametrize("board", [rk3399, jetson_tx2_like])
    @pytest.mark.parametrize("seed", range(5))
    def test_calibration_samples(self, board, seed):
        spec = board()
        for core_type in CoreType:
            cores = spec.cores_of_type(core_type)
            if not cores:
                continue
            samples = profile_roofline(cores[0], noise=0.01, seed=seed)
            _assert_matches_oracle(samples.kappas, samples.eta_values)
            _assert_matches_oracle(samples.kappas, samples.zeta_values)

    @given(
        st.lists(
            st.tuples(
                # few distinct κ, so duplicates (vertical runs) are common
                st.sampled_from([1.0, 2.0, 2.5, 7.0, 30.0, 64.0, 300.0]),
                st.floats(min_value=0.1, max_value=100),
            ),
            min_size=2,
            max_size=12,
        ),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_duplicate_kappas_unsorted(self, points, segments):
        _assert_matches_oracle(
            [p[0] for p in points], [p[1] for p in points], segments
        )

    @given(
        st.lists(
            st.floats(min_value=0.5, max_value=500),
            min_size=2,
            max_size=12,
        ),
        st.floats(min_value=0.1, max_value=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_constant_values(self, kappas, value):
        _assert_matches_oracle(kappas, [value] * len(kappas))

    def test_tie_resolves_to_first_minimum(self):
        """Splitting 0,1,2,1,0 before point 2 or before point 3 both
        fit exactly; the earlier split wins."""
        x = [0.0, 1.0, 2.0, 3.0, 4.0]
        y = [0.0, 1.0, 2.0, 1.0, 0.0]
        err = _line_fit_errors(np.array(x), np.array(y))
        assert err[0, 1] + err[2, 4] == err[0, 2] + err[3, 4] == 0.0
        fit = fit_piecewise(x, y, segments=2)
        assert fit.boundaries == (1.0, 4.0)
        _assert_matches_oracle(x, y, segments=2)
