"""Piecewise-linear roofline fitting (paper Eq 5).

The cost model estimates a core's η(κ) and ζ(κ) as four-region
piecewise-linear functions fitted to profiled samples. The fit is the
classic *segmented least squares* dynamic program: for ``k`` segments
over ``n`` sorted samples it chooses the segment boundaries minimizing
the total squared error of per-segment line fits — O(k·n²) with O(n²)
precomputed single-segment errors.

Outside the sampled κ range the fit clamps: below the first sample it
extends the first segment, above the last sample it holds the last
segment's end value (the "roof").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ProfilingError

__all__ = ["FittedPiecewise", "fit_piecewise"]


@dataclass(frozen=True)
class FittedPiecewise:
    """A fitted piecewise-linear curve over κ.

    ``boundaries[s]`` is the κ upper edge of segment ``s`` (the last one
    is the roof knee); ``slopes``/``intercepts`` are per-segment line
    parameters.
    """

    boundaries: Tuple[float, ...]
    slopes: Tuple[float, ...]
    intercepts: Tuple[float, ...]
    kappa_min: float
    kappa_max: float
    residual: float

    @property
    def segment_count(self) -> int:
        return len(self.slopes)

    @property
    def roof(self) -> float:
        """Value held above the last sampled κ."""
        return self.slopes[-1] * self.kappa_max + self.intercepts[-1]

    def value(self, kappa: float) -> float:
        """Evaluate the fit at ``kappa`` (clamped outside the fit range)."""
        if kappa < 0:
            raise ValueError(f"operational intensity must be >= 0, got {kappa}")
        kappa = min(kappa, self.kappa_max)
        for boundary, slope, intercept in zip(
            self.boundaries, self.slopes, self.intercepts
        ):
            if kappa <= boundary:
                return max(slope * kappa + intercept, 1e-9)
        return max(self.roof, 1e-9)


def _line_fit_errors(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """err[i, j] = SSE of the least-squares line through points i..j.

    Row ``i`` of the index-shifted moment matrix holds samples
    ``i, i+1, ...``, so one ``np.add.accumulate`` along the rows yields
    every run's moments. Accumulate is a *sequential* left fold
    (``out[k] = out[k-1] + in[k]``, no pairwise tree), so each moment
    equals the scalar ``s += term`` accumulation exactly. Degenerate
    cells (single point, vertical run) divide by a dummy 1.0 and are
    masked to 0.0.
    """
    n = len(x)
    moments = np.zeros((5, 2 * n))  # zero past the last sample
    moments[:, :n] = (x, y, x * x, x * y, y * y)
    shifted = sliding_window_view(moments, n, axis=1)[:, :n]
    sx, sy, sxx, sxy, syy = np.add.accumulate(shifted, axis=2)
    count = np.arange(1, n + 1, dtype=float)
    denominator = count * sxx - sx * sx
    degenerate = (count < 2) | (np.abs(denominator) < 1e-12)
    safe = np.where(degenerate, 1.0, denominator)
    slope = (count * sxy - sx * sy) / safe
    intercept = (sy - slope * sx) / count
    sse = (
        syy
        - 2 * slope * sxy
        - 2 * intercept * sy
        + slope * slope * sxx
        + 2 * slope * intercept * sx
        + count * intercept * intercept
    )
    # Read as rows of 2n - 1, row i of the (n, 2n) buffer moves right
    # by i: err[i, j] is run i..j, and j < i lands in the zero padding.
    padded = np.zeros((n, 2 * n))
    padded[:, :n] = np.where(degenerate, 0.0, np.maximum(sse, 0.0))
    return padded.ravel()[:n * (2 * n - 1)].reshape(n, 2 * n - 1)[:, :n]


def _line_params(x: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
    count = len(x)
    if count == 1:
        return 0.0, float(y[0])
    sx, sy = float(x.sum()), float(y.sum())
    sxx, sxy = float((x * x).sum()), float((x * y).sum())
    denominator = count * sxx - sx * sx
    if abs(denominator) < 1e-12:
        return 0.0, sy / count
    slope = (count * sxy - sx * sy) / denominator
    intercept = (sy - slope * sx) / count
    return slope, intercept


def fit_piecewise(
    kappas: Sequence[float],
    values: Sequence[float],
    segments: int = 4,
) -> FittedPiecewise:
    """Segmented least-squares fit of ``values`` over ``kappas``.

    The paper fits four segments (Eq 5, Fig 3); fewer samples than
    2×segments reduce the segment count automatically.
    """
    if len(kappas) != len(values):
        raise ProfilingError("kappas and values must have the same length")
    if len(kappas) < 2:
        raise ProfilingError("need at least two samples to fit a roofline")
    order = np.argsort(np.asarray(kappas, dtype=float))
    x = np.asarray(kappas, dtype=float)[order]
    y = np.asarray(values, dtype=float)[order]
    n = len(x)
    segments = max(1, min(segments, n // 2))

    err = _line_fit_errors(x, y)
    infinity = float("inf")
    # dp[s][j]: best error covering points 0..j with s+1 segments.
    dp = np.full((segments, n), infinity)
    choice = np.zeros((segments, n), dtype=int)
    dp[0, :] = err[0, :]
    ends_before_start = np.tri(n, k=-1, dtype=bool)
    for s in range(1, segments):
        # candidates[i - s, j - s] = dp[s-1, i-1] + err[i, j], last segment
        # i..j (i > j masked). argmin keeps the *first* minimum, the lowest
        # i: a strict-< scan's tie rule, so the boundaries are unchanged.
        candidates = dp[s - 1, s - 1:n - 1, None] + err[s:, s:]
        candidates[ends_before_start[s:, s:]] = infinity
        best_index = np.argmin(candidates, axis=0)
        dp[s, s:] = candidates[best_index, np.arange(n - s)]
        choice[s, s:] = s + best_index

    # Reconstruct segment starts.
    starts = []
    j = n - 1
    for s in range(segments - 1, 0, -1):
        i = int(choice[s, j])
        starts.append(i)
        j = i - 1
    starts.append(0)
    starts.reverse()

    boundaries, slopes, intercepts = [], [], []
    for index, start in enumerate(starts):
        end = (starts[index + 1] - 1) if index + 1 < len(starts) else n - 1
        slope, intercept = _line_params(x[start:end + 1], y[start:end + 1])
        slopes.append(slope)
        intercepts.append(intercept)
        boundaries.append(float(x[end]))
    return FittedPiecewise(
        boundaries=tuple(boundaries),
        slopes=tuple(slopes),
        intercepts=tuple(intercepts),
        kappa_min=float(x[0]),
        kappa_max=float(x[-1]),
        residual=float(dp[segments - 1, n - 1]),
    )
