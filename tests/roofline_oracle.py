"""Row-at-a-time reference for the segmented least-squares fit (Eq 5).

``line_fit_errors`` folds each row's running moments with its own
``np.add.accumulate`` call, and ``fit_piecewise`` runs the split search
one end point ``j`` at a time. They are the straightforward form of
:func:`repro.core.roofline._line_fit_errors` and
:func:`repro.core.roofline.fit_piecewise`, which do the same arithmetic
over the whole matrix; the tests compare the two bit for bit.
"""

import numpy as np

from repro.core.roofline import FittedPiecewise, _line_params
from repro.errors import ProfilingError


def line_fit_errors(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """err[i, j] = SSE of the least-squares line through points i..j.

    ``np.add.accumulate`` is a *sequential* left fold
    (``out[k] = out[k-1] + in[k]``, no pairwise tree), so every running
    moment equals the scalar ``s += term`` accumulation exactly.
    Degenerate cells (single point, vertical run) divide by a dummy 1.0
    and are masked to 0.0.
    """
    n = len(x)
    err = np.zeros((n, n))
    xx = x * x
    xy = x * y
    yy = y * y
    for i in range(n):
        sx = np.add.accumulate(x[i:])
        sy = np.add.accumulate(y[i:])
        sxx = np.add.accumulate(xx[i:])
        sxy = np.add.accumulate(xy[i:])
        syy = np.add.accumulate(yy[i:])
        count = np.arange(1, n - i + 1, dtype=float)
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
        err[i, i:] = np.where(degenerate, 0.0, np.maximum(sse, 0.0))
    return err


def fit_piecewise(kappas, values, segments: int = 4) -> FittedPiecewise:
    """Segmented least-squares fit with a per-``j`` split search."""
    if len(kappas) != len(values):
        raise ProfilingError("kappas and values must have the same length")
    if len(kappas) < 2:
        raise ProfilingError("need at least two samples to fit a roofline")
    order = np.argsort(np.asarray(kappas, dtype=float))
    x = np.asarray(kappas, dtype=float)[order]
    y = np.asarray(values, dtype=float)[order]
    n = len(x)
    segments = max(1, min(segments, n // 2))

    err = line_fit_errors(x, y)
    infinity = float("inf")
    # dp[s][j]: best error covering points 0..j with s+1 segments.
    dp = np.full((segments, n), infinity)
    choice = np.zeros((segments, n), dtype=int)
    dp[0, :] = err[0, :]
    for s in range(1, segments):
        # np.argmin returns the *first* minimum: a strict-< scan's
        # tie rule.
        prev = dp[s - 1]
        for j in range(s, n):
            candidates = prev[s - 1:j] + err[s:j + 1, j]
            best_index = int(np.argmin(candidates))
            dp[s, j] = candidates[best_index]
            choice[s, j] = s + best_index

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
