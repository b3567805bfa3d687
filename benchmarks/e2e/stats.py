"""Summary statistics shared by ``run.py`` and ``compare.py``."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

__all__ = ["iqr", "tail_percentile"]

#: a tail percentile is reported only with this many samples beyond it
MIN_TAIL_SAMPLES = 10


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them (0 for one value)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return third - first


def tail_percentile(values: Sequence[float], percent: int) -> Optional[float]:
    """The ``percent``-th percentile of ``values``, or None when fewer
    than :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    if len(values) * (100 - percent) / 100.0 < MIN_TAIL_SAMPLES:
        return None
    return statistics.quantiles(values, n=100)[percent - 1]
