"""Deterministic numeric reductions.

Floating-point addition is not associative, so the *order* in which a
sequence of energies or latencies is reduced changes the low bits of the
result. Every invariant this reproduction tests — serial == parallel ==
warm-cache equality, traced == untraced byte-identity, CStream ≤ CS —
therefore requires accumulations over per-task/per-core quantities to be
*order-pinned*: the reduction order must be a deterministic function of
the inputs, never of set/hash ordering or thread interleaving.

:func:`ordered_sum` is that contract made explicit. It computes exactly
what ``sum(values)`` computes over the same iteration order (a plain
left fold — no re-sorting, no pairwise tree, so swapping it in never
changes an existing result), but its call sites assert "this order is
deliberate". The determinism linter (rule ``CSA005`` in
:mod:`repro.analysis.lint`) flags bare ``sum()`` over energy/latency
sequences in the simulation and scheduling packages and points here.

:func:`keyed_uniform` is the keyed random draw of the fleet tier
(measurement noise, backoff jitter): a uniform that is a pure function
of ``(seed, stream, *ids)``, never of when or in what order it is drawn.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Sequence

import numpy as np

from repro.memo import lru_lookup

__all__ = ["keyed_uniform", "mean", "ordered_sum"]

#: keyed draws kept by :func:`keyed_uniform`; one fleet seed draws a few
#: hundred (tenant, window) and (tenant, attempt) keys
_KEYED_UNIFORMS_MAX = 4096
_KEYED_UNIFORMS: "OrderedDict[tuple, float]" = OrderedDict()


def ordered_sum(values: Iterable[float], start: float = 0.0) -> float:
    """Left-fold sum of ``values`` in their iteration order.

    Identical to ``sum(values, start)`` — the point is the name: callers
    guarantee the iterable's order is deterministic (a tuple, a list, an
    insertion-ordered dict's ``.values()``), making energy/latency
    accumulation reproducible bit-for-bit across runs and processes.
    """
    total = start
    for value in values:
        total += value
    return total


def mean(values: Sequence[float]) -> float:
    """``float(np.mean(values))``, bit for bit, without numpy for short
    sequences.

    numpy adds fewer than 8 values one after another, starting from
    0.0, and divides the sum by the count — exactly this left fold. From
    8 values on it sums pairwise, so those go to numpy.
    """
    count = len(values)
    if count >= 8:
        return float(np.mean(values))
    total = 0.0
    for value in values:
        total += value
    return total / count


def keyed_uniform(seed: int, stream: int, *ids: int) -> float:
    """``np.random.default_rng([seed, stream, *ids]).random()``, memoized
    process-wide.

    ``stream`` separates the draws of different consumers of one seed
    and ``ids`` name the entity and occasion (say, tenant and window).
    The memo keeps the :data:`_KEYED_UNIFORMS_MAX` most recently used
    draws, so repeated runs over the same keys (the arms of one fleet
    scenario) build each generator once.
    """
    key = (seed, stream, *ids)
    return lru_lookup(
        _KEYED_UNIFORMS, key, _KEYED_UNIFORMS_MAX,
        lambda: np.random.default_rng(list(key)).random(),
    )
