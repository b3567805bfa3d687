"""Bounded exponential backoff with seeded, order-independent jitter.

The gateway queues rejected admissions and shed tenants for re-try.
Raw exponential backoff synchronizes retries into thundering herds, so
each delay carries jitter — but the usual ``random()`` jitter would
make runs irreproducible and parallel execution order-dependent. Here
every delay's jitter is :func:`~repro.numerics.keyed_uniform` of
``(seed, stream, *key, attempt)``: the draw depends only on *who* is
retrying and *which* attempt it is, never on when or in what order
delays are computed. The same schedule therefore falls out under ``jobs=1`` and
``jobs=2``, across reruns, and across scenario arms.

Delays are measured in gateway windows (the fleet's only clock).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError
from repro.numerics import keyed_uniform

__all__ = ["BackoffPolicy", "BASE_WINDOWS", "CAP_WINDOWS", "FACTOR", "JITTER"]

#: stream-domain tag so backoff draws never collide with the gateway's
#: measurement-noise streams derived from the same seed
_BACKOFF_STREAM = 11

#: first-retry delay, in windows
BASE_WINDOWS = 1.0
#: growth of the delay per attempt
FACTOR = 2.0
#: delay ceiling (pre-jitter), in windows
CAP_WINDOWS = 8.0
#: jitter fraction: u ~ U[0,1) widens the delay by up to this much
JITTER = 0.25


@dataclass(frozen=True)
class BackoffPolicy:
    """Deterministic ``min(BASE_WINDOWS * FACTOR^attempt, CAP_WINDOWS) *
    (1 + JITTER*u)``, with ``u`` drawn from ``seed``."""

    seed: int = 0

    def delay_windows(self, key: Tuple[int, ...], attempt: int) -> float:
        """The jittered delay before retry number ``attempt`` (0-based).

        ``key`` identifies the retrying entity (e.g. ``(tenant_id,)``).
        The draw is a pure function of (seed, key, attempt).
        """
        if attempt < 0:
            raise ConfigurationError("attempt must be >= 0")
        raw = min(BASE_WINDOWS * FACTOR ** attempt, CAP_WINDOWS)
        u = keyed_uniform(self.seed, _BACKOFF_STREAM, *key, attempt)
        return raw * (1.0 + JITTER * u)
