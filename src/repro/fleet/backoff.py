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

__all__ = ["BackoffPolicy"]

#: stream-domain tag so backoff draws never collide with the gateway's
#: measurement-noise streams derived from the same seed
_BACKOFF_STREAM = 11


@dataclass(frozen=True)
class BackoffPolicy:
    """Deterministic ``min(base * factor^attempt, cap) * (1 + jitter*u)``."""

    seed: int = 0
    #: first-retry delay, in windows
    base_windows: float = 1.0
    factor: float = 2.0
    #: delay ceiling (pre-jitter), in windows
    cap_windows: float = 8.0
    #: jitter fraction: u ~ U[0,1) widens the delay by up to this much
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.base_windows <= 0.0:
            raise ConfigurationError("base_windows must be positive")
        if self.factor < 1.0:
            raise ConfigurationError("factor must be >= 1")
        if self.cap_windows < self.base_windows:
            raise ConfigurationError("cap_windows must be >= base_windows")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError("jitter must be in [0, 1)")

    def delay_windows(self, key: Tuple[int, ...], attempt: int) -> float:
        """The jittered delay before retry number ``attempt`` (0-based).

        ``key`` identifies the retrying entity (e.g. ``(tenant_id,)``).
        The draw is a pure function of (seed, key, attempt).
        """
        if attempt < 0:
            raise ConfigurationError("attempt must be >= 0")
        raw = min(
            self.base_windows * self.factor ** attempt, self.cap_windows
        )
        u = keyed_uniform(self.seed, _BACKOFF_STREAM, *key, attempt)
        return raw * (1.0 + self.jitter * u)
