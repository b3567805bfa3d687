"""Asymmetric multicore hardware model: cores, clusters, rooflines.

The simulator's ground truth for computation is a pair of four-segment
piecewise-linear roofline curves per core type (paper Fig 3 and Eq 5):

* ``eta(κ)`` — instructions per microsecond as a function of a task's
  operational intensity κ (instructions per memory access);
* ``zeta(κ)`` — instructions per microjoule.

Both curves grow with κ until a roof; on the in-order little cores the
second segment (κ between roughly 30 and 70) *decreases* — the paper
attributes this to L1-I misses stalling the in-order pipeline — which is
the effect that makes little cores a bad home for mid-κ tasks (Fig 13).

Frequency scaling: η scales sub-linearly with frequency (memory-bound
fractions don't speed up) and dynamic power scales super-linearly
(voltage tracks frequency), while static power is constant — so the
energy-per-instruction optimum is *not* at the lowest frequency
(paper Fig 15).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Tuple

from repro.errors import ConfigurationError

__all__ = [
    "CoreType",
    "PiecewiseRoofline",
    "CoreSpec",
    "ClusterSpec",
    "FREQUENCY_EXPONENT_PERFORMANCE",
    "FREQUENCY_EXPONENT_POWER",
    "replication_factor",
]

# Cache-thrashing cost of replication grows sublinearly: the first extra
# replica doubles the working sets, later ones mostly re-partition them.
_REPLICATION_EXPONENT = 0.75


def replication_factor(overhead_per_replica: float, replicas: int) -> float:
    """Multiplier ``1 + overhead·(r-1)^0.75`` for r-way replication.

    At r=2 this reduces to ``1 + overhead`` — the paper's Table IV
    anchor (t_re×2 costs ~27 % more energy than t_all).
    """
    if replicas < 1:
        raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
    return 1.0 + overhead_per_replica * (replicas - 1) ** _REPLICATION_EXPONENT

# η(f) ∝ (f/f_max)^0.9: compute-bound work scales with f, the memory-bound
# remainder does not.
FREQUENCY_EXPONENT_PERFORMANCE = 0.9
# Dynamic power ∝ f·V² with V roughly linear in f over the DVFS range.
FREQUENCY_EXPONENT_POWER = 2.7


class CoreType(enum.Enum):
    """The two core classes of a big.LITTLE processor."""

    LITTLE = "little"
    BIG = "big"


@dataclass(frozen=True)
class PiecewiseRoofline:
    """A piecewise-linear curve ``value(κ) = a_s·κ + b_s`` with a roof.

    ``breakpoints`` are the κ upper bounds of each segment;
    ``slopes``/``intercepts`` are the per-segment line parameters. Above
    the last breakpoint the curve is flat at ``roof``. This is exactly
    the functional form of the paper's Eq 5, so the cost model's
    piecewise-linear fit can recover it.
    """

    breakpoints: Tuple[float, ...]
    slopes: Tuple[float, ...]
    intercepts: Tuple[float, ...]
    roof: float

    def __post_init__(self) -> None:
        if not (len(self.breakpoints) == len(self.slopes) == len(self.intercepts)):
            raise ConfigurationError("roofline segment arrays must align")
        if list(self.breakpoints) != sorted(self.breakpoints):
            raise ConfigurationError("roofline breakpoints must be increasing")
        if self.roof <= 0:
            raise ConfigurationError("roofline roof must be positive")

    def value(self, kappa: float) -> float:
        """Evaluate the curve at operational intensity ``kappa``."""
        if kappa < 0:
            raise ValueError(f"operational intensity must be >= 0, got {kappa}")
        for boundary, slope, intercept in zip(
            self.breakpoints, self.slopes, self.intercepts
        ):
            if kappa <= boundary:
                return max(slope * kappa + intercept, 1e-9)
        return self.roof


@dataclass(frozen=True)
class CoreSpec:
    """Static description of one core.

    ``eta`` and ``zeta`` describe the core at ``max_frequency_mhz``;
    :meth:`eta_at`/:meth:`power_at` apply DVFS scaling.
    """

    core_id: int
    core_type: CoreType
    cluster_id: int
    model: str
    max_frequency_mhz: float
    frequency_levels_mhz: Tuple[float, ...]
    eta: PiecewiseRoofline
    zeta: PiecewiseRoofline
    #: leakage drawn even when the core idles (clock-gated), W
    static_power_w: float
    #: non-frequency-scaling share of busy power (un-gated fabric), W
    busy_floor_power_w: float = 0.0

    def __post_init__(self) -> None:
        if self.max_frequency_mhz <= 0:
            raise ConfigurationError("max frequency must be positive")
        if not self.frequency_levels_mhz:
            raise ConfigurationError("a core needs at least one frequency level")
        if max(self.frequency_levels_mhz) != self.max_frequency_mhz:
            raise ConfigurationError(
                "max_frequency_mhz must be the top frequency level"
            )
        if self.static_power_w < 0:
            raise ConfigurationError("static power must be non-negative")
        # Memo caches for the hot curve lookups, keyed (κ, frequency).
        # A simulated pipeline evaluates the same handful of per-stage κ
        # values hundreds of thousands of times, each walking a
        # piecewise curve and computing a float pow — caching returns
        # the exact float the first computation produced, so simulated
        # numbers are bit-identical. The caches are plain attributes
        # (not dataclass fields) attached past the frozen guard: repr,
        # eq, hash, and the board fingerprint are unaffected.
        object.__setattr__(self, "_eta_cache", {})
        object.__setattr__(self, "_power_cache", {})

    # -- computation ------------------------------------------------------

    def eta_at(self, kappa: float, frequency_mhz: float = None) -> float:
        """Instructions per µs at intensity κ and the given frequency."""
        key = (kappa, frequency_mhz)
        cached = self._eta_cache.get(key)
        if cached is not None:
            return cached
        base = self.eta.value(kappa)
        scale = self._frequency_fraction(frequency_mhz)
        result = base * scale ** FREQUENCY_EXPONENT_PERFORMANCE
        if len(self._eta_cache) >= 4096:
            self._eta_cache.clear()
        self._eta_cache[key] = result
        return result

    # -- energy -----------------------------------------------------------

    def busy_power_w(self, kappa: float, frequency_mhz: float = None) -> float:
        """Total power (W = µJ/µs) while running work of intensity κ.

        At maximum frequency this equals ``η(κ)/ζ(κ)`` exactly (the
        roofline curves are the ground truth); at lower frequencies only
        the dynamic share scales down, which is why energy per
        instruction is *not* minimized at the lowest frequency (Fig 15).
        """
        key = (kappa, frequency_mhz)
        cached = self._power_cache.get(key)
        if cached is not None:
            return cached
        total_max = self.eta.value(kappa) / self.zeta.value(kappa)
        dynamic_max = max(total_max - self.busy_floor_power_w, 0.0)
        scale = self._frequency_fraction(frequency_mhz)
        result = (
            dynamic_max * scale ** FREQUENCY_EXPONENT_POWER
            + min(self.busy_floor_power_w, total_max)
        )
        if len(self._power_cache) >= 4096:
            self._power_cache.clear()
        self._power_cache[key] = result
        return result

    def zeta_at(self, kappa: float, frequency_mhz: float = None) -> float:
        """Effective instructions per µJ at the given frequency."""
        return self.eta_at(kappa, frequency_mhz) / self.busy_power_w(
            kappa, frequency_mhz
        )

    def _frequency_fraction(self, frequency_mhz: float) -> float:
        if frequency_mhz is None:
            return 1.0
        if frequency_mhz <= 0:
            raise ConfigurationError("frequency must be positive")
        return min(frequency_mhz / self.max_frequency_mhz, 1.0)

    @property
    def is_big(self) -> bool:
        return self.core_type is CoreType.BIG


@dataclass(frozen=True)
class ClusterSpec:
    """A group of identical cores sharing an L2 and a cluster port."""

    cluster_id: int
    core_type: CoreType
    core_ids: Tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.core_ids:
            raise ConfigurationError("a cluster needs at least one core")
