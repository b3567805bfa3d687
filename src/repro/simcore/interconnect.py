"""Cross-core communication model (paper Table II and Eq 7).

Three path classes connect tasks on an asymmetric multicore:

* ``c0`` — intra-cluster, through the shared L2;
* ``c1`` — inter-cluster big→little, through the CCI port;
* ``c2`` — inter-cluster little→big; *more* expensive than c1 because of
  the extra synchronization and hand-shaking cycles the paper describes —
  the direction asymmetry CStream's scheduler exploits.

Two cost surfaces live here:

* **raw link numbers** (bandwidth GB/s, per-access latency ns) as a
  STREAM-style probe would measure them — regenerating Table II;
* **task-level unit costs** (µs per transferred byte plus a per-message
  overhead ω) — the cost the executor charges when one pipeline task
  fetches a batch from its upstream, i.e. the ``L^comm`` and ``ω`` of
  Eq 7. These are calibrated at the paper's µs/byte operating scale while
  preserving the raw paths' latency ordering (c0 < c1 < c2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.simcore.hardware import ClusterSpec, CoreType

__all__ = ["Path", "PathCost", "InterconnectSpec", "stream_probe"]

CACHE_LINE_BYTES = 64


class Path(enum.Enum):
    """Communication path classes between two cores."""

    LOCAL = "local"          # same core: no transfer
    C0 = "c0"                # intra-cluster
    C1 = "c1"                # inter-cluster, big -> little
    C2 = "c2"                # inter-cluster, little -> big


@dataclass(frozen=True)
class PathCost:
    """Costs of one path class.

    ``unit_cost_us_per_byte`` is the task-level message-passing cost per
    transferred byte; ``message_overhead_us`` is the per-transfer ω of
    Eq 7. ``raw_bandwidth_gbps``/``raw_latency_ns`` are the link-level
    numbers a STREAM probe reports (Table II).
    """

    unit_cost_us_per_byte: float
    message_overhead_us: float
    raw_bandwidth_gbps: float
    raw_latency_ns: float
    #: energy of one message's queue round-trip (interconnect + DRAM)
    message_energy_uj: float = 0.0

    def __post_init__(self) -> None:
        if min(
            self.unit_cost_us_per_byte,
            self.message_overhead_us,
            self.raw_bandwidth_gbps,
            self.raw_latency_ns,
            self.message_energy_uj,
        ) < 0:
            raise ConfigurationError("path costs must be non-negative")


@dataclass(frozen=True)
class InterconnectSpec:
    """The board's communication cost table."""

    costs: Mapping[Path, PathCost]

    def __post_init__(self) -> None:
        required = {Path.C0, Path.C1, Path.C2}
        missing = required - set(self.costs)
        if missing:
            raise ConfigurationError(f"interconnect spec missing paths {missing}")

    def classify(
        self,
        from_core: int,
        to_core: int,
        clusters: Mapping[int, ClusterSpec],
        core_cluster: Mapping[int, int],
    ) -> Path:
        """Which path a transfer from ``from_core`` to ``to_core`` takes."""
        if from_core == to_core:
            return Path.LOCAL
        from_cluster = core_cluster[from_core]
        to_cluster = core_cluster[to_core]
        if from_cluster == to_cluster:
            return Path.C0
        if clusters[from_cluster].core_type is CoreType.BIG:
            return Path.C1
        return Path.C2

    def transfer_latency_us(self, path: Path, transfer_bytes: float) -> float:
        """Latency of moving ``transfer_bytes`` over ``path`` (Eq 7)."""
        if path is Path.LOCAL:
            return 0.0
        cost = self.costs[path]
        return (
            transfer_bytes * cost.unit_cost_us_per_byte
            + cost.message_overhead_us
        )

    def message_energy(self, path: Path) -> float:
        """Per-message transfer energy in µJ (0 for LOCAL)."""
        if path is Path.LOCAL:
            return 0.0
        return self.costs[path].message_energy_uj

    def degraded(self, path: Path, factor: float) -> "InterconnectSpec":
        """A copy with one path class's bandwidth degraded by ``factor``.

        Per-byte unit cost, per-message overhead ω, raw latency and
        message energy scale up by ``factor``; raw bandwidth scales down
        — the cost surface a contended or retraining link presents.
        Used by the fault subsystem's
        :class:`~repro.faults.model.InterconnectDegradation` event.
        """
        if path is Path.LOCAL:
            raise ConfigurationError("cannot degrade the LOCAL pseudo-path")
        if factor < 1.0:
            raise ConfigurationError(
                "degradation factor must be >= 1 (a speed-up is not a fault)"
            )
        base = self.costs[path]
        costs: Dict[Path, PathCost] = dict(self.costs)
        costs[path] = PathCost(
            unit_cost_us_per_byte=base.unit_cost_us_per_byte * factor,
            message_overhead_us=base.message_overhead_us * factor,
            raw_bandwidth_gbps=base.raw_bandwidth_gbps / factor,
            raw_latency_ns=base.raw_latency_ns * factor,
            message_energy_uj=base.message_energy_uj * factor,
        )
        return InterconnectSpec(costs=costs)


def stream_probe(
    spec: InterconnectSpec,
    path: Path,
    probe_bytes: int = 1 << 20,
    seed: int = 0,
) -> Dict[str, float]:
    """STREAM-benchmark-style measurement of one path's raw numbers.

    Emulates pinning a producer thread on one side and a consumer on the
    other, then timing cache-line sized transfers. Measurement noise is a
    small seeded perturbation, like a real benchmark run.
    """
    if path is Path.LOCAL:
        raise ConfigurationError("cannot probe the LOCAL pseudo-path")
    if probe_bytes <= 0:
        raise ConfigurationError("probe_bytes must be positive")
    cost = spec.costs[path]
    rng = np.random.default_rng(seed)
    noise = rng.normal(1.0, 0.01, size=2)
    lines = probe_bytes / CACHE_LINE_BYTES
    total_ns = lines * cost.raw_latency_ns
    measured_bandwidth = (
        probe_bytes / (probe_bytes / (cost.raw_bandwidth_gbps * 1e9)) / 1e9
    )
    return {
        "bandwidth_gbps": measured_bandwidth * float(noise[0]),
        "latency_ns": cost.raw_latency_ns * float(noise[1]),
        "probe_bytes": float(probe_bytes),
        "total_ns": total_ns,
    }
