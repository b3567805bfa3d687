"""Board definitions — most importantly the rk3399 of the paper.

A :class:`BoardSpec` bundles core specs, cluster topology, the
interconnect cost table and board-level constants (uncore power,
context-switch cost, replication overheads). :func:`rk3399` builds the
paper's evaluation platform: a Radxa RockPi 4a with four in-order A53
little cores (cluster 0) and two out-of-order A72 big cores (cluster 1).

Calibration: the roofline parameters are chosen so the paper's published
anchors land close to their reported values at maximum frequency —
Table IV's per-task latencies/energies for tcomp32-Rovio (t0: κ≈320,
~15 µs/B big vs ~32 µs/B little; t1: κ≈102, energy 3× cheaper on
little), and Table V's optimal-plan rows. See DESIGN.md for the full
derivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, Mapping, Tuple

from repro.errors import ConfigurationError
from repro.simcore.hardware import ClusterSpec, CoreSpec, CoreType, PiecewiseRoofline
from repro.simcore.interconnect import InterconnectSpec, Path, PathCost

__all__ = ["BoardSpec", "rk3399", "jetson_tx2_like"]


@dataclass(frozen=True)
class BoardSpec:
    """Everything static about a simulated board."""

    name: str
    cores: Tuple[CoreSpec, ...]
    clusters: Tuple[ClusterSpec, ...]
    interconnect: InterconnectSpec
    #: constant power of uncore + DRAM, W
    uncore_power_w: float
    #: cost of one OS context switch, in (virtual) instructions
    context_switch_instructions: float
    #: per-extra-replica pipeline-latency overhead (cache thrashing)
    replication_latency_overhead: float
    #: per-extra-replica energy overhead
    replication_energy_overhead: float
    #: lookup tables built in __post_init__
    core_by_id: Mapping[int, CoreSpec] = field(default=None, repr=False)
    cluster_by_id: Mapping[int, ClusterSpec] = field(default=None, repr=False)
    core_cluster: Mapping[int, int] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.cores:
            raise ConfigurationError("a board needs at least one core")
        core_by_id = {core.core_id: core for core in self.cores}
        if len(core_by_id) != len(self.cores):
            raise ConfigurationError("duplicate core ids on board")
        cluster_by_id = {c.cluster_id: c for c in self.clusters}
        core_cluster: Dict[int, int] = {}
        for cluster in self.clusters:
            for core_id in cluster.core_ids:
                if core_id not in core_by_id:
                    raise ConfigurationError(
                        f"cluster {cluster.cluster_id} references unknown "
                        f"core {core_id}"
                    )
                core_cluster[core_id] = cluster.cluster_id
        if set(core_cluster) != set(core_by_id):
            raise ConfigurationError("every core must belong to a cluster")
        object.__setattr__(self, "core_by_id", core_by_id)
        object.__setattr__(self, "cluster_by_id", cluster_by_id)
        object.__setattr__(self, "core_cluster", core_cluster)

    # -- convenience accessors -------------------------------------------

    @property
    def core_ids(self) -> Tuple[int, ...]:
        return tuple(core.core_id for core in self.cores)

    def cores_of_type(self, core_type: CoreType) -> Tuple[CoreSpec, ...]:
        return tuple(c for c in self.cores if c.core_type is core_type)

    @property
    def big_core_ids(self) -> Tuple[int, ...]:
        return tuple(c.core_id for c in self.cores_of_type(CoreType.BIG))

    @property
    def little_core_ids(self) -> Tuple[int, ...]:
        return tuple(c.core_id for c in self.cores_of_type(CoreType.LITTLE))

    def fallback_core(self, core_id: int, dead: Collection[int]) -> int:
        """Emergency route for the dead core ``core_id``: the lowest-id
        survivor of its own cluster type, else the lowest-id survivor
        anywhere. ``dead`` holds the other dead cores; raises when none
        survives. The executor routes failed work with this rule and the
        controller patches its incumbent with it, so the two agree."""
        victim = self.core_by_id[core_id]
        survivors = [
            c for c in self.cores
            if c.core_id != core_id and c.core_id not in dead
        ]
        if not survivors:
            raise ConfigurationError(
                "fault plan killed every core on the board"
            )
        same_cluster = [
            c.core_id for c in survivors if c.is_big == victim.is_big
        ]
        return min(same_cluster or [c.core_id for c in survivors])

    def path_between(self, from_core: int, to_core: int) -> Path:
        return self.interconnect.classify(
            from_core, to_core, self.cluster_by_id, self.core_cluster
        )

    def with_interconnect(self, interconnect: InterconnectSpec) -> "BoardSpec":
        """Copy of this board with a different interconnect cost table."""
        return BoardSpec(
            name=self.name,
            cores=self.cores,
            clusters=self.clusters,
            interconnect=interconnect,
            uncore_power_w=self.uncore_power_w,
            context_switch_instructions=self.context_switch_instructions,
            replication_latency_overhead=self.replication_latency_overhead,
            replication_energy_overhead=self.replication_energy_overhead,
        )


# --- rk3399 calibration -----------------------------------------------------

_LITTLE_FREQS = (408.0, 600.0, 816.0, 1008.0, 1200.0, 1416.0)
_BIG_FREQS = (408.0, 600.0, 816.0, 1008.0, 1200.0, 1416.0, 1608.0, 1800.0)

# η in instructions/µs; four regions: below κ_L1, κ_L1..κ_L2 (the little
# core's in-order L1-I stall dip), κ_L2..κ_roof, then the roof (= C_j).
_BIG_ETA = PiecewiseRoofline(
    breakpoints=(30.0, 100.0, 340.0),
    slopes=(0.11, 0.073, 0.049),
    intercepts=(0.5, 1.61, 4.0),
    roof=20.66,
)
_LITTLE_ETA = PiecewiseRoofline(
    breakpoints=(30.0, 70.0, 330.0),
    slopes=(0.18, -0.02, 0.0158),
    intercepts=(0.3, 6.3, 3.794),
    roof=9.0,
)
# ζ in instructions/µJ. Big cores only approach the little cores'
# efficiency at very high κ; little cores roof early, and their κ 30..70
# dip wastes energy on stalls.
_BIG_ZETA = PiecewiseRoofline(
    breakpoints=(50.0, 380.0),
    slopes=(3.2, 3.02),
    intercepts=(30.0, 39.0),
    roof=1186.6,
)
_LITTLE_ZETA = PiecewiseRoofline(
    breakpoints=(30.0, 70.0, 330.0),
    slopes=(38.0, -6.0, 1.5),
    intercepts=(10.0, 1330.0, 805.0),
    roof=1300.0,
)

_BIG_STATIC_POWER_W = 0.0002
_LITTLE_STATIC_POWER_W = 0.00005
_BIG_BUSY_FLOOR_W = 0.005
_LITTLE_BUSY_FLOOR_W = 0.0015

# Task-level message-passing unit costs (µs per transferred byte) and
# per-message overheads; c0:c1:c2 keeps the raw table's ordering with the
# little→big direction priced highest (extra hand-shaking cycles).
_INTERCONNECT = InterconnectSpec(
    costs={
        Path.C0: PathCost(
            unit_cost_us_per_byte=1.6,
            message_overhead_us=30.0,
            raw_bandwidth_gbps=2.7,
            raw_latency_ns=70.4,
            message_energy_uj=12.0,
        ),
        Path.C1: PathCost(
            unit_cost_us_per_byte=2.2,
            message_overhead_us=60.0,
            raw_bandwidth_gbps=0.7,
            raw_latency_ns=142.4,
            message_energy_uj=25.0,
        ),
        Path.C2: PathCost(
            unit_cost_us_per_byte=7.0,
            message_overhead_us=180.0,
            raw_bandwidth_gbps=0.4,
            raw_latency_ns=420.8,
            message_energy_uj=60.0,
        ),
    }
)


def rk3399() -> BoardSpec:
    """The paper's evaluation board: rk3399 on a Radxa RockPi 4a."""
    cores = []
    for core_id in range(4):
        cores.append(
            CoreSpec(
                core_id=core_id,
                core_type=CoreType.LITTLE,
                cluster_id=0,
                model="Cortex-A53",
                max_frequency_mhz=1416.0,
                frequency_levels_mhz=_LITTLE_FREQS,
                eta=_LITTLE_ETA,
                zeta=_LITTLE_ZETA,
                static_power_w=_LITTLE_STATIC_POWER_W,
                busy_floor_power_w=_LITTLE_BUSY_FLOOR_W,
            )
        )
    for core_id in (4, 5):
        cores.append(
            CoreSpec(
                core_id=core_id,
                core_type=CoreType.BIG,
                cluster_id=1,
                model="Cortex-A72",
                max_frequency_mhz=1800.0,
                frequency_levels_mhz=_BIG_FREQS,
                eta=_BIG_ETA,
                zeta=_BIG_ZETA,
                static_power_w=_BIG_STATIC_POWER_W,
                busy_floor_power_w=_BIG_BUSY_FLOOR_W,
            )
        )
    clusters = (
        ClusterSpec(cluster_id=0, core_type=CoreType.LITTLE, core_ids=(0, 1, 2, 3)),
        ClusterSpec(cluster_id=1, core_type=CoreType.BIG, core_ids=(4, 5)),
    )
    return BoardSpec(
        name="rk3399 (Radxa RockPi 4a)",
        cores=tuple(cores),
        clusters=clusters,
        interconnect=_INTERCONNECT,
        uncore_power_w=0.0002,
        context_switch_instructions=330.0,
        replication_latency_overhead=0.07,
        replication_energy_overhead=0.27,
    )


# --- Jetson-TX2-like board (paper future work) -------------------------------
#
# The paper's conclusion plans to exploit CStream "on other hardware
# architectures such as Intel Agilex and Nvidia Jetson". This board
# models a Jetson-TX2-class SoC: four Cortex-A57 cores and two Denver2
# cores. Both core types are out-of-order, so neither η curve has the
# A53's in-order stall dip — the asymmetry is milder (Denver is ~1.6x
# faster, A57 ~1.8x more efficient), which shrinks but does not remove
# the gains of asymmetry-aware scheduling.

_A57_FREQS = (499.0, 806.0, 1113.0, 1420.0, 1728.0, 2035.0)
_DENVER_FREQS = (499.0, 806.0, 1113.0, 1420.0, 1728.0, 2035.0)

_A57_ETA = PiecewiseRoofline(
    breakpoints=(40.0, 120.0, 360.0),
    slopes=(0.16, 0.075, 0.035),
    intercepts=(0.8, 4.2, 9.0),
    roof=21.6,
)
_DENVER_ETA = PiecewiseRoofline(
    breakpoints=(40.0, 120.0, 380.0),
    slopes=(0.18, 0.11, 0.065),
    intercepts=(1.0, 3.8, 9.2),
    roof=33.9,
)
_A57_ZETA = PiecewiseRoofline(
    breakpoints=(60.0, 360.0),
    slopes=(14.0, 2.2),
    intercepts=(60.0, 768.0),
    roof=1560.0,
)
_DENVER_ZETA = PiecewiseRoofline(
    breakpoints=(60.0, 380.0),
    slopes=(6.0, 1.9),
    intercepts=(40.0, 286.0),
    roof=1008.0,
)

_JETSON_INTERCONNECT = InterconnectSpec(
    costs={
        # A coherent fabric: inter-cluster traffic is cheaper than the
        # rk3399's CCI500 and the direction asymmetry is milder.
        Path.C0: PathCost(
            unit_cost_us_per_byte=1.3,
            message_overhead_us=24.0,
            raw_bandwidth_gbps=3.4,
            raw_latency_ns=58.0,
            message_energy_uj=10.0,
        ),
        Path.C1: PathCost(
            unit_cost_us_per_byte=1.8,
            message_overhead_us=45.0,
            raw_bandwidth_gbps=1.2,
            raw_latency_ns=110.0,
            message_energy_uj=18.0,
        ),
        Path.C2: PathCost(
            unit_cost_us_per_byte=3.6,
            message_overhead_us=95.0,
            raw_bandwidth_gbps=0.8,
            raw_latency_ns=240.0,
            message_energy_uj=32.0,
        ),
    }
)


def jetson_tx2_like() -> BoardSpec:
    """A Jetson-TX2-class board: 4x Cortex-A57 + 2x Denver2."""
    cores = []
    for core_id in range(4):
        cores.append(
            CoreSpec(
                core_id=core_id,
                core_type=CoreType.LITTLE,
                cluster_id=0,
                model="Cortex-A57",
                max_frequency_mhz=2035.0,
                frequency_levels_mhz=_A57_FREQS,
                eta=_A57_ETA,
                zeta=_A57_ZETA,
                static_power_w=0.0001,
                busy_floor_power_w=0.003,
            )
        )
    for core_id in (4, 5):
        cores.append(
            CoreSpec(
                core_id=core_id,
                core_type=CoreType.BIG,
                cluster_id=1,
                model="Denver2",
                max_frequency_mhz=2035.0,
                frequency_levels_mhz=_DENVER_FREQS,
                eta=_DENVER_ETA,
                zeta=_DENVER_ZETA,
                static_power_w=0.0003,
                busy_floor_power_w=0.008,
            )
        )
    clusters = (
        ClusterSpec(cluster_id=0, core_type=CoreType.LITTLE, core_ids=(0, 1, 2, 3)),
        ClusterSpec(cluster_id=1, core_type=CoreType.BIG, core_ids=(4, 5)),
    )
    return BoardSpec(
        name="Jetson-TX2-like (4x A57 + 2x Denver2)",
        cores=tuple(cores),
        clusters=clusters,
        interconnect=_JETSON_INTERCONNECT,
        uncore_power_w=0.0003,
        context_switch_instructions=330.0,
        replication_latency_overhead=0.07,
        replication_energy_overhead=0.27,
    )
