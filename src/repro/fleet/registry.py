"""The fleet's board catalogue.

Three board kinds: the paper's rk3399, the Jetson-TX2-like SoC from
PR 9, and a synthetic "edge" board defined here — an inverted-asymmetry
custom SoC (2 little + 4 big cores) that exercises placement decisions
neither stock board does. All kinds expose six cores with ids 0–5, so a
:class:`~repro.core.plan.SchedulingPlan` built on one board names valid
cores on every other — that is what lets cross-board failover reuse
``SchedulingPlan.remap_cores`` and warm-started replans unchanged.

A fleet is a tuple of :class:`BoardHandle` instances ("rk3399-0",
"jetson-1", ...); :func:`build_fleet` cycles the kinds so any fleet size
stays heterogeneous.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.simcore.boards import BoardSpec, jetson_tx2_like, rk3399
from repro.simcore.hardware import ClusterSpec, CoreSpec, CoreType, PiecewiseRoofline
from repro.simcore.interconnect import InterconnectSpec, Path, PathCost

__all__ = [
    "BOARD_KINDS",
    "DEFAULT_KIND_CYCLE",
    "BoardHandle",
    "build_fleet",
    "edge_board",
]


# --- synthetic "edge" board --------------------------------------------------
#
# A custom edge-gateway SoC with the cluster ratio flipped relative to
# the rk3399: two efficiency cores and four performance cores. The
# curves are mild variations of the rk3399 calibration (same piecewise
# shape, scaled roofs) — the point is topological diversity, not a new
# calibration story.

_EDGE_LITTLE_FREQS = (408.0, 600.0, 816.0, 1008.0, 1200.0)
_EDGE_BIG_FREQS = (600.0, 816.0, 1008.0, 1200.0, 1416.0, 1608.0)

_EDGE_LITTLE_ETA = PiecewiseRoofline(
    breakpoints=(30.0, 70.0, 330.0),
    slopes=(0.17, -0.015, 0.015),
    intercepts=(0.3, 6.2, 3.9),
    roof=8.4,
)
_EDGE_BIG_ETA = PiecewiseRoofline(
    breakpoints=(30.0, 100.0, 340.0),
    slopes=(0.1, 0.07, 0.046),
    intercepts=(0.5, 1.55, 3.9),
    roof=17.8,
)
_EDGE_LITTLE_ZETA = PiecewiseRoofline(
    breakpoints=(30.0, 70.0, 330.0),
    slopes=(36.0, -5.5, 1.45),
    intercepts=(10.0, 1280.0, 790.0),
    roof=1245.0,
)
_EDGE_BIG_ZETA = PiecewiseRoofline(
    breakpoints=(50.0, 380.0),
    slopes=(3.1, 2.9),
    intercepts=(28.0, 37.0),
    roof=1080.0,
)

_EDGE_INTERCONNECT = InterconnectSpec(
    costs={
        Path.C0: PathCost(
            unit_cost_us_per_byte=1.5,
            message_overhead_us=28.0,
            raw_bandwidth_gbps=2.9,
            raw_latency_ns=66.0,
            message_energy_uj=11.0,
        ),
        Path.C1: PathCost(
            unit_cost_us_per_byte=2.0,
            message_overhead_us=52.0,
            raw_bandwidth_gbps=0.9,
            raw_latency_ns=128.0,
            message_energy_uj=22.0,
        ),
        Path.C2: PathCost(
            unit_cost_us_per_byte=5.4,
            message_overhead_us=140.0,
            raw_bandwidth_gbps=0.5,
            raw_latency_ns=360.0,
            message_energy_uj=48.0,
        ),
    }
)


def edge_board() -> BoardSpec:
    """Synthetic edge-gateway SoC: 2 little (ids 0-1) + 4 big (2-5)."""
    cores = []
    for core_id in (0, 1):
        cores.append(
            CoreSpec(
                core_id=core_id,
                core_type=CoreType.LITTLE,
                cluster_id=0,
                model="Edge-E1",
                max_frequency_mhz=1200.0,
                frequency_levels_mhz=_EDGE_LITTLE_FREQS,
                eta=_EDGE_LITTLE_ETA,
                zeta=_EDGE_LITTLE_ZETA,
                static_power_w=0.00005,
                busy_floor_power_w=0.0014,
            )
        )
    for core_id in (2, 3, 4, 5):
        cores.append(
            CoreSpec(
                core_id=core_id,
                core_type=CoreType.BIG,
                cluster_id=1,
                model="Edge-P4",
                max_frequency_mhz=1608.0,
                frequency_levels_mhz=_EDGE_BIG_FREQS,
                eta=_EDGE_BIG_ETA,
                zeta=_EDGE_BIG_ZETA,
                static_power_w=0.00018,
                busy_floor_power_w=0.0045,
            )
        )
    clusters = (
        ClusterSpec(cluster_id=0, core_type=CoreType.LITTLE, core_ids=(0, 1)),
        ClusterSpec(cluster_id=1, core_type=CoreType.BIG, core_ids=(2, 3, 4, 5)),
    )
    return BoardSpec(
        name="edge (synthetic 2xE1 + 4xP4)",
        cores=tuple(cores),
        clusters=clusters,
        interconnect=_EDGE_INTERCONNECT,
        uncore_power_w=0.00025,
        context_switch_instructions=330.0,
        replication_latency_overhead=0.07,
        replication_energy_overhead=0.27,
    )


#: board kind name -> BoardSpec factory
BOARD_KINDS = {
    "rk3399": rk3399,
    "jetson": jetson_tx2_like,
    "edge": edge_board,
}

#: the order :func:`build_fleet` cycles kinds in
DEFAULT_KIND_CYCLE = ("rk3399", "jetson", "edge")


@dataclass(frozen=True)
class BoardHandle:
    """One physical board instance in the fleet."""

    #: position in the fleet's board list — the id faults and health
    #: records use
    board_index: int
    #: instance name, e.g. "rk3399-0"
    name: str
    #: kind key into :data:`BOARD_KINDS`
    kind: str
    spec: BoardSpec


def build_fleet(size: int) -> tuple:
    """``size`` board handles, cycling :data:`DEFAULT_KIND_CYCLE` for
    heterogeneity.

    Instance names carry the fleet index ("jetson-1"), so two boards of
    the same kind stay distinguishable in health reports and logs.
    """
    if size < 1:
        raise ConfigurationError("a fleet needs at least one board")
    handles = []
    for index in range(size):
        kind = DEFAULT_KIND_CYCLE[index % len(DEFAULT_KIND_CYCLE)]
        handles.append(
            BoardHandle(
                board_index=index,
                name=f"{kind}-{index}",
                kind=kind,
                spec=BOARD_KINDS[kind](),
            )
        )
    return tuple(handles)
