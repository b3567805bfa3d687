"""Asymmetric-multicore board simulator (the reproduction's substrate)."""

from repro.simcore.boards import BoardSpec, jetson_tx2_like, rk3399
from repro.simcore.dvfs import (
    ConservativeGovernor,
    Governor,
    OndemandGovernor,
    StaticGovernor,
    get_governor,
)
from repro.simcore.engine import Event, Process, Simulator, Store
from repro.simcore.hardware import ClusterSpec, CoreSpec, CoreType, PiecewiseRoofline
from repro.simcore.interconnect import InterconnectSpec, Path, PathCost, stream_probe
from repro.simcore.os_sched import eas_place
from repro.simcore.power import EnergyMeter

__all__ = [
    "BoardSpec",
    "ClusterSpec",
    "ConservativeGovernor",
    "CoreSpec",
    "CoreType",
    "EnergyMeter",
    "Event",
    "Governor",
    "InterconnectSpec",
    "OndemandGovernor",
    "Path",
    "PathCost",
    "PiecewiseRoofline",
    "Process",
    "Simulator",
    "StaticGovernor",
    "Store",
    "eas_place",
    "get_governor",
    "jetson_tx2_like",
    "rk3399",
    "stream_probe",
]
