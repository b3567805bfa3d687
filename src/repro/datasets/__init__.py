"""Workload datasets matching the paper's statistical profiles."""

from repro.datasets.base import Dataset
from repro.datasets.loaders import DATASET_NAMES, get_dataset
from repro.datasets.micro import DRIFT_KINDS, MicroDataset, drift_schedule
from repro.datasets.rovio import RovioDataset
from repro.datasets.sensor import SensorDataset
from repro.datasets.stock import StockDataset

__all__ = [
    "DATASET_NAMES",
    "DRIFT_KINDS",
    "Dataset",
    "drift_schedule",
    "MicroDataset",
    "RovioDataset",
    "SensorDataset",
    "StockDataset",
    "get_dataset",
]
