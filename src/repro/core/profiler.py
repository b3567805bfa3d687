"""Dry-run profiling (paper §V-B).

Three measurements feed the cost model:

* :func:`profile_workload` — run the codec on a handful of warm-up
  batches (the paper instantiates with 10~100) and average the per-step
  costs; κ of each step is instructions / memory accesses from the
  codec's counters (the paper uses ``perf`` plus static analysis).
* :func:`profile_roofline` — feed synthetic kernels of varying κ to one
  core and record (κ, η) and (κ, ζ) samples for the piecewise-linear fit
  of Eq 5; samples carry a small measurement noise like a real profiling
  run.
* :func:`measure_communication` — set up a producer/consumer core pair
  per path and measure the unit cost and per-message overhead of Eq 7.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.compression.base import StepCost, StreamCompressor
from repro.compression.registry import get_codec
from repro.compression.stats import BatchStatistics, analyze_batch
from repro.datasets.base import Dataset
from repro.datasets.loaders import get_dataset
from repro.errors import ProfilingError
from repro.memo import lru_lookup
from repro.simcore.boards import BoardSpec
from repro.simcore.hardware import CoreSpec
from repro.simcore.interconnect import Path

__all__ = [
    "WorkloadProfile",
    "profile_workload",
    "profile_named",
    "profile_roofline",
    "measure_communication",
    "RooflineSamples",
    "CommunicationTable",
]

_DEFAULT_PROFILE_BATCHES = 10

#: bound of the :func:`profile_named` memo; a profile pickles to 1-2 KB
_NAMED_PROFILES_MAX = 1024
_NAMED_PROFILES: "OrderedDict[Tuple, WorkloadProfile]" = OrderedDict()


@dataclass(frozen=True)
class WorkloadProfile:
    """Averaged per-step costs of one Algorithm-Dataset procedure."""

    codec_name: str
    dataset_name: str
    batch_size_bytes: int
    stateful: bool
    step_ids: Tuple[str, ...]
    mean_step_costs: Dict[str, StepCost]
    per_batch_step_costs: Tuple[Dict[str, StepCost], ...]
    statistics: BatchStatistics
    compression_ratio: float
    #: the codec's step DAG (step id -> producer step ids), ``None`` for
    #: profiles captured before the DAG generalization — consumers fall
    #: back to the linear chain via :meth:`dependency_map`, which also
    #: keeps previously cached/pickled profiles loadable.
    step_dependencies: Optional[Dict[str, Tuple[str, ...]]] = None

    def dependency_map(self) -> Dict[str, Tuple[str, ...]]:
        """Step DAG with the chain fallback for legacy profiles."""
        declared = getattr(self, "step_dependencies", None)
        if declared:
            return dict(declared)
        return {
            step_id: (() if index == 0 else (self.step_ids[index - 1],))
            for index, step_id in enumerate(self.step_ids)
        }

    def step_kappa(self, step_id: str) -> float:
        return self.mean_step_costs[step_id].operational_intensity

    def fingerprint(self) -> str:
        """Stable content digest of the profile.

        Profiles are pickled into the persistent result cache and
        shipped to grid worker processes (:mod:`repro.bench.parallel`);
        the fingerprint lets both sides assert that a transported
        profile is the one that was measured. ``repr`` is deterministic
        here: every field is a plain scalar, tuple, or dict built in
        step order. Computed once per profile and never pickled, so a
        transported profile is re-digested on arrival.
        """
        fingerprint = self.__dict__.get("_fingerprint")
        if fingerprint is None:
            digest = hashlib.sha256(repr(self).encode("utf-8"))
            fingerprint = digest.hexdigest()[:16]
            object.__setattr__(self, "_fingerprint", fingerprint)
        return fingerprint

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_fingerprint", None)
        return state


def profile_workload(
    codec: StreamCompressor,
    dataset: Dataset,
    batch_size: int,
    batches: int = _DEFAULT_PROFILE_BATCHES,
    seed: int = 0,
    warmup_batches: int = 1,
) -> WorkloadProfile:
    """Compress sample batches and average per-step costs.

    The first ``warmup_batches`` batches prime stateful codecs (empty
    dictionaries make the very first batch unrepresentative) and are
    excluded from the averaged costs.
    """
    if batches < 1:
        raise ProfilingError("need at least one profiling batch")
    if warmup_batches < 0:
        raise ProfilingError("warmup_batches must be non-negative")
    codec.reset()
    per_batch: List[Dict[str, StepCost]] = []
    first_batch = None
    output_total = 0
    input_total = 0
    stream = dataset.stream(batch_size, batches + warmup_batches, seed=seed)
    for index, batch in enumerate(stream):
        result = codec.compress(batch)
        if index < warmup_batches:
            continue
        if first_batch is None:
            first_batch = batch
        per_batch.append(dict(result.step_costs))
        output_total += result.output_size
        input_total += result.input_size
    if input_total == 0:
        raise ProfilingError("profiling produced no data")

    step_ids = codec.step_ids()
    mean_costs: Dict[str, StepCost] = {}
    for step_id in step_ids:
        costs = [batch_costs[step_id] for batch_costs in per_batch]
        mean_costs[step_id] = StepCost(
            instructions=float(np.mean([c.instructions for c in costs])),
            memory_accesses=float(np.mean([c.memory_accesses for c in costs])),
            input_bytes=int(np.mean([c.input_bytes for c in costs])),
            output_bytes=int(np.mean([c.output_bytes for c in costs])),
        )
    return WorkloadProfile(
        codec_name=codec.name,
        dataset_name=dataset.name,
        batch_size_bytes=len(first_batch),
        stateful=codec.stateful,
        step_ids=step_ids,
        mean_step_costs=mean_costs,
        per_batch_step_costs=tuple(per_batch),
        statistics=analyze_batch(first_batch),
        compression_ratio=input_total / output_total if output_total else float("inf"),
        step_dependencies={
            step_id: tuple(producers)
            for step_id, producers in codec.step_dependencies().items()
        },
    )


def profile_named(
    codec: str,
    dataset: str,
    batch_size: int,
    batches: int = _DEFAULT_PROFILE_BATCHES,
    seed: int = 0,
    warmup_batches: int = 1,
    codec_options: Mapping = (),
    dataset_options: Mapping = (),
) -> WorkloadProfile:
    """:func:`profile_workload` of a registry-named workload, memoized
    process-wide.

    Options are a mapping or ``(name, value)`` pairs with hashable
    values. The key is every argument (options as sorted pairs), so the
    same arguments always reach the dry run. The memo keeps the
    :data:`_NAMED_PROFILES_MAX` most recently used profiles and hands
    out shared ones: no caller may mutate a profile.
    """
    key = (codec, tuple(sorted(dict(codec_options).items())),
           dataset, tuple(sorted(dict(dataset_options).items())),
           batch_size, batches, seed, warmup_batches)
    return lru_lookup(
        _NAMED_PROFILES, key, _NAMED_PROFILES_MAX,
        lambda: profile_workload(
            get_codec(codec, **dict(codec_options)),
            get_dataset(dataset, **dict(dataset_options)),
            batch_size, batches, seed, warmup_batches,
        ),
    )


@dataclass(frozen=True)
class RooflineSamples:
    """(κ, η, ζ) samples measured on one core."""

    core_id: int
    kappas: Tuple[float, ...]
    eta_values: Tuple[float, ...]
    zeta_values: Tuple[float, ...]


def profile_roofline(
    core: CoreSpec,
    kappas: Sequence[float] = None,
    noise: float = 0.004,
    seed: int = 0,
) -> RooflineSamples:
    """Sample a core's η/ζ curves with synthetic kernels of varying κ.

    This emulates the roofline-toolkit style microbenchmarks the paper
    profiles with (Lo et al.): each sample runs a kernel whose
    instruction/memory-access ratio is κ and measures throughput and
    energy. ``noise`` is the relative measurement error.
    """
    if kappas is None:
        # Dense at low κ where the little core's curves have kinks
        # (κ≈30 and κ≈70), coarser toward the roof.
        kappas = tuple(
            float(k)
            for k in (
                list(range(2, 80, 2))
                + list(range(80, 200, 6))
                + list(range(200, 520, 8))
            )
        )
    if not kappas:
        raise ProfilingError("need at least one κ sample")
    rng = np.random.default_rng(seed + core.core_id)
    eta_noise = rng.normal(1.0, noise, size=len(kappas))
    zeta_noise = rng.normal(1.0, noise, size=len(kappas))
    eta_values = tuple(
        core.eta.value(k) * float(n) for k, n in zip(kappas, eta_noise)
    )
    zeta_values = tuple(
        core.zeta.value(k) * float(n) for k, n in zip(kappas, zeta_noise)
    )
    return RooflineSamples(
        core_id=core.core_id,
        kappas=tuple(kappas),
        eta_values=eta_values,
        zeta_values=zeta_values,
    )


@dataclass(frozen=True)
class CommunicationTable:
    """Measured Eq 7 parameters per path class, plus the per-message
    transfer energy the dry run observes on the supply rail."""

    unit_cost_us_per_byte: Dict[Path, float]
    message_overhead_us: Dict[Path, float]
    message_energy_uj: Dict[Path, float] = None

    def unit_cost(self, path: Path) -> float:
        if path is Path.LOCAL:
            return 0.0
        return self.unit_cost_us_per_byte[path]

    def overhead(self, path: Path) -> float:
        if path is Path.LOCAL:
            return 0.0
        return self.message_overhead_us[path]

    def energy(self, path: Path) -> float:
        if path is Path.LOCAL or not self.message_energy_uj:
            return 0.0
        return self.message_energy_uj[path]


#: process-wide memo, same contract as the curve cache in
#: :mod:`repro.core.cost_model`: the table depends only on (board,
#: noise, seed), and nothing mutates it.
_COMMUNICATION_CACHE_MAX = 64
_COMMUNICATION_CACHE: "OrderedDict[Tuple, CommunicationTable]" = OrderedDict()


def measure_communication(
    board: BoardSpec, noise: float = 0.02, seed: int = 0
) -> CommunicationTable:
    """Dry-run producer/consumer measurement of each path's Eq 7 costs.

    The paper measures ``L_comm`` and ``ω`` for every core pair by
    pinning a producer thread on one core and a consumer on the other;
    with symmetric cores this reduces to one measurement per path class.
    """

    def measure() -> CommunicationTable:
        rng = np.random.default_rng(seed)
        unit: Dict[Path, float] = {}
        overhead: Dict[Path, float] = {}
        energy: Dict[Path, float] = {}
        for path in (Path.C0, Path.C1, Path.C2):
            cost = board.interconnect.costs[path]
            unit[path] = cost.unit_cost_us_per_byte * float(rng.normal(1.0, noise))
            overhead[path] = cost.message_overhead_us * float(rng.normal(1.0, noise))
            energy[path] = cost.message_energy_uj * float(rng.normal(1.0, noise))
        return CommunicationTable(
            unit_cost_us_per_byte=unit,
            message_overhead_us=overhead,
            message_energy_uj=energy,
        )

    key = (board.key(), noise, seed)
    return lru_lookup(_COMMUNICATION_CACHE, key, _COMMUNICATION_CACHE_MAX, measure)
