"""The CStream facade: profile → decompose → schedule → execute.

:class:`CStream` wires the full Fig 4 workflow together for one
workload procedure (Algorithm-Dataset pair, Definition 1):

>>> from repro import CStream
>>> from repro.simcore.boards import rk3399
>>> framework = CStream(
...     codec="tcomp32", dataset="rovio",
...     batch_size=65536, latency_constraint_us_per_byte=26.0,
... )
>>> schedule = framework.plan()
>>> result = framework.run(repetitions=10)

The facade is deliberately thin — each phase is its own module and can
be driven independently (see the examples/ directory).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.compression import StreamCompressor, get_codec
from repro.core.baselines import (
    CStreamMechanism,
    Mechanism,
    WorkloadContext,
    get_mechanism,
)
from repro.core.profiler import WorkloadProfile, profile_workload
from repro.core.scheduler import ScheduleResult, Scheduler
from repro.datasets import Dataset, get_dataset
from repro.errors import ConfigurationError
from repro.runtime.executor import ExecutionConfig, PipelineExecutor
from repro.runtime.metrics import RunResult
from repro.simcore.boards import BoardSpec, rk3399

__all__ = ["CStream"]


class CStream:
    """Parallelize one stream-compression procedure on one board."""

    def __init__(
        self,
        codec: Union[str, StreamCompressor],
        dataset: Union[str, Dataset],
        batch_size: int,
        latency_constraint_us_per_byte: float,
        board: Optional[BoardSpec] = None,
        profile_batches: int = 10,
        seed: int = 0,
    ) -> None:
        if batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        self.codec = get_codec(codec) if isinstance(codec, str) else codec
        self.dataset = (
            get_dataset(dataset) if isinstance(dataset, str) else dataset
        )
        self.batch_size = batch_size
        self.latency_constraint = latency_constraint_us_per_byte
        self.board = board if board is not None else rk3399()
        self.profile_batches = profile_batches
        self.seed = seed
        self._profile: Optional[WorkloadProfile] = None

    # -- workflow phases -----------------------------------------------------

    def profile(self) -> WorkloadProfile:
        """Dry-run profiling of the workload (cached)."""
        if self._profile is None:
            self._profile = profile_workload(
                self.codec,
                self.dataset,
                self.batch_size,
                batches=self.profile_batches,
                seed=self.seed,
            )
        return self._profile

    def context(self) -> WorkloadContext:
        """Board calibration + fine-grained decomposition (memoized)."""
        return WorkloadContext.build(
            self.board, self.profile(), self.latency_constraint, seed=self.seed
        )

    def plan(self, best_effort: bool = False) -> ScheduleResult:
        """Asymmetry-aware scheduling of the decomposed tasks; raises
        :class:`~repro.errors.InfeasiblePlanError` when no plan meets the
        constraint, unless ``best_effort`` (then memoized on the context)."""
        context = self.context()
        if best_effort:
            return context.plan(context.fine_graph)
        return Scheduler(context.cost_model(context.fine_graph)).schedule()

    def run(
        self,
        repetitions: int = 100,
        batches_per_repetition: int = 6,
        mechanism: Union[str, Mechanism, None] = None,
        **config_options,
    ) -> RunResult:
        """Execute the planned pipeline on the simulated board.

        ``mechanism`` defaults to CStream itself; pass a baseline name
        ("OS", "CS", "RR", "BO", "LO") to measure a competitor on the
        same workload.
        """
        context = self.context()
        if mechanism is None:
            mechanism = CStreamMechanism()
        elif isinstance(mechanism, str):
            mechanism = get_mechanism(mechanism)
        outcome = mechanism.prepare(context)
        config = ExecutionConfig(
            latency_constraint_us_per_byte=self.latency_constraint,
            repetitions=repetitions,
            batches_per_repetition=batches_per_repetition,
            seed=self.seed,
            **config_options,
        )
        executor = PipelineExecutor(self.board, config)
        profile = self.profile()
        per_batch = list(profile.per_batch_step_costs)
        # Pad/trim the profiled batches to the requested window length.
        while len(per_batch) < batches_per_repetition:
            per_batch.extend(profile.per_batch_step_costs)
        per_batch = per_batch[:batches_per_repetition]
        return executor.run(
            outcome.plan,
            per_batch,
            batch_bytes=profile.batch_size_bytes,
            dynamics=outcome.dynamics,
        )

    # -- direct codec access ---------------------------------------------------

    def compress(self, data: bytes) -> bytes:
        """Compress a batch with the configured codec (no simulation)."""
        return self.codec.compress(data).payload

    def decompress(self, payload: bytes) -> bytes:
        """Invert :meth:`compress`."""
        return self.codec.decompress(payload)
