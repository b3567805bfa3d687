"""The six parallelization mechanisms compared in the paper (§VI-A),
plus the §VII-D break-down ablations.

Each mechanism turns a profiled workload into (task graph, scheduling
plan, runtime dynamics). The plan may be a fixed
:class:`~repro.core.plan.SchedulingPlan` or a per-repetition factory for
randomized mechanisms (BO, LO, OS, and the random-placement ablations).

* **CStream** — fine-grained decomposition + asymmetry-aware scheduling.
* **OS** — whole-procedure workers placed by the simulated EAS kernel
  scheduler, with migration/context-switch dynamics.
* **CS** — coarse-grained: the whole procedure as one task, scheduled by
  CStream's asymmetry-aware scheduler (prior-work style).
* **RR** — fine-grained tasks, round-robin over cores.
* **BO** / **LO** — fine-grained tasks randomly on big / little cores.

Ablations for Fig 17: ``simple`` (replicated whole procedure, random
symmetric placement), ``+decom.`` (fine tasks, random placement),
``+asy-comp.`` (model-guided but communication-blind), ``+asy-comm.``
(full CStream).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from repro.core.cost_model import CostModel, calibrate_curves
from repro.core.decomposition import decompose
from repro.core.plan import SchedulingPlan
from repro.core.profiler import (
    CommunicationTable,
    WorkloadProfile,
    measure_communication,
)
from repro.core.scheduler import Scheduler
from repro.core.task import TaskGraph
from repro.errors import ConfigurationError
from repro.runtime.executor import MechanismDynamics
from repro.simcore.boards import BoardSpec
from repro.simcore.os_sched import (
    OS_CONTEXT_SWITCHES_PER_KB,
    OS_MIGRATION_RATE,
    eas_place,
)

__all__ = [
    "WorkloadContext",
    "MechanismOutcome",
    "Mechanism",
    "CStreamMechanism",
    "OSMechanism",
    "CoarseGrainedMechanism",
    "RoundRobinMechanism",
    "BigOnlyMechanism",
    "LittleOnlyMechanism",
    "SimpleAblation",
    "DecompositionAblation",
    "AsymmetricComputationAblation",
    "MECHANISM_NAMES",
    "get_mechanism",
]

PlanOrProvider = Union[
    SchedulingPlan, Callable[[int, np.random.Generator], SchedulingPlan]
]


@dataclass(frozen=True)
class WorkloadContext:
    """Shared per-workload inputs every mechanism consumes."""

    board: BoardSpec
    profile: WorkloadProfile
    latency_constraint_us_per_byte: float
    curves: object
    communication: CommunicationTable
    fine_graph: TaskGraph
    coarse_graph: TaskGraph
    seed: int = 0
    #: static frequency map for planning (None = maximum frequencies)
    frequency_map: Optional[dict] = None

    @classmethod
    def build(
        cls,
        board: BoardSpec,
        profile: WorkloadProfile,
        latency_constraint_us_per_byte: float,
        seed: int = 0,
        frequency_map: Optional[dict] = None,
    ) -> "WorkloadContext":
        """Profile the board and decompose the workload once."""
        curves = calibrate_curves(board, seed=seed)
        communication = measure_communication(board, seed=seed)
        fine_graph = decompose(profile, board, curves.eta, communication)
        coarse_graph = TaskGraph.coarse(profile.codec_name, profile.step_ids)
        return cls(
            board=board,
            profile=profile,
            latency_constraint_us_per_byte=latency_constraint_us_per_byte,
            curves=curves,
            communication=communication,
            fine_graph=fine_graph,
            coarse_graph=coarse_graph,
            seed=seed,
            frequency_map=frequency_map,
        )

    def cost_model(
        self, graph: TaskGraph, **options
    ) -> CostModel:
        options.setdefault("frequency_map", self.frequency_map)
        return CostModel(
            board=self.board,
            graph=graph,
            profile=self.profile,
            curves=self.curves,
            communication=self.communication,
            latency_constraint_us_per_byte=self.latency_constraint_us_per_byte,
            **options,
        )


@dataclass(frozen=True)
class MechanismOutcome:
    """What a mechanism decided for one workload."""

    mechanism: str
    graph: TaskGraph
    plan: PlanOrProvider
    dynamics: MechanismDynamics = MechanismDynamics()
    scheduled_feasible: bool = True
    estimate: Optional[object] = None  # PlanEstimate when model-guided
    description: str = ""
    #: SearchStats of the plan search (None for search-free mechanisms)
    search_stats: Optional[object] = None


class Mechanism(abc.ABC):
    """A strategy for parallelizing a stream-compression procedure."""

    name: str = ""

    @abc.abstractmethod
    def prepare(self, context: WorkloadContext) -> MechanismOutcome:
        """Decide graph, plan and runtime dynamics for a workload."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Mechanism {self.name}>"


def _random_plan_provider(
    graph: TaskGraph, core_pool: Tuple[int, ...]
) -> Callable[[int, np.random.Generator], SchedulingPlan]:
    """Each repetition draws one random core per stage from the pool.

    ``rng.integers(0, n)`` is the draw ``rng.choice(core_pool)`` makes,
    without converting the pool to an array on every call.
    """
    pool_size = len(core_pool)

    def provider(repetition: int, rng: np.random.Generator) -> SchedulingPlan:
        assignments = tuple(
            (core_pool[int(rng.integers(0, pool_size))],)
            for _ in graph.tasks
        )
        return SchedulingPlan(graph=graph, assignments=assignments)

    return provider


class CStreamMechanism(Mechanism):
    """Fine-grained decomposition + fully asymmetry-aware scheduling.

    Decomposition is a means, not an end: when shipping intermediate
    data between stages costs more than the task-core affinity buys
    (fusion's global analogue), the fused single-task pipeline is the
    better decomposition — so CStream schedules both granularities and
    keeps the cheaper feasible plan.
    """

    name = "CStream"

    def prepare(self, context: WorkloadContext) -> MechanismOutcome:
        candidates = []
        for graph in (context.fine_graph, context.coarse_graph):
            model = context.cost_model(graph)
            result = Scheduler(model).schedule(best_effort=True)
            candidates.append((graph, result))
        feasible = [c for c in candidates if c[1].feasible]
        pool = feasible if feasible else candidates
        graph, result = min(
            pool, key=lambda c: c[1].estimate.energy_uj_per_byte
        )
        return MechanismOutcome(
            mechanism=self.name,
            graph=graph,
            plan=result.plan,
            dynamics=MechanismDynamics(context_switches_per_kb=0.01),
            scheduled_feasible=result.feasible,
            estimate=result.estimate,
            description=result.plan.describe(),
            search_stats=result.search_stats,
        )


class CoarseGrainedMechanism(Mechanism):
    """CS: whole procedure as one task, asymmetry-aware scheduling."""

    name = "CS"

    def prepare(self, context: WorkloadContext) -> MechanismOutcome:
        model = context.cost_model(context.coarse_graph)
        result = Scheduler(model).schedule(best_effort=True)
        return MechanismOutcome(
            mechanism=self.name,
            graph=context.coarse_graph,
            plan=result.plan,
            dynamics=MechanismDynamics(context_switches_per_kb=0.05),
            scheduled_feasible=result.feasible,
            estimate=result.estimate,
            description=result.plan.describe(),
            search_stats=result.search_stats,
        )


class RoundRobinMechanism(Mechanism):
    """RR: fine-grained tasks mapped sequentially to core 0, 1, 2, ..."""

    name = "RR"

    def prepare(self, context: WorkloadContext) -> MechanismOutcome:
        cores = context.board.core_ids
        assignments = tuple(
            (cores[index % len(cores)],)
            for index in range(context.fine_graph.stage_count)
        )
        plan = SchedulingPlan(graph=context.fine_graph, assignments=assignments)
        return MechanismOutcome(
            mechanism=self.name,
            graph=context.fine_graph,
            plan=plan,
            dynamics=MechanismDynamics(context_switches_per_kb=0.05),
            description=plan.describe(),
        )


class BigOnlyMechanism(Mechanism):
    """BO: fine-grained tasks randomly on the big cores only."""

    name = "BO"

    def prepare(self, context: WorkloadContext) -> MechanismOutcome:
        provider = _random_plan_provider(
            context.fine_graph, context.board.big_core_ids
        )
        return MechanismOutcome(
            mechanism=self.name,
            graph=context.fine_graph,
            plan=provider,
            dynamics=MechanismDynamics(context_switches_per_kb=0.05),
            description="random placement on big cores",
        )


class LittleOnlyMechanism(Mechanism):
    """LO: fine-grained tasks randomly on the little cores only."""

    name = "LO"

    def prepare(self, context: WorkloadContext) -> MechanismOutcome:
        provider = _random_plan_provider(
            context.fine_graph, context.board.little_core_ids
        )
        return MechanismOutcome(
            mechanism=self.name,
            graph=context.fine_graph,
            plan=provider,
            dynamics=MechanismDynamics(context_switches_per_kb=0.05),
            description="random placement on little cores",
        )


class OSMechanism(Mechanism):
    """OS: whole-procedure workers placed by the simulated EAS kernel."""

    name = "OS"

    def __init__(self, worker_count: Optional[int] = None) -> None:
        self.worker_count = worker_count

    def prepare(self, context: WorkloadContext) -> MechanismOutcome:
        workers = self.worker_count or len(context.board.cores)
        graph = context.coarse_graph

        def provider(repetition: int, rng: np.random.Generator) -> SchedulingPlan:
            placement = eas_place(context.board, workers, rng)
            return SchedulingPlan(graph=graph, assignments=(placement,))

        return MechanismOutcome(
            mechanism=self.name,
            graph=graph,
            plan=provider,
            dynamics=MechanismDynamics(
                context_switches_per_kb=OS_CONTEXT_SWITCHES_PER_KB,
                migration_rate_per_batch=OS_MIGRATION_RATE,
                latency_jitter_sigma=0.015,
            ),
            description=f"EAS placement of {workers} workers",
        )


# --- §VII-D break-down ablations ------------------------------------------


class SimpleAblation(Mechanism):
    """``simple``: symmetric-multicore-style data parallelism only —
    the whole procedure replicated, placed randomly (no asymmetry
    model, no decomposition)."""

    name = "simple"

    def __init__(self, replicas: int = 2) -> None:
        if replicas < 1:
            raise ConfigurationError("replicas must be positive")
        self.replicas = replicas

    def prepare(self, context: WorkloadContext) -> MechanismOutcome:
        graph = context.coarse_graph
        cores = context.board.core_ids

        def provider(repetition: int, rng: np.random.Generator) -> SchedulingPlan:
            chosen = rng.choice(cores, size=self.replicas, replace=False)
            return SchedulingPlan(
                graph=graph, assignments=(tuple(int(c) for c in chosen),)
            )

        return MechanismOutcome(
            mechanism=self.name,
            graph=graph,
            plan=provider,
            dynamics=MechanismDynamics(context_switches_per_kb=0.05),
            description=f"{self.replicas} whole-procedure replicas, random cores",
        )


class DecompositionAblation(Mechanism):
    """``+decom.``: fine-grained tasks, randomly placed on any core."""

    name = "+decom."

    def prepare(self, context: WorkloadContext) -> MechanismOutcome:
        provider = _random_plan_provider(
            context.fine_graph, context.board.core_ids
        )
        return MechanismOutcome(
            mechanism=self.name,
            graph=context.fine_graph,
            plan=provider,
            dynamics=MechanismDynamics(context_switches_per_kb=0.05),
            description="random placement on all cores",
        )


class AsymmetricComputationAblation(Mechanism):
    """``+asy-comp.``: model-guided scheduling that is blind to
    communication costs (Eq 7 dropped), per §VII-D."""

    name = "+asy-comp."

    def prepare(self, context: WorkloadContext) -> MechanismOutcome:
        model = context.cost_model(
            context.fine_graph, communication_aware=False
        )
        result = Scheduler(model).schedule(best_effort=True)
        return MechanismOutcome(
            mechanism=self.name,
            graph=context.fine_graph,
            plan=result.plan,
            dynamics=MechanismDynamics(context_switches_per_kb=0.01),
            scheduled_feasible=result.feasible,
            estimate=result.estimate,
            description=result.plan.describe(),
            search_stats=result.search_stats,
        )


MECHANISM_NAMES = ("CStream", "OS", "CS", "RR", "BO", "LO")

_MECHANISMS = {
    CStreamMechanism.name: CStreamMechanism,
    OSMechanism.name: OSMechanism,
    CoarseGrainedMechanism.name: CoarseGrainedMechanism,
    RoundRobinMechanism.name: RoundRobinMechanism,
    BigOnlyMechanism.name: BigOnlyMechanism,
    LittleOnlyMechanism.name: LittleOnlyMechanism,
    SimpleAblation.name: SimpleAblation,
    DecompositionAblation.name: DecompositionAblation,
    AsymmetricComputationAblation.name: AsymmetricComputationAblation,
    "+asy-comm.": CStreamMechanism,  # the fully-functional system
}


def get_mechanism(name: str, **options) -> Mechanism:
    """Instantiate a mechanism by its paper label."""
    try:
        mechanism_class = _MECHANISMS[name]
    except KeyError:
        known = ", ".join(sorted(_MECHANISMS))
        raise ConfigurationError(f"unknown mechanism {name!r}; known: {known}")
    return mechanism_class(**options)
