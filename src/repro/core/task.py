"""Task graph produced by fine-grained decomposition (paper §IV).

A stream-compression procedure decomposes into a *DAG* of :class:`Task`
stages, each running one or more fused codec steps (fused when
communication would cost more than computation). The common case — and
the only shape the source paper considers — is a linear chain, which is
the degenerate DAG where every stage's sole predecessor is the stage
before it. Decompression pipelines (parse → {literal copy, match copy}
→ merge) and multi-channel codecs (split → per-channel encode → merge)
need the general fork/join shape.

Tasks may later be *replicated* for data parallelism; replication lives
in the scheduling plan, not here — a :class:`Task` is the logical stage.

Shape invariants enforced at construction:

* tasks are indexed ``0..n-1`` in a topological order — every
  predecessor has a *lower* stage index, so cycles are unrepresentable
  and any stage-index walk is a valid topological traversal;
* the graph has a unique sink, which (by the indexing rule) is always
  the last stage — the executor counts batch completions there;
* every non-final stage is consumed by some downstream stage, so every
  produced batch reaches the sink (join coverage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from repro.compression.base import StepCost
from repro.errors import ConfigurationError

__all__ = ["Task", "TaskGraph"]


@dataclass(frozen=True)
class Task:
    """One pipeline stage: an ordered group of fused codec steps.

    ``predecessors`` names the stage indices this task consumes batches
    from. ``None`` (the default) means the chain shape: stage 0 reads
    the source stream, stage ``i`` consumes stage ``i - 1``. An explicit
    empty tuple marks a *root* stage that reads the source directly even
    in a non-chain graph.
    """

    name: str
    step_ids: Tuple[str, ...]
    stage_index: int
    predecessors: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if not self.step_ids:
            raise ConfigurationError(f"task {self.name} has no steps")
        if self.stage_index < 0:
            raise ConfigurationError("stage_index must be non-negative")
        if self.predecessors is None:
            chain_default = () if self.stage_index == 0 else (self.stage_index - 1,)
            object.__setattr__(self, "predecessors", chain_default)
            return
        normalized = tuple(sorted(set(int(p) for p in self.predecessors)))
        for producer in normalized:
            if producer < 0:
                raise ConfigurationError(
                    f"task {self.name} has negative predecessor {producer}"
                )
            if producer >= self.stage_index:
                raise ConfigurationError(
                    f"task {self.name} (stage {self.stage_index}) lists "
                    f"predecessor {producer}, which is not upstream — tasks "
                    "must be indexed in topological order, so every "
                    "predecessor needs a lower stage index"
                )
        object.__setattr__(self, "predecessors", normalized)

    @property
    def is_chain_stage(self) -> bool:
        """True when this task has exactly the chain-default predecessors."""
        if self.stage_index == 0:
            return self.predecessors == ()
        return self.predecessors == (self.stage_index - 1,)

    def merged_cost(self, step_costs: Mapping[str, StepCost]) -> StepCost:
        """This task's cost for one batch, given per-step codec costs."""
        try:
            costs = [step_costs[step_id] for step_id in self.step_ids]
        except KeyError as missing:
            raise ConfigurationError(
                f"task {self.name} references unknown step {missing}"
            )
        return StepCost.merged(costs)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}[{'+'.join(self.step_ids)}]"


@dataclass(frozen=True)
class TaskGraph:
    """A DAG of tasks covering a codec's steps (chains as the default)."""

    codec_name: str
    tasks: Tuple[Task, ...]

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ConfigurationError(
                f"codec {self.codec_name!r}: task graph needs at least one task"
            )
        for index, task in enumerate(self.tasks):
            if task.stage_index != index:
                raise ConfigurationError(
                    f"codec {self.codec_name!r}: task {task.name} has "
                    f"stage_index {task.stage_index}, expected {index}"
                )
        seen: List[str] = []
        for task in self.tasks:
            seen.extend(task.step_ids)
        if len(seen) != len(set(seen)):
            duplicated = sorted({s for s in seen if seen.count(s) > 1})
            raise ConfigurationError(
                f"codec {self.codec_name!r}: step(s) {duplicated} appear in "
                "more than one task"
            )
        # Join coverage: with topological indexing the last stage is
        # structurally a sink (nobody downstream exists to consume it);
        # requiring every *other* stage to have a consumer makes that
        # sink unique and reachable from everywhere, so counting batch
        # completions at the last stage observes the whole graph.
        consumed = {p for task in self.tasks for p in task.predecessors}
        orphaned = [
            task.name
            for task in self.tasks[:-1]
            if task.stage_index not in consumed
        ]
        if orphaned:
            raise ConfigurationError(
                f"codec {self.codec_name!r}: task(s) {orphaned} produce "
                "output no downstream task consumes — every non-final stage "
                "must reach the sink"
            )

    @property
    def stage_count(self) -> int:
        return len(self.tasks)

    @property
    def is_chain(self) -> bool:
        """True when every stage has the chain-default predecessors."""
        return all(task.is_chain_stage for task in self.tasks)

    def predecessors_of(self, stage_index: int) -> Tuple[int, ...]:
        """Stage indices feeding ``stage_index`` (ascending, possibly empty)."""
        return self.tasks[stage_index].predecessors

    def successors_of(self, stage_index: int) -> Tuple[int, ...]:
        """Stage indices consuming ``stage_index`` (ascending, possibly empty)."""
        return tuple(
            task.stage_index
            for task in self.tasks
            if stage_index in task.predecessors
        )

    def roots(self) -> Tuple[int, ...]:
        """Stages with no predecessors — they read the source stream."""
        return tuple(
            task.stage_index for task in self.tasks if not task.predecessors
        )

    @staticmethod
    def coarse(codec_name: str, step_ids: Tuple[str, ...]) -> "TaskGraph":
        """The undecomposed graph: one task running every step.

        This is what the coarse-grained mechanisms (OS, CS, and the
        ``simple`` ablation) schedule — the paper's ``t_all``.
        """
        return TaskGraph(
            codec_name=codec_name,
            tasks=(Task(name="t_all", step_ids=tuple(step_ids), stage_index=0),),
        )

    def describe(self) -> str:
        """Human-readable pipeline summary.

        Chains keep the historical arrow form, e.g. ``t0[s0+s1] -> t1[s2]``
        (golden traces pin this exact string). DAGs annotate each
        non-chain stage with its producers, e.g.
        ``t0[d0] ; t1[d1]<-[t0] ; t2[d2]<-[t0] ; t3[d3]<-[t1,t2]``.
        """
        if self.is_chain:
            return " -> ".join(str(task) for task in self.tasks)
        parts = []
        for task in self.tasks:
            if task.predecessors:
                producers = ",".join(
                    self.tasks[p].name for p in task.predecessors
                )
                parts.append(f"{task}<-[{producers}]")
            else:
                parts.append(str(task))
        return " ; ".join(parts)
