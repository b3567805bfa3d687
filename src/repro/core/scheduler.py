"""Model-guided plan search (paper §V-C) with iterative scaling (§IV-B).

The search enumerates scheduling plans with a dynamic program over
pipeline stages. Stage indices are a topological order of the task
graph (a :class:`~repro.core.task.TaskGraph` invariant: every
predecessor has a lower index), so the same stage-by-stage depth-first
walk is simultaneously a walk over chains and over fork/join DAGs —
when a stage is placed, every producer it prices communication against
is already placed. Two structural reductions keep it exact *and* small:

* cores inside a cluster are identical, so a stage's placement is a
  *split* ``(n_little, n_big)`` of its replicas between clusters; the
  concrete core ids are then assigned deterministically (least-loaded
  core of the cluster first), which is optimal because intra-cluster
  paths all cost c0;
* the search is a depth-first branch-and-bound over per-stage cluster
  splits: a partial plan carries its accumulated energy and per-core
  load profile, and a branch is cut when that energy plus the sum of
  the remaining stages' independent per-stage energy minima cannot
  beat the best complete feasible plan found so far (see
  :meth:`Scheduler.search` for the exact bounds). There is no memo
  table — per-core loads are continuous, so distinct prefixes almost
  never collide; ``plans_evaluated`` counts complete plans scored, not
  pruned branches.

Replication follows the paper's *topologically sorted iterative
scaling*: start with one replica per stage; while no feasible plan
exists, replicate the bottleneck stage (highest estimated latency under
the best latency-minimizing plan) and search again, until feasibility or
core saturation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.cost_model import CostModel
from repro.core.plan import PlanEstimate, SchedulingPlan
from repro.errors import ConfigurationError, InfeasiblePlanError
from repro.numerics import ordered_sum

__all__ = ["Scheduler", "ScheduleResult", "SearchStats"]


@dataclass(frozen=True)
class SearchStats:
    """Instrumentation of one :meth:`Scheduler.schedule` invocation.

    ``nodes_expanded`` counts per-stage split branches the depth-first
    walk actually descended into; ``branches_pruned`` counts branches
    cut by the energy-floor / latency bound; ``plans_evaluated`` counts
    complete plans scored (:meth:`CostModel.score`; only each search's
    final incumbents are evaluated); ``scaling_rounds``
    counts iterative-scaling restarts; ``wall_clock_s`` is real time.
    """

    nodes_expanded: int = 0
    branches_pruned: int = 0
    plans_evaluated: int = 0
    scaling_rounds: int = 0
    wall_clock_s: float = 0.0
    #: branches that only the warm-started incumbent bound could cut
    #: (0 for cold searches; see :meth:`Scheduler.schedule`'s warm_start)
    warm_start_hits: int = 0

    def as_pairs(self) -> Tuple[Tuple[str, float], ...]:
        """(name, value) pairs for trace summaries and reports."""
        return (
            ("nodes_expanded", float(self.nodes_expanded)),
            ("branches_pruned", float(self.branches_pruned)),
            ("plans_evaluated", float(self.plans_evaluated)),
            ("scaling_rounds", float(self.scaling_rounds)),
            ("wall_clock_s", self.wall_clock_s),
            ("warm_start_hits", float(self.warm_start_hits)),
        )


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling one workload."""

    estimate: PlanEstimate
    replica_counts: Tuple[int, ...]
    plans_evaluated: int
    feasible: bool
    #: search instrumentation (None only for hand-built results)
    search_stats: Optional[SearchStats] = field(default=None, compare=False)

    @property
    def plan(self) -> SchedulingPlan:
        return self.estimate.plan


class Scheduler:
    """Searches for the energy-optimal feasible plan (Eq 1 s.t. Eqs 2-3)."""

    def __init__(
        self,
        model: CostModel,
        max_replicas_per_stage: Optional[int] = None,
        allowed_cores: Optional[Iterable[int]] = None,
    ) -> None:
        self.model = model
        self.board = model.board
        self._little = list(self.board.little_core_ids)
        self._big = list(self.board.big_core_ids)
        if allowed_cores is not None:
            # Restrict the search to a surviving subset (the controller's
            # failover path after a permanent core failure).
            allowed = set(allowed_cores)
            unknown = allowed - set(self.board.core_by_id)
            if unknown:
                raise ConfigurationError(
                    f"allowed_cores names unknown cores {sorted(unknown)}"
                )
            self._little = [c for c in self._little if c in allowed]
            self._big = [c for c in self._big if c in allowed]
            if not self._little and not self._big:
                raise ConfigurationError(
                    "allowed_cores leaves no core to schedule on"
                )
        if max_replicas_per_stage is None:
            max_replicas_per_stage = len(self._little) + len(self._big)
        self.max_replicas_per_stage = max_replicas_per_stage
        #: instrumentation of the most recent :meth:`search` call
        self.last_search_counters: Dict[str, int] = {
            "expanded": 0, "pruned": 0, "evaluated": 0, "warm_pruned": 0,
        }
        # Per-stage energy minima reused across incremental replans: the
        # floors depend only on replica counts and the energy-side model
        # parameters (κ scales, frequency map), not on the latency
        # calibration the regulator adjusts, so a controller replanning
        # after drift recomputes nothing here.
        self._floor_cache: Dict[Tuple, List[float]] = {}

    # -- placement enumeration ---------------------------------------------

    def _stage_placements(self, replicas: int):
        """All (n_little, n_big) splits of a stage's replicas."""
        for n_big in range(min(replicas, len(self._big) * 2) + 1):
            n_little = replicas - n_big
            if n_little > len(self._little) * 2:
                continue
            if n_little < 0:
                continue
            yield (n_little, n_big)

    def _assign_cores(
        self, split: Tuple[int, int], load: Dict[int, float]
    ) -> Tuple[int, ...]:
        """Concrete cores for a split: least-loaded cluster cores first."""
        n_little, n_big = split
        cores: List[int] = []
        for count, pool in ((n_little, self._little), (n_big, self._big)):
            if count == 0:
                continue
            ordered = sorted(pool, key=lambda c: (load.get(c, 0.0), c))
            for index in range(count):
                cores.append(ordered[index % len(ordered)])
        return tuple(cores)

    # -- search ---------------------------------------------------------------

    def _energy_floor_key(self, replica_counts: Tuple[int, ...]) -> Tuple:
        """Cache key of the per-stage energy minima: the floors depend on
        the replica counts, the κ scales (which shift each stage's
        position on the ζ curve) and the frequency map (ζ is read at the
        mapped frequency), never on the latency calibration."""
        return (replica_counts, self.model.table_stamp())

    def _stage_energy_floors(
        self,
        replica_counts: Tuple[int, ...],
        stage_splits: List[List[Tuple[int, int]]],
    ) -> List[float]:
        key = self._energy_floor_key(replica_counts)
        cached = self._floor_cache.get(key)
        if cached is not None:
            return cached
        floors: List[float] = []
        for stage_index, splits in enumerate(stage_splits):
            energy_row = self.model.replica_rows(
                stage_index, replica_counts[stage_index]
            )[1]
            minima = [
                ordered_sum(
                    energy_row[core] for core in self._assign_cores(split, {})
                )
                for split in splits
            ]
            floors.append(min(minima) if minima else 0.0)
        self._floor_cache[key] = floors
        return floors

    def search(
        self,
        replica_counts: Tuple[int, ...],
        initial_bound: Optional[float] = None,
    ) -> Tuple[Optional[PlanEstimate], Optional[PlanEstimate], int]:
        """Enumerate plans for fixed replica counts, with pruning.

        The enumeration is a depth-first walk over per-stage cluster
        splits. Two admissible bounds keep it far below the full
        product:

        * **energy bound** — each stage's energy is minimized over its
          own placements independently of the others (communication adds
          energy, never removes it), so partial energy plus the sum of
          the remaining stages' independent minima is a lower bound; a
          branch that cannot beat the incumbent feasible plan is cut;
        * the **latency floor** of a partial plan only grows as stages
          are added, so branches are also cut for the min-latency search
          once both incumbents are unbeatable.

        ``initial_bound`` seeds the energy bound with an incumbent
        plan's energy *before any complete plan has been evaluated* —
        this is how a warm-started incremental replan prunes from the
        first branch. The bound is applied strictly (``>``), so an
        equal-energy alternative is still explored and exactness is
        preserved.

        Every complete plan is scored with :meth:`CostModel.score`
        (``(L_est, E_est, feasible)``), and once the walk is over
        :meth:`CostModel.evaluate` builds a :class:`PlanEstimate` for
        each distinct final incumbent only (best and fastest).
        The walk and the energy floors read each stage's per-core
        l_comp/e rows (:meth:`CostModel.replica_rows`) once per search.

        Returns ``(best_feasible, min_latency, plans_evaluated)`` — the
        energy optimum among feasible plans (or None), the
        latency-minimizing plan (used to locate the bottleneck stage for
        iterative scaling) and the number of complete plans scored.
        After each call, :attr:`last_search_counters` holds the walk's
        instrumentation (``expanded`` branches descended, ``pruned``
        branches cut, ``evaluated`` complete plans scored,
        ``warm_pruned`` cuts only the incumbent bound enabled);
        :meth:`schedule` aggregates them into a :class:`SearchStats`.
        """
        graph = self.model.graph
        stage_splits = [
            list(self._stage_placements(r)) for r in replica_counts
        ]
        # Independent per-stage energy minima for the lower bound
        # (cached across replans — see _stage_energy_floors).
        stage_energy_floor = self._stage_energy_floors(
            replica_counts, stage_splits
        )
        remaining_floor = [0.0] * (graph.stage_count + 1)
        for stage_index in range(graph.stage_count - 1, -1, -1):
            remaining_floor[stage_index] = (
                remaining_floor[stage_index + 1]
                + stage_energy_floor[stage_index]
            )

        rows = [
            self.model.replica_rows(stage_index, replicas)
            for stage_index, replicas in enumerate(replica_counts)
        ]
        score = self.model.score
        best: Optional[Tuple[Tuple[int, ...], ...]] = None  # best feasible
        best_energy = best_latency = 0.0
        fastest: Optional[Tuple[Tuple[int, ...], ...]] = None  # min latency
        fastest_latency = 0.0
        counters = {
            "expanded": 0,      # branches descended into
            "pruned": 0,        # branches cut by the bounds
            "evaluated": 0,     # complete plans scored
            "warm_pruned": 0,   # cuts only the incumbent bound enabled
        }

        def consider(assignments: List[Tuple[int, ...]]) -> None:
            nonlocal best, best_energy, best_latency, fastest, fastest_latency
            latency, energy, feasible = score(assignments)
            counters["evaluated"] += 1
            if fastest is None or latency < fastest_latency:
                fastest, fastest_latency = tuple(assignments), latency
            if feasible and (
                best is None
                or energy < best_energy
                or (energy == best_energy and latency < best_latency)
            ):
                best, best_energy, best_latency = tuple(assignments), energy, latency

        def walk(
            stage_index: int,
            assignments: List[Tuple[int, ...]],
            load: Dict[int, float],
            partial_energy: float,
        ) -> None:
            if stage_index == graph.stage_count:
                consider(assignments)
                return
            latency_row, energy_row = rows[stage_index]
            for split in stage_splits[stage_index]:
                cores = self._assign_cores(split, load)
                stage_energy = ordered_sum(energy_row[core] for core in cores)
                candidate_energy = partial_energy + stage_energy
                energy_floor = (
                    candidate_energy + remaining_floor[stage_index + 1]
                )
                beaten_by_best = (
                    best is not None and energy_floor >= best_energy
                )
                beaten_by_incumbent = (
                    initial_bound is not None and energy_floor > initial_bound
                )
                if (beaten_by_best or beaten_by_incumbent) and (
                    fastest is not None
                ) and (
                    # The latency incumbent can still improve; only cut
                    # when the branch cannot help either search. A
                    # cheap sufficient condition: the partial core loads
                    # already exceed the fastest plan seen.
                    max(load.values(), default=0.0) >= fastest_latency
                ):
                    counters["pruned"] += 1
                    if beaten_by_incumbent and not beaten_by_best:
                        counters["warm_pruned"] += 1
                    continue
                counters["expanded"] += 1
                new_load = dict(load)
                for core in cores:
                    new_load[core] = new_load.get(core, 0.0) + latency_row[core]
                assignments.append(cores)
                walk(stage_index + 1, assignments, new_load, candidate_energy)
                assignments.pop()

        walk(0, [], {}, 0.0)
        self.last_search_counters = counters
        estimates = {
            plan: self.model.evaluate(SchedulingPlan(graph, plan))
            for plan in dict.fromkeys((best, fastest)) if plan is not None
        }
        return estimates.get(best), estimates.get(fastest), counters["evaluated"]

    # -- plan validation ------------------------------------------------------

    def _validate(self, plan: SchedulingPlan, expect_feasible: bool) -> None:
        """Run the PLN invariants on a plan about to be returned: a
        structurally broken plan raises
        :class:`~repro.errors.InvariantViolationError` before any
        simulation runs on it."""
        dependency_map = getattr(
            self.model.profile, "dependency_map", None
        )
        plan.validate(
            board=self.board,
            expected_steps=self.model.profile.step_ids,
            step_dependencies=(
                dependency_map() if callable(dependency_map) else None
            ),
            cost_model=self.model if expect_feasible else None,
            expect_feasible=expect_feasible,
        )

    # -- iterative scaling ------------------------------------------------------

    def schedule(
        self,
        best_effort: bool = False,
        warm_start: Optional[SchedulingPlan] = None,
    ) -> ScheduleResult:
        """Find the optimal plan, replicating bottleneck stages lazily.

        With ``best_effort=True`` an infeasible workload returns the
        latency-minimizing plan instead of raising — this is how
        best-effort mechanisms keep running and get charged their
        constraint violations.

        ``warm_start`` is an incumbent plan from a previous schedule of
        the same graph (the online control loop's current plan). It is
        re-evaluated under the *current* model — the calibration may
        have drifted since it was found — and, when still feasible,
        seeds the branch-and-bound's energy bound before the first
        branch, so an incremental replan prunes everything that cannot
        beat the incumbent. If nothing strictly beats it, the incumbent
        itself is returned (refreshed), which means a warm replan is
        never worse than keeping the current plan. Ties go to the
        incumbent — deliberately, since adopting an equal-energy plan
        would cost a migration for nothing.
        """
        graph = self.model.graph
        replica_counts = [1] * graph.stage_count
        total_evaluated = 0
        total_expanded = 0
        total_pruned = 0
        total_warm_pruned = 0
        scaling_rounds = 0
        # Wall-clock here instruments the *search*, which runs before the
        # simulation starts — it never feeds simulated time or results.
        search_started = time.perf_counter()  # csa: ignore[CSA001]
        fallback: Optional[PlanEstimate] = None
        best_overall: Optional[PlanEstimate] = None
        best_counts: Optional[Tuple[int, ...]] = None
        core_count = len(self._little) + len(self._big)

        if warm_start is not None and warm_start.graph == self.model.graph:
            incumbent = self.model.evaluate(warm_start)
            if incumbent.feasible:
                best_overall = incumbent
                best_counts = tuple(
                    len(cores) for cores in warm_start.assignments
                )
            elif incumbent.latency_us_per_byte > 0:
                fallback = incumbent

        while True:
            bound = (
                best_overall.energy_uj_per_byte
                if best_overall is not None
                else None
            )
            best, min_latency, evaluated = self.search(
                tuple(replica_counts), initial_bound=bound
            )
            total_evaluated += evaluated
            total_expanded += self.last_search_counters["expanded"]
            total_pruned += self.last_search_counters["pruned"]
            total_warm_pruned += self.last_search_counters["warm_pruned"]
            scaling_rounds += 1
            if min_latency is not None:
                if fallback is None or (
                    min_latency.latency_us_per_byte
                    < fallback.latency_us_per_byte
                ):
                    fallback = min_latency
            improved = best is not None and (
                best_overall is None
                or best.energy_uj_per_byte < best_overall.energy_uj_per_byte
            )
            if improved:
                best_overall = best
                best_counts = tuple(replica_counts)
            if (
                sum(replica_counts) >= core_count
                or max(replica_counts) >= self.max_replicas_per_stage
                or min_latency is None
            ):
                break
            # Replicate the bottleneck stage of the best plan so far (or
            # of the fastest infeasible plan while still infeasible).
            reference = best_overall if best_overall is not None else min_latency
            bottleneck = reference.bottleneck().stage_index
            if replica_counts[bottleneck] >= self.max_replicas_per_stage:
                # Saturated; try the next-worst stage.
                candidates = sorted(
                    reference.task_estimates,
                    key=lambda est: -est.l_us_per_byte,
                )
                for candidate in candidates:
                    if (
                        replica_counts[candidate.stage_index]
                        < self.max_replicas_per_stage
                    ):
                        bottleneck = candidate.stage_index
                        break
                else:
                    break
            replica_counts[bottleneck] += 1

        stats = SearchStats(
            nodes_expanded=total_expanded,
            branches_pruned=total_pruned,
            plans_evaluated=total_evaluated,
            scaling_rounds=scaling_rounds,
            # Same wall-clock instrumentation as above: reporting only.
            wall_clock_s=time.perf_counter() - search_started,  # csa: ignore[CSA001]
            warm_start_hits=total_warm_pruned,
        )

        if best_overall is not None:
            self._validate(best_overall.plan, expect_feasible=True)
            return ScheduleResult(
                estimate=best_overall,
                replica_counts=best_counts,
                plans_evaluated=total_evaluated,
                feasible=True,
                search_stats=stats,
            )
        if best_effort and fallback is not None:
            self._validate(fallback.plan, expect_feasible=False)
            return ScheduleResult(
                estimate=fallback,
                replica_counts=tuple(
                    len(cores) for cores in fallback.plan.assignments
                ),
                plans_evaluated=total_evaluated,
                feasible=False,
                search_stats=stats,
            )
        raise InfeasiblePlanError(
            f"no plan meets {self.model.latency_constraint_us_per_byte:.2f} "
            f"µs/byte for {graph.codec_name} "
            f"(best achievable: "
            f"{fallback.latency_us_per_byte if fallback else float('nan'):.2f})"
        )
