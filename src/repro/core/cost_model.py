"""The CStream cost model (paper §V-B, Eqs 4-7).

Given a task graph, a workload profile and the calibrated hardware
curves, the model predicts for every task replica of a scheduling plan:

* computation latency ``l_comp = instructions / η(κ, core)`` (Eq 6 —
  linear in input size, since instructions scale with the batch);
* communication latency ``l_comm`` from the upstream stage's forwarded
  bytes and the measured per-path unit costs and overheads (Eq 7);
* energy ``e = η·l/ζ = instructions / ζ(κ, core)`` (Eq 4).

Everything is normalized to per-byte-of-batch units (µs/byte, µJ/byte),
matching the paper's reporting. The plan-level outputs are
``L_est = max(l_i)`` (Eq 2, pipeline bottleneck — including per-core
serialization when several replicas share a core, which is Eq 3's
capacity constraint expressed in time) and ``E_est = Σ e_i`` (Eq 1).

The model can be degraded for the paper's §VII-D ablations:
``communication_aware=False`` drops l_comm from every estimate (the
``+asy-comp.`` factor, which models asymmetric computation but ignores
communication effects entirely — our reading of "L_comm treated the same
for any pair"; see DESIGN.md).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.plan import PlanEstimate, SchedulingPlan, TaskEstimate
from repro.core.profiler import (
    CommunicationTable,
    WorkloadProfile,
    profile_roofline,
)
from repro.core.roofline import FittedPiecewise, fit_piecewise
from repro.core.task import TaskGraph
from repro.errors import ConfigurationError
from repro.memo import lru_lookup
from repro.simcore.boards import BoardSpec
from repro.simcore.hardware import CoreType, replication_factor
from repro.simcore.interconnect import Path

__all__ = ["CostModel", "CalibratedCurves", "calibrate_curves"]

#: default safety factor applied to L_set when checking Eq 2
DEFAULT_GUARD_BAND = 0.99

#: one float per core id (0.0 where the board has no core with that id)
Row = Tuple[float, ...]


@dataclass(frozen=True)
class CalibratedCurves:
    """Fitted η/ζ curves per core type (the model's view of Fig 3)."""

    eta: Dict[CoreType, FittedPiecewise]
    zeta: Dict[CoreType, FittedPiecewise]


#: process-wide memo of fitted curves: the dry-run calibration depends
#: only on (board, noise, seed), and nothing mutates a
#: :class:`CalibratedCurves` (frozen dataclass of frozen fits).
_CURVE_CACHE_MAX = 64
_CURVE_CACHE: "OrderedDict[Tuple, CalibratedCurves]" = OrderedDict()


def calibrate_curves(
    board: BoardSpec, noise: float = 0.01, seed: int = 0
) -> CalibratedCurves:
    """Profile one core of each type and fit Eq 5's piecewise curves."""

    def calibrate() -> CalibratedCurves:
        eta: Dict[CoreType, FittedPiecewise] = {}
        zeta: Dict[CoreType, FittedPiecewise] = {}
        for core_type in CoreType:
            cores = board.cores_of_type(core_type)
            if not cores:
                continue
            samples = profile_roofline(cores[0], noise=noise, seed=seed)
            eta[core_type] = fit_piecewise(samples.kappas, samples.eta_values)
            zeta[core_type] = fit_piecewise(samples.kappas, samples.zeta_values)
        return CalibratedCurves(eta=eta, zeta=zeta)

    key = (board.key(), noise, seed)
    return lru_lookup(_CURVE_CACHE, key, _CURVE_CACHE_MAX, calibrate)


class _CostTables:
    """Precomputed per-(stage, core) lookup tables for one cost model.

    Every value is produced by the model's own scalar helpers
    (``_eta``/``_zeta``, ``stage_kappa``, the communication table), and
    every derived row keeps the Eq 4/6 operand order, so reading a table
    yields the same float the per-call formula would compute. ``stamp``
    snapshots the mutable inputs (``kappa_scale``, ``frequency_map``);
    :meth:`CostModel._tables` rebuilds when the PID controller drifts
    them. ``latency_scale`` is a direct multiplier, so a latency row
    remembers the scale it was built with and is rebuilt when it moves.
    """

    __slots__ = (
        "stamp", "kappas", "instructions", "output_bytes", "eta", "zeta",
        "comm_unit", "comm_overhead", "comm_energy", "_batch_bytes", "_rows",
        "_latency_overhead", "_energy_overhead",
    )

    def __init__(self, model: "CostModel", stamp: Tuple) -> None:
        self.stamp = stamp
        board = model.board
        core_ids = sorted(board.core_by_id)
        size = max(core_ids) + 1
        stage_count = len(model._stage_costs)
        self.kappas = [model.stage_kappa(s) for s in range(stage_count)]
        self.instructions = [
            model.stage_instructions(s) for s in range(stage_count)
        ]
        self.output_bytes = [
            model.stage_output_bytes(s) for s in range(stage_count)
        ]
        self.eta = []
        self.zeta = []
        for stage in range(stage_count):
            kappa = self.kappas[stage]
            eta_row = [0.0] * size
            zeta_row = [0.0] * size
            for core_id in core_ids:
                eta_row[core_id] = model._eta(kappa, core_id)
                zeta_row[core_id] = model._zeta(kappa, core_id)
            self.eta.append(eta_row)
            self.zeta.append(zeta_row)
        communication = model.communication
        self.comm_unit = [[0.0] * size for _ in range(size)]
        self.comm_overhead = [[0.0] * size for _ in range(size)]
        self.comm_energy = [[0.0] * size for _ in range(size)]
        for producer in core_ids:
            for consumer in core_ids:
                path = board.path_between(producer, consumer)
                self.comm_unit[producer][consumer] = (
                    communication.unit_cost(path)
                )
                self.comm_overhead[producer][consumer] = (
                    communication.overhead(path)
                )
                self.comm_energy[producer][consumer] = (
                    communication.energy(path)
                )
        self._batch_bytes = model._batch_bytes
        self._rows: Dict[Tuple[int, int], Tuple[float, Row, Row]] = {}
        self._latency_overhead = board.replication_latency_overhead
        self._energy_overhead = board.replication_energy_overhead

    def rows(
        self, stage: int, replicas: int, scale: float
    ) -> Tuple[float, Row, Row]:
        """``(scale, l_comp row, e row)`` of one of ``replicas``
        replicas of ``stage`` (Eqs 6 and 4). ``scale`` is the stage's
        ``latency_scale``; a cached entry built under another scale is
        rebuilt."""
        key = (stage, replicas)
        cached = self._rows.get(key)
        if cached is not None and cached[0] == scale:
            return cached
        instructions = self.instructions[stage] / replicas
        latency = (
            scale
            * instructions
            * replication_factor(self._latency_overhead, replicas)
        )
        energy = instructions * replication_factor(
            self._energy_overhead, replicas
        )
        batch = self._batch_bytes
        cached = (
            scale,
            tuple(
                latency / eta / batch if eta else 0.0
                for eta in self.eta[stage]
            ),
            tuple(
                energy / zeta / batch if zeta else 0.0
                for zeta in self.zeta[stage]
            ),
        )
        self._rows[key] = cached
        return cached


@dataclass
class CostModel:
    """Plan cost estimator for one workload on one board."""

    board: BoardSpec
    graph: TaskGraph
    profile: WorkloadProfile
    curves: CalibratedCurves
    communication: CommunicationTable
    latency_constraint_us_per_byte: float
    guard_band: float = DEFAULT_GUARD_BAND
    communication_aware: bool = True
    frequency_map: Optional[Mapping[int, float]] = None
    #: per-stage calibration multipliers on l_comp and κ, adjusted by the
    #: adaptive PID controller (§V-D); 1.0 = trust the profile
    latency_scale: Dict[int, float] = field(default_factory=dict)
    kappa_scale: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.latency_constraint_us_per_byte <= 0:
            raise ConfigurationError("latency constraint must be positive")
        if not 0 < self.guard_band <= 1:
            raise ConfigurationError("guard band must be in (0, 1]")
        self._stage_costs = tuple(
            task.merged_cost(self.profile.mean_step_costs)
            for task in self.graph.tasks
        )
        self._batch_bytes = self.profile.batch_size_bytes

    def stage_kappa(self, stage_index: int) -> float:
        base = self._stage_costs[stage_index].operational_intensity
        return base * self.kappa_scale.get(stage_index, 1.0)

    def stage_instructions(self, stage_index: int) -> float:
        return self._stage_costs[stage_index].instructions

    def stage_output_bytes(self, stage_index: int) -> float:
        return float(self._stage_costs[stage_index].output_bytes)

    def apply_path_degradation(self, path: Path, factor: float) -> None:
        """Teach the model that one interconnect path runs ``factor``× slow.

        The controller's diagnosis trigger calls this when the residual
        ledger pins a window's latency residual on a path class: the
        communication table is rebuilt (never mutated in place — the
        measured table is shared process-wide via the profiler cache)
        with that path's unit cost, per-message overhead and transfer
        energy scaled, mirroring
        :meth:`repro.simcore.interconnect.InterconnectSpec.degraded`.
        The lookup tables are invalidated explicitly because their
        stamp only tracks κ/frequency drift, not the communication
        table.
        """
        if factor <= 0:
            raise ConfigurationError("degradation factor must be positive")
        table = self.communication
        unit = dict(table.unit_cost_us_per_byte)
        overhead = dict(table.message_overhead_us)
        energy = dict(table.message_energy_uj or {})
        if path in unit:
            unit[path] *= factor
        if path in overhead:
            overhead[path] *= factor
        if path in energy:
            energy[path] *= factor
        self.communication = CommunicationTable(
            unit_cost_us_per_byte=unit,
            message_overhead_us=overhead,
            message_energy_uj=energy or None,
        )
        self._table_cache = None

    def _core_frequency(self, core_id: int) -> Optional[float]:
        if self.frequency_map is None:
            return None
        return self.frequency_map.get(core_id)

    def _eta(self, kappa: float, core_id: int) -> float:
        core = self.board.core_by_id[core_id]
        fitted = self.curves.eta[core.core_type]
        base = fitted.value(kappa)
        frequency = self._core_frequency(core_id)
        if frequency is None:
            return base
        # The fitted curve was profiled at max frequency; reuse the
        # hardware's scaling law for other levels.
        return base * core.eta_at(kappa, frequency) / core.eta_at(kappa, None)

    def _zeta(self, kappa: float, core_id: int) -> float:
        core = self.board.core_by_id[core_id]
        fitted = self.curves.zeta[core.core_type]
        base = fitted.value(kappa)
        frequency = self._core_frequency(core_id)
        if frequency is None:
            return base
        return base * core.zeta_at(kappa, frequency) / core.zeta_at(kappa, None)

    def table_stamp(self) -> Tuple:
        """Snapshot of the mutable inputs every per-(stage, core) table
        value depends on: the κ scales and the frequency map (ζ and η
        are read at each core's mapped frequency)."""
        return (
            ()
            if not self.kappa_scale
            else tuple(sorted(self.kappa_scale.items())),
            None
            if self.frequency_map is None
            else tuple(sorted(self.frequency_map.items())),
        )

    def _tables(self) -> _CostTables:
        """The precomputed lookup tables, rebuilt on κ/frequency drift.

        The stamp check is cheap in the common case (no adaptive drift,
        no static frequency map: two empty snapshots), so each scored
        plan pays one tuple compare instead of a piecewise-curve walk
        per replica.
        """
        stamp = self.table_stamp()
        tables = getattr(self, "_table_cache", None)
        if tables is not None and tables.stamp == stamp:
            return tables
        tables = _CostTables(self, stamp)
        self._table_cache = tables
        return tables

    # -- per-task estimates (Eqs 4, 6, 7) -----------------------------------

    def replica_rows(
        self, stage_index: int, replicas: int
    ) -> Tuple[Row, Row]:
        """``(l_comp, e)`` of one of ``replicas`` replicas of a stage on
        every core, indexed by core id (Eqs 6 and 4).

        The branch-and-bound search reads these once per search instead
        of calling :meth:`compute_latency`/:meth:`task_energy` per
        branch.
        """
        _, latency_row, energy_row = self._tables().rows(
            stage_index, replicas, self.latency_scale.get(stage_index, 1.0)
        )
        return latency_row, energy_row

    def compute_latency(
        self, stage_index: int, core_id: int, replicas: int = 1
    ) -> float:
        """l_comp of one replica, µs per byte of batch (Eq 6)."""
        return self.replica_rows(stage_index, replicas)[0][core_id]

    def task_energy(
        self, stage_index: int, core_id: int, replicas: int = 1
    ) -> float:
        """e of one replica, µJ per byte of batch (Eq 4)."""
        return self.replica_rows(stage_index, replicas)[1][core_id]

    # -- plan evaluation (Eqs 1-3) -------------------------------------------

    def _check_graph(self, graph: TaskGraph) -> None:
        if graph is not self.graph and graph != self.graph:
            raise ConfigurationError("plan was built for a different task graph")

    def _plan_kernel(
        self,
        assignments: Sequence[Tuple[int, ...]],
        estimates: Optional[List[TaskEstimate]] = None,
    ) -> Tuple[float, float, Dict[int, float]]:
        """Eqs 2-7 over one plan: the per-task loop behind both
        :meth:`score` and :meth:`evaluate`.

        Returns ``(L_est, E_est, core_load)``. Replicas are visited stage
        by stage in assignment order; E_est is the left fold
        ``ordered_sum`` would compute over them, and each replica's
        l_comm/e_comm folds producer stages in ascending order and the
        producers within a stage in assignment order. L_est is
        ``max(bottleneck task, bottleneck core)``: a core hosting several
        replicas serializes their l_comp (Eq 3's capacity constraint
        expressed in time). When ``estimates`` is a list, one
        :class:`TaskEstimate` per replica is appended to it.
        """
        tables = self._tables()
        batch = self._batch_bytes
        scales = self.latency_scale
        graph_tasks = self.graph.tasks
        communication_aware = self.communication_aware
        unit = tables.comm_unit
        overhead = tables.comm_overhead
        comm_energy = tables.comm_energy
        output_bytes = tables.output_bytes
        rows = tables.rows
        core_load: Dict[int, float] = {}
        bottleneck_task = -math.inf
        energy = 0.0
        for stage_index, cores in enumerate(assignments):
            replicas = len(cores)
            _, latency_row, energy_row = rows(
                stage_index, replicas, scales.get(stage_index, 1.0)
            )
            producers = []
            if communication_aware:
                for producer_stage in graph_tasks[stage_index].predecessors:
                    upstream_cores = assignments[producer_stage]
                    producers.append((
                        upstream_cores,
                        output_bytes[producer_stage]
                        / replicas
                        / len(upstream_cores),
                    ))
            for replica_index, core_id in enumerate(cores):
                l_comp = latency_row[core_id]
                l_comm = 0.0
                e_comm = 0.0
                for upstream_cores, share in producers:
                    total_us = 0.0
                    total_uj = 0.0
                    for producer_core in upstream_cores:
                        total_us += share * unit[producer_core][core_id]
                        total_us += overhead[producer_core][core_id]
                        total_uj += comm_energy[producer_core][core_id]
                    l_comm += total_us / batch
                    e_comm += total_uj / batch
                task_energy = energy_row[core_id] + e_comm
                task_latency = l_comp + l_comm
                if task_latency > bottleneck_task:
                    bottleneck_task = task_latency
                core_load[core_id] = core_load.get(core_id, 0.0) + l_comp
                energy += task_energy
                if estimates is not None:
                    estimates.append(
                        TaskEstimate(
                            stage_index=stage_index,
                            replica_index=replica_index,
                            core_id=core_id,
                            kappa=tables.kappas[stage_index],
                            l_comp_us_per_byte=l_comp,
                            l_comm_us_per_byte=l_comm,
                            energy_uj_per_byte=task_energy,
                        )
                    )
        latency = max(bottleneck_task, max(core_load.values()))
        return latency, energy, core_load

    def score(
        self,
        assignments: Sequence[Tuple[int, ...]],
        graph: Optional[TaskGraph] = None,
    ) -> Tuple[float, float, bool]:
        """``(L_est, E_est, feasible)`` of a plan's assignments, bit for
        bit what :meth:`evaluate` reports, without building a
        :class:`PlanEstimate`.

        The plan search scores every leaf this way and evaluates only
        its final incumbents. ``graph``, when given, is checked against
        the model's graph exactly as :meth:`evaluate` checks a plan's.
        """
        if graph is not None:
            self._check_graph(graph)
        latency, energy, _ = self._plan_kernel(assignments)
        budget = self.guard_band * self.latency_constraint_us_per_byte
        return latency, energy, not latency > budget

    def evaluate(self, plan: SchedulingPlan) -> PlanEstimate:
        """Predict L_est, E_est, feasibility and the per-replica
        estimates of a plan (see :meth:`_plan_kernel`)."""
        self._check_graph(plan.graph)
        estimates: List[TaskEstimate] = []
        latency, energy, core_load = self._plan_kernel(
            plan.assignments, estimates
        )

        # Critical path: per-stage latency (slowest replica) summed along
        # the heaviest chain of stage edges. For chains this degenerates
        # to the plain stage sum; forks run branches in parallel, so a
        # join only inherits its heaviest producer. The steady-state
        # period (L_est above) stays the feasibility metric — the
        # critical path prices one batch's end-to-end pipeline depth,
        # which replanning and the schedulers' tie-breaking consume.
        stage_latency: Dict[int, float] = {}
        for est in estimates:
            current = stage_latency.get(est.stage_index, 0.0)
            if est.l_us_per_byte > current:
                stage_latency[est.stage_index] = est.l_us_per_byte
        path_to: Dict[int, float] = {}
        for stage_index in range(plan.graph.stage_count):
            longest_producer = 0.0
            for producer in plan.graph.predecessors_of(stage_index):
                if path_to[producer] > longest_producer:
                    longest_producer = path_to[producer]
            path_to[stage_index] = (
                stage_latency.get(stage_index, 0.0) + longest_producer
            )
        critical_path = path_to[plan.graph.stage_count - 1]

        budget = self.guard_band * self.latency_constraint_us_per_byte
        reason = ""
        if latency > budget:
            reason = (
                f"L_est {latency:.2f} µs/B exceeds budget {budget:.2f} µs/B"
            )
        return PlanEstimate(
            plan=plan,
            task_estimates=tuple(estimates),
            latency_us_per_byte=latency,
            energy_uj_per_byte=energy,
            feasible=not reason,
            infeasibility_reason=reason,
            core_load_us_per_byte=core_load,
            critical_path_us_per_byte=critical_path,
        )
