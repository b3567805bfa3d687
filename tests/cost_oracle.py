"""Curve-level reference for the cost model (paper Eqs 1-7).

Recomputes a plan's estimate one scalar call chain per replica, straight
from the fitted η/ζ curves (``CostModel._eta``/``_zeta``), the board's
replication overheads and the measured :class:`CommunicationTable` — no
lookup tables, no shared kernel. The tests compare
:meth:`CostModel.evaluate`, :meth:`CostModel.score` and the per-task
helpers against it bit for bit.
"""

from typing import Dict, List

from repro.core.plan import PlanEstimate, TaskEstimate
from repro.numerics import ordered_sum
from repro.simcore.hardware import replication_factor


def compute_latency(model, stage_index, core_id, replicas=1):
    """l_comp of one replica, µs/byte (Eq 6)."""
    kappa = model.stage_kappa(stage_index)
    eta = model._eta(kappa, core_id)
    instructions = model.stage_instructions(stage_index) / replicas
    overhead = replication_factor(
        model.board.replication_latency_overhead, replicas
    )
    scale = model.latency_scale.get(stage_index, 1.0)
    return (
        scale * instructions * overhead / eta
        / model.profile.batch_size_bytes
    )


def task_energy(model, stage_index, core_id, replicas=1):
    """e of one replica, µJ/byte (Eq 4)."""
    kappa = model.stage_kappa(stage_index)
    zeta = model._zeta(kappa, core_id)
    instructions = model.stage_instructions(stage_index) / replicas
    overhead = replication_factor(
        model.board.replication_energy_overhead, replicas
    )
    return instructions * overhead / zeta / model.profile.batch_size_bytes


def communication(model, core_id, upstream_cores, replicas, producer_stage):
    """(l_comm, e_comm) of one replica from one producer stage (Eq 7)."""
    if not model.communication_aware:
        return 0.0, 0.0
    table = model.communication
    share = (
        model.stage_output_bytes(producer_stage)
        / replicas
        / len(upstream_cores)
    )
    total_us = 0.0
    total_uj = 0.0
    for producer_core in upstream_cores:
        path = model.board.path_between(producer_core, core_id)
        total_us += share * table.unit_cost(path)
        total_us += table.overhead(path)
        total_uj += table.energy(path)
    batch = model.profile.batch_size_bytes
    return total_us / batch, total_uj / batch


def evaluate(model, plan) -> PlanEstimate:
    """The full :class:`PlanEstimate` of ``plan`` under ``model``."""
    estimates: List[TaskEstimate] = []
    core_load: Dict[int, float] = {}
    for stage_index, cores in enumerate(plan.assignments):
        replicas = len(cores)
        for replica_index, core_id in enumerate(cores):
            l_comp = compute_latency(model, stage_index, core_id, replicas)
            l_comm = 0.0
            e_comm = 0.0
            for producer_stage in plan.graph.predecessors_of(stage_index):
                latency, energy = communication(
                    model,
                    core_id,
                    plan.assignments[producer_stage],
                    replicas,
                    producer_stage,
                )
                l_comm += latency
                e_comm += energy
            estimates.append(
                TaskEstimate(
                    stage_index=stage_index,
                    replica_index=replica_index,
                    core_id=core_id,
                    kappa=model.stage_kappa(stage_index),
                    l_comp_us_per_byte=l_comp,
                    l_comm_us_per_byte=l_comm,
                    energy_uj_per_byte=(
                        task_energy(model, stage_index, core_id, replicas)
                        + e_comm
                    ),
                )
            )
            core_load[core_id] = core_load.get(core_id, 0.0) + l_comp

    latency = max(
        max(est.l_us_per_byte for est in estimates),
        max(core_load.values()),
    )
    energy = ordered_sum(est.energy_uj_per_byte for est in estimates)
    stage_latency: Dict[int, float] = {}
    for est in estimates:
        if est.l_us_per_byte > stage_latency.get(est.stage_index, 0.0):
            stage_latency[est.stage_index] = est.l_us_per_byte
    path_to: Dict[int, float] = {}
    for stage_index in range(plan.graph.stage_count):
        longest_producer = max(
            (path_to[p] for p in plan.graph.predecessors_of(stage_index)),
            default=0.0,
        )
        path_to[stage_index] = (
            stage_latency.get(stage_index, 0.0) + longest_producer
        )
    budget = model.guard_band * model.latency_constraint_us_per_byte
    reason = ""
    if latency > budget:
        reason = f"L_est {latency:.2f} µs/B exceeds budget {budget:.2f} µs/B"
    return PlanEstimate(
        plan=plan,
        task_estimates=tuple(estimates),
        latency_us_per_byte=latency,
        energy_uj_per_byte=energy,
        feasible=not reason,
        infeasibility_reason=reason,
        core_load_us_per_byte=core_load,
        critical_path_us_per_byte=path_to[plan.graph.stage_count - 1],
    )
