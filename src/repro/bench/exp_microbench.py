"""Micro-benchmark experiments: Fig 3, Table II, Table IV, Table V.

These characterize the substrate and the cost model rather than the
end-to-end system: the roofline curves of the two core types, the
interconnect paths, the per-task cost anchors, and the model's accuracy
against measurement.
"""

from __future__ import annotations

from typing import Optional

from repro.bench.experiments import ExperimentResult
from repro.bench.harness import Harness, WorkloadSpec, default_harness
from repro.core.profiler import profile_roofline
from repro.simcore.hardware import CoreType
from repro.simcore.interconnect import Path, stream_probe

__all__ = [
    "fig03_roofline",
    "tab02_interconnect",
    "tab04_task_comparison",
    "tab05_model_accuracy",
]


def fig03_roofline(
    harness: Optional[Harness] = None,
    kappa_step: int = 20,
) -> ExperimentResult:
    """Fig 3: four-segment rooflines of the rk3399 big and little cores,
    with the κ markers of tcomp32's steps."""
    harness = harness or default_harness()
    board = harness.board
    big = board.cores_of_type(CoreType.BIG)[0]
    little = board.cores_of_type(CoreType.LITTLE)[0]
    kappas = list(range(5, 500, kappa_step))
    big_samples = profile_roofline(big, kappas)
    little_samples = profile_roofline(little, kappas)
    rows = []
    for index, kappa in enumerate(kappas):
        rows.append(
            (
                kappa,
                f"{big_samples.eta_values[index]:.2f}",
                f"{little_samples.eta_values[index]:.2f}",
                f"{big_samples.zeta_values[index]:.0f}",
                f"{little_samples.zeta_values[index]:.0f}",
            )
        )
    spec = WorkloadSpec.of("tcomp32", "rovio")
    profile = harness.profile(spec)
    markers = {
        step: round(profile.step_kappa(step), 1) for step in profile.step_ids
    }
    return ExperimentResult(
        experiment_id="fig3",
        title="roofline of rk3399 big/little cores (η: instr/µs, ζ: instr/µJ)",
        headers=("kappa", "eta_big", "eta_little", "zeta_big", "zeta_little"),
        rows=rows,
        note=f"tcomp32-rovio step kappa markers: {markers}; the little "
        "core's eta dips in the kappa 30-70 segment (in-order L1-I stalls)",
        extras={"step_kappas": markers},
    )


def tab02_interconnect(harness: Optional[Harness] = None) -> ExperimentResult:
    """Table II: bandwidth and latency of cross-core communication."""
    harness = harness or default_harness()
    spec = harness.board.interconnect
    rows = []
    for path, label in (
        (Path.C0, "intra-cluster c0"),
        (Path.C1, "inter-cluster c1 (big->little)"),
        (Path.C2, "inter-cluster c2 (little->big)"),
    ):
        probe = stream_probe(spec, path)
        rows.append(
            (
                label,
                f"{probe['bandwidth_gbps']:.1f} GB/s",
                f"{probe['latency_ns']:.1f} ns",
            )
        )
    return ExperimentResult(
        experiment_id="tab2",
        title="cross-core communication paths (STREAM-style probe)",
        headers=("Path", "Bandwidth", "Latency"),
        rows=rows,
        note="c2 (little->big) pays extra synchronization/hand-shake cycles",
    )


def tab04_task_comparison(
    harness: Optional[Harness] = None,
) -> ExperimentResult:
    """Table IV: decomposed t0/t1 vs whole-procedure t_all vs t_re×2 on
    big and little cores (tcomp32-Rovio)."""
    harness = harness or default_harness()
    spec = WorkloadSpec.of("tcomp32", "rovio")
    context = harness.context(spec)
    fine_model = context.cost_model(context.fine_graph)
    coarse_model = context.cost_model(context.coarse_graph)
    big = harness.board.big_core_ids[0]
    little = harness.board.little_core_ids[0]

    rows = []
    for stage, name in enumerate(task.name for task in context.fine_graph.tasks):
        rows.append(
            (
                name,
                f"{fine_model.stage_kappa(stage):.0f}",
                f"{fine_model.compute_latency(stage, big):.1f}",
                f"{fine_model.compute_latency(stage, little):.1f}",
                f"{fine_model.task_energy(stage, big):.2f}",
                f"{fine_model.task_energy(stage, little):.2f}",
            )
        )
    for replicas, name in ((1, "t_all"), (2, "t_re x2")):
        # t_re×2: per-replica latency (half the data), total energy.
        energy_big = coarse_model.task_energy(0, big, replicas) * replicas
        energy_little = coarse_model.task_energy(0, little, replicas) * replicas
        rows.append(
            (
                name,
                f"{coarse_model.stage_kappa(0):.0f}",
                f"{coarse_model.compute_latency(0, big, replicas):.1f}",
                f"{coarse_model.compute_latency(0, little, replicas):.1f}",
                f"{energy_big:.2f}",
                f"{energy_little:.2f}",
            )
        )
    return ExperimentResult(
        experiment_id="tab4",
        title="task comparison, tcomp32-Rovio (l: µs/B, e: µJ/B)",
        headers=("Task", "kappa", "l big", "l little", "e big", "e little"),
        rows=rows,
        note="paper anchors: t0 κ≈320 (15.0/32.6, 0.29/0.27), "
        "t1 κ≈102 (13.5/21.7, 0.32/0.10), t_all κ≈220 (28.3/53.2, 0.59/0.34)",
    )


def tab05_model_accuracy(
    harness: Optional[Harness] = None,
    repetitions: Optional[int] = None,
) -> ExperimentResult:
    """Table V: cost-model estimates vs measurements under the optimal
    plans of all three codecs compressing Rovio."""
    harness = harness or default_harness()
    rows = []
    extras = {}
    for codec in ("lz4", "tcomp32", "tdic32"):
        spec = WorkloadSpec.of(codec, "rovio")
        context = harness.context(spec)
        estimate = context.plan(context.fine_graph).estimate
        result = harness.run(spec, "CStream", repetitions=repetitions)
        l_est = estimate.latency_us_per_byte
        l_pro = result.mean_latency_us_per_byte
        e_est = estimate.energy_uj_per_byte
        e_pro = result.mean_energy_uj_per_byte
        rows.append(
            (
                codec,
                f"{l_est:.2f}",
                f"{l_pro:.2f}",
                f"{abs(l_pro - l_est) / l_pro:.3f}",
                f"{e_est:.3f}",
                f"{e_pro:.3f}",
                f"{abs(e_pro - e_est) / e_pro:.3f}",
            )
        )
        extras[codec] = {
            "relative_error_latency": abs(l_pro - l_est) / l_pro,
            "relative_error_energy": abs(e_pro - e_est) / e_pro,
            "plan": estimate.plan.describe(),
        }
    return ExperimentResult(
        experiment_id="tab5",
        title="cost-model correctness under optimal plans (Rovio)",
        headers=(
            "algorithm", "L_est", "L_pro", "rel_err_L",
            "E_est", "E_pro", "rel_err_E",
        ),
        rows=rows,
        note="the energy gap covers what Eq 4 does not model: static/idle "
        "power, message overheads and scheduling work (paper: 0.07-0.14)",
        extras=extras,
    )
