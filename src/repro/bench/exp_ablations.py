"""Ablation studies beyond the paper's figures.

DESIGN.md calls out the reproduction's own design choices; these
experiments quantify them:

* ``abl_guard`` — the scheduler's guard band (accept plans only up to
  ``guard·L_set``): energy paid vs CLCV risk as the band tightens.
* ``abl_fusion`` — the fusion rule (§IV-B) vs never fusing and vs the
  fully fused (coarse) pipeline.
* ``abl_regulator`` — PID feedback (Eq 8) vs the statistics-aware
  controller the paper sketches as future work, each as the session
  controller's drift detector: batches-to-readapt and energy during
  the transient after a workload jump.
* ``abl_boards`` — the same workloads planned on the rk3399 vs a
  Jetson-TX2-class board (future-work hardware).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bench.experiments import ExperimentResult
from repro.bench.harness import Harness, WorkloadSpec, default_harness
from repro.control import (
    ControllerConfig,
    SessionController,
    SessionSpec,
    run_adaptive_session,
)
from repro.control.session import steady_batches
from repro.core.baselines import CStreamMechanism, MechanismOutcome
from repro.core.scheduler import Scheduler
from repro.core.task import Task, TaskGraph
from repro.faults.model import DvfsThrottle, FaultPlan
from repro.runtime.executor import (
    ExecutionConfig,
    MechanismDynamics,
    PipelineExecutor,
)
from repro.simcore.boards import jetson_tx2_like, rk3399

__all__ = [
    "abl_guard_band",
    "abl_fusion",
    "abl_regulator",
    "abl_boards",
    "abl_thermal",
]


def abl_guard_band(
    harness: Optional[Harness] = None,
    repetitions: Optional[int] = None,
    bands: Sequence[float] = (1.0, 0.99, 0.95, 0.90),
) -> ExperimentResult:
    """Guard-band sweep on tcomp32-Rovio: tighter bands trade energy
    for certainty of meeting L_set."""
    harness = harness or default_harness()
    spec = WorkloadSpec.of("tcomp32", "rovio")
    context = harness.context(spec)
    rows = []
    values = {}
    for band in bands:
        model = context.cost_model(context.fine_graph, guard_band=band)
        result = Scheduler(model).schedule(best_effort=True)
        outcome = MechanismOutcome(
            mechanism=f"guard={band}",
            graph=context.fine_graph,
            plan=result.plan,
            dynamics=MechanismDynamics(context_switches_per_kb=0.01),
        )
        measured = harness.run_outcome(spec, outcome, repetitions=repetitions)
        values[band] = {
            "E": measured.mean_energy_uj_per_byte,
            "CLCV": measured.clcv,
            "headroom": 1.0
            - result.estimate.latency_us_per_byte / spec.latency_constraint,
        }
        rows.append(
            (
                f"{band:.2f}",
                f"{measured.mean_energy_uj_per_byte:.3f}",
                f"{measured.clcv:.2f}",
                f"{values[band]['headroom']:.1%}",
                result.plan.describe(),
            )
        )
    return ExperimentResult(
        experiment_id="abl_guard",
        title="scheduler guard-band ablation, tcomp32-Rovio",
        headers=("guard", "E (µJ/B)", "CLCV", "headroom", "plan"),
        rows=rows,
        note="the default 0.99 band is the loosest setting that keeps "
        "CLCV at zero given fit error plus runtime noise",
        extras={"values": values},
    )


def abl_fusion(
    harness: Optional[Harness] = None,
    repetitions: Optional[int] = None,
    workload: str = "tdic32",
) -> ExperimentResult:
    """Fusion-rule ablation: the §IV-B rule vs no fusion vs full fusion."""
    harness = harness or default_harness()
    spec = WorkloadSpec.of(workload, "rovio")
    context = harness.context(spec)
    profile = harness.profile(spec)

    unfused = TaskGraph(
        codec_name=profile.codec_name,
        tasks=tuple(
            Task(name=f"t{index}", step_ids=(step,), stage_index=index)
            for index, step in enumerate(profile.step_ids)
        ),
    )
    variants = (
        ("no fusion", unfused),
        ("fusion rule", context.fine_graph),
        ("fully fused", context.coarse_graph),
    )
    rows = []
    values = {}
    for label, graph in variants:
        result = context.plan(graph)
        outcome = MechanismOutcome(
            mechanism=label,
            graph=graph,
            plan=result.plan,
            dynamics=MechanismDynamics(context_switches_per_kb=0.01),
        )
        measured = harness.run_outcome(spec, outcome, repetitions=repetitions)
        values[label] = {
            "E": measured.mean_energy_uj_per_byte,
            "L": measured.mean_latency_us_per_byte,
            "CLCV": measured.clcv,
            "stages": graph.stage_count,
        }
        rows.append(
            (
                label,
                graph.stage_count,
                f"{measured.mean_energy_uj_per_byte:.3f}",
                f"{measured.mean_latency_us_per_byte:.2f}",
                f"{measured.clcv:.2f}",
            )
        )
    return ExperimentResult(
        experiment_id="abl_fusion",
        title=f"fusion-rule ablation, {spec.label}",
        headers=("variant", "stages", "E (µJ/B)", "L (µs/B)", "CLCV"),
        rows=rows,
        note="fully fusing hides the task-core affinities and costs the "
        "most; in this calibration never fusing is marginally cheaper "
        "than the paper's rule (fusing the read step dilutes the encode "
        "step's kappa), at the price of one more task, queue and "
        "per-message overhead per batch — the rule is kept as the "
        "default for fidelity to the paper",
        extras={"values": values},
    )


def _arm_outcome(result, events, window_batches: int, after: int) -> dict:
    """One session arm judged on its steady batches (each window's first
    batch pays the drain barrier in every arm alike): which violate
    L_set, the first batch at or after ``after`` from which none does
    (``None``: never recovers), the adopted replans as (window, reason)
    and the summed energy from ``after`` on."""
    steady = steady_batches(result.batches, window_batches)
    recovery = None
    for batch in steady:
        if batch.violated:
            recovery = None
        elif recovery is None and batch.batch_index >= after:
            recovery = batch.batch_index
    return {
        "violations": [b.batch_index for b in steady if b.violated],
        "recovery": recovery,
        "adoptions": [
            (event.window_index, event.reason)
            for event in events
            if event.adopted
        ],
        "transient_energy": sum(
            b.energy_uj_per_byte for b in steady if b.batch_index >= after
        ),
        "steady_latency": {
            b.batch_index: b.latency_us_per_byte for b in steady
        },
    }


def _outcome_row(label: str, outcome: dict) -> tuple:
    return (
        label,
        len(outcome["violations"]),
        "never" if outcome["recovery"] is None else outcome["recovery"],
        outcome["adoptions"][0][0] if outcome["adoptions"] else "-",
    )


def abl_regulator(
    harness: Optional[Harness] = None,
    latency_constraint: float = 20.0,
    batches: int = 12,
) -> ExperimentResult:
    """PID (Eq 8) vs statistics-aware drift detection after a range jump
    (the ``phase-shift`` drift: 500 -> 50 000 at batch ``batches // 3``).

    Each detector drives the same session controller; the static plan
    is the no-regulation reference. Only steady batches count: every
    window's first batch pays the drain barrier in every arm."""
    change_at = batches // 3
    comparisons = {
        detector: run_adaptive_session(
            harness,
            SessionSpec(
                scenario="phase-shift",
                batches=batches,
                latency_constraint=latency_constraint,
                controller=ControllerConfig(drift_detector=detector),
            ),
        )
        for detector in ("pid", "statistics")
    }
    pid, stats = comparisons["pid"], comparisons["statistics"]
    arms = (
        ("static", "static plan", pid.static, ()),
        ("pid", "PID (Eq 8)", pid.adaptive, pid.controller_events),
        ("statistics", "statistics-aware", stats.adaptive,
         stats.controller_events),
    )
    rows = []
    extras = {}
    for key, label, result, events in arms:
        outcome = _arm_outcome(
            result, events, pid.spec.window_batches, change_at
        )
        extras[key] = outcome
        rows.append(
            _outcome_row(label, outcome)
            + (f"{outcome['transient_energy']:.3f}",)
        )
    return ExperimentResult(
        experiment_id="abl_regulator",
        title=(
            "regulator ablation: response to a dynamic-range jump at "
            f"batch {change_at} (tcomp32-Micro, session controller)"
        ),
        headers=(
            "drift detector", "violated steady batches", "recovered at",
            "adopted at window", "post-jump energy (µJ/B summed, steady)",
        ),
        rows=rows,
        note="the statistics-aware detector fires on the first drifted "
        "batch's counters; the PID needs Eq 8's three observations, so "
        "its replan lands a window later (the trade-off §V-D predicts)",
        extras=extras,
    )


def abl_boards(
    harness: Optional[Harness] = None,
    repetitions: Optional[int] = None,
) -> ExperimentResult:
    """The same workloads planned on rk3399 vs a Jetson-TX2-class SoC."""
    repetitions = repetitions or 30
    rows = []
    values = {}
    for board in (rk3399(), jetson_tx2_like()):
        # Per-board harnesses (the keys differ by board fingerprint), but
        # share the caller's persistent cache so re-runs stay free.
        board_kwargs = {"board": board, "repetitions": repetitions}
        if harness is not None:
            board_kwargs["cache"] = harness.cache
        board_harness = Harness(**board_kwargs)
        for codec in ("tcomp32", "tdic32"):
            spec = WorkloadSpec.of(codec, "rovio")
            context = board_harness.context(spec)
            outcome = CStreamMechanism().prepare(context)
            result = board_harness.run_outcome(
                spec, outcome, repetitions=repetitions
            )
            key = (board.name, codec)
            values[key] = {
                "E": result.mean_energy_uj_per_byte,
                "L": result.mean_latency_us_per_byte,
                "CLCV": result.clcv,
            }
            rows.append(
                (
                    board.name.split(" (")[0],
                    codec,
                    outcome.description,
                    f"{result.mean_energy_uj_per_byte:.3f}",
                    f"{result.mean_latency_us_per_byte:.2f}",
                    f"{result.clcv:.2f}",
                )
            )
    return ExperimentResult(
        experiment_id="abl_boards",
        title="CStream across boards (future-work hardware)",
        headers=("board", "codec", "plan", "E (µJ/B)", "L (µs/B)", "CLCV"),
        rows=rows,
        note="both out-of-order clusters on the Jetson-class SoC flatten "
        "the asymmetry, so plans lean less on the big cores",
        extras={"values": values},
    )


def abl_thermal(
    harness: Optional[Harness] = None,
    latency_constraint: float = 26.0,
    batches: int = 12,
    throttle_at: int = 4,
    capped_mhz: float = 600.0,
) -> ExperimentResult:
    """Failure injection: a thermal cap hits the big cluster mid-stream.

    An IoT device in the sun throttles; the plan that used a big core
    for the encode stage starts violating the constraint. A static plan
    stays broken; the session controller reads the capped frequencies
    off the heartbeat at the next window boundary and its failover
    replan moves the pipeline onto plans priced at the capped clocks.
    """
    harness = harness or default_harness()
    board = harness.board
    spec = WorkloadSpec.of(
        "tcomp32", "rovio", latency_constraint=latency_constraint
    )
    context = harness.context(spec)
    profile = harness.profile(spec)
    per_batch = profile.per_batch_step_costs
    stream = [per_batch[index % len(per_batch)] for index in range(batches)]
    batch_bytes = profile.batch_size_bytes
    plan = context.plan(context.fine_graph).plan
    window_batches = 3
    executor = PipelineExecutor(
        board,
        ExecutionConfig(
            latency_constraint_us_per_byte=latency_constraint,
            repetitions=1,
            batches_per_repetition=batches,
            warmup_batches=2,
            seed=harness.seed,
            fault_plan=FaultPlan(events=tuple(
                DvfsThrottle(
                    core_id=core_id,
                    at_batch=throttle_at,
                    frequency_mhz=capped_mhz,
                )
                for core_id in board.big_core_ids
            )),
        ),
    )

    rows = []
    extras = {}
    for label in ("static plan", "controller"):
        controller = None
        if label == "controller":
            controller = SessionController(
                context.cost_model(context.fine_graph),
                stream,
                batch_bytes,
                plan=plan,
            )
        result = executor.run_session(
            plan, stream, batch_bytes,
            window_batches=window_batches, controller=controller,
        )
        events = () if controller is None else tuple(controller.events)
        outcome = _arm_outcome(result, events, window_batches, throttle_at)
        extras[label] = outcome
        rows.append(
            _outcome_row(label, outcome) + (result.final_plan_description,)
        )
    return ExperimentResult(
        experiment_id="abl_thermal",
        title=(
            f"thermal-throttling injection: big cores capped to "
            f"{capped_mhz:.0f} MHz after batch {throttle_at} "
            f"(tcomp32-Rovio, L_set={latency_constraint})"
        ),
        headers=(
            "variant", "violated steady batches", "recovered at",
            "adopted at window", "final plan",
        ),
        rows=rows,
        note="the heartbeat reports the capped big cores at the next "
        "window boundary; the controller's failover replan prices the "
        "capped clocks and moves the work off the throttled cluster "
        "(sensor-free recovery is abl_regulator's drift detection)",
        extras=extras,
    )
