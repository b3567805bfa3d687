"""Adaptive-vs-static sessions over drift scenarios.

Glue used by ``cstream adapt`` and :mod:`repro.bench.exp_adaptive`:
build a drifting per-batch cost stream from a
:func:`~repro.datasets.micro.drift_schedule`, then run the same windowed
session twice — once with the static one-shot plan all the way through
(``controller=None``) and once under a
:class:`~repro.control.controller.SessionController` — and compare
energy and constraint violations batch for batch. Both sessions share
the window structure, so the only difference between them is the
control loop itself. The static arm goes through
:func:`run_static_session`, which simulates each distinct
controller-less session once per process (chaos baselines share it).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.compression.base import StepCost
from repro.control.controller import ControllerConfig, SessionController
from repro.core.profiler import profile_named
from repro.datasets import DRIFT_KINDS, drift_schedule
from repro.errors import ConfigurationError
from repro.memo import lru_lookup
from repro.numerics import ordered_sum
from repro.obs.health import SessionHealth
from repro.obs.residuals import TelemetryCollector
from repro.runtime.executor import (
    ExecutionConfig,
    PipelineExecutor,
    SessionResult,
    window_latencies,
)
from repro.runtime.metrics import BatchMetrics

__all__ = [
    "ADAPT_L_SET",
    "SESSION_BATCH_BYTES",
    "SessionSpec",
    "SessionComparison",
    "build_drift_stream",
    "finalize_session_health",
    "run_adaptive_session",
    "run_static_session",
    "steady_batches",
    "summarize_session",
]


#: default L_set (µs/byte) of an adaptive session, by ``BoardSpec.name``
#: (other boards get the paper's 20.0), chosen so the drift scenarios
#: bind on each board: the Jetson-class SoC's bigger cores clear
#: rk3399's 20 µs/byte even statically
ADAPT_L_SET = {
    "rk3399 (Radxa RockPi 4a)": 20.0,
    "Jetson-TX2-like (4x A57 + 2x Denver2)": 8.0,
}

#: batch size (bytes) of every session workload: the harness default,
#: pinned here so that no environment variable can move a session result
SESSION_BATCH_BYTES = 65536

#: rows of each drift profile the stream cycles through: batch ``i`` of
#: a dynamic range reads row ``i % DRIFT_PROFILE_CYCLE`` of its profile
DRIFT_PROFILE_CYCLE = 3

#: bound of the :func:`run_static_session` memo (a ``SessionResult``
#: pickles to about 1.4 KB)
_STATIC_SESSIONS_MAX = 64
_STATIC_SESSIONS: "OrderedDict[Tuple, SessionResult]" = OrderedDict()


@dataclass(frozen=True)
class SessionSpec:
    """One drift scenario for an adaptive session."""

    codec: str = "tcomp32"
    scenario: str = "phase-shift"
    batches: int = 18
    window_batches: int = 3
    warmup_batches: int = 2
    #: L_set in µs/byte; ``None`` takes the board's :data:`ADAPT_L_SET`
    latency_constraint: Optional[float] = None
    low_range: int = 500
    high_range: int = 50_000
    controller: ControllerConfig = ControllerConfig()

    def __post_init__(self) -> None:
        if self.scenario not in DRIFT_KINDS:
            raise ConfigurationError(
                f"unknown scenario {self.scenario!r}; "
                f"expected one of {DRIFT_KINDS}"
            )
        if self.window_batches < 1:
            raise ConfigurationError("window must hold at least one batch")
        if self.warmup_batches >= self.batches:
            raise ConfigurationError("warmup must leave measurable batches")

    def for_board(self, board) -> "SessionSpec":
        """This spec with its L_set resolved against ``board``."""
        if self.latency_constraint is not None:
            return self
        return replace(
            self, latency_constraint=ADAPT_L_SET.get(board.name, 20.0)
        )


@dataclass(frozen=True)
class SessionComparison:
    """Static vs adaptive outcome on one drift scenario."""

    spec: SessionSpec
    static: SessionResult
    adaptive: SessionResult
    static_energy_uj_per_byte: float
    adaptive_energy_uj_per_byte: float
    static_violations: int
    adaptive_violations: int
    #: violations among *steady-state* batches only — a drained
    #: window's first batch pays the full pipeline traversal (no
    #: overlap with the previous window) in both arms alike, so the
    #: constraint story is read off the non-boundary batches
    static_steady_violations: int
    adaptive_steady_violations: int
    controller_events: Tuple
    warm_start_hits: int
    #: residual-attribution health report of the adaptive arm — only
    #: populated when the session ran with ``telemetry=True``
    health: Optional[SessionHealth] = None

    @property
    def energy_saving(self) -> float:
        if self.static_energy_uj_per_byte == 0.0:
            return 0.0
        return 1.0 - (
            self.adaptive_energy_uj_per_byte / self.static_energy_uj_per_byte
        )


def build_drift_stream(
    harness, spec: SessionSpec
) -> Tuple[object, List[Mapping[str, StepCost]], int]:
    """The drifting per-batch cost stream plus its workload context.

    Profiles one Micro variant per distinct ``dynamic_range`` in the
    schedule (deterministic seeds derived from the harness seed, not
    from its board, so sessions on every board share the memoized
    profiles) and assembles the per-batch step costs batch by batch.
    The returned context is profiled at ``low_range`` — the regime the
    static plan is optimized for, exactly as a one-shot deployment
    would be.
    """
    # WorkloadSpec is the key type of the harness's profile cache; its
    # default batch size comes from the environment, so pass it in.
    from repro.bench.harness import WorkloadSpec  # csa: ignore[CSA010]

    spec = spec.for_board(harness.board)
    workload = WorkloadSpec.of(
        spec.codec,
        "micro",
        dataset_options={"dynamic_range": spec.low_range},
        latency_constraint=spec.latency_constraint,
        batch_size=SESSION_BATCH_BYTES,
    )
    context = harness.context(workload)
    ranges = drift_schedule(
        spec.scenario, spec.batches, low=spec.low_range, high=spec.high_range
    )
    # Each range is profiled only up to the last row the stream reads
    # of it; the Micro generator draws the same leading batches for a
    # shorter profile, so the rows are those of a full-cycle profile.
    rows_read = {}
    for batch_index, value in enumerate(ranges):
        rows_read[value] = max(
            rows_read.get(value, 0), batch_index % DRIFT_PROFILE_CYCLE + 1
        )
    profiles = {}
    for index, value in enumerate(sorted(rows_read)):
        profiles[value] = profile_named(
            spec.codec,
            "micro",
            workload.batch_size,
            batches=rows_read[value],
            seed=harness.seed + 1 + index,
            dataset_options={"dynamic_range": value},
        )
    stream: List[Mapping[str, StepCost]] = [
        profiles[value].per_batch_step_costs[batch_index % DRIFT_PROFILE_CYCLE]
        for batch_index, value in enumerate(ranges)
    ]
    return context, stream, workload.batch_size


def finalize_session_health(
    controller: SessionController,
    collector: TelemetryCollector,
    result: SessionResult,
    batch_bytes: int,
    label: str,
) -> SessionHealth:
    """Close out a telemetry-carrying session's health report.

    The executor collects telemetry for *every* window but only
    consults the controller on non-final boundaries, so the final
    window(s) sit in the collector unattributed; feed them through the
    controller's ledger — against the final adopted plan, which is
    what they ran under — and return the full report.
    """
    for telemetry in collector.windows[len(controller.health_windows):]:
        latencies = window_latencies(
            result.completion_ts_us,
            telemetry.batch_start,
            telemetry.batch_count,
            batch_bytes,
        )
        controller.ingest_telemetry(telemetry, latencies)
    return controller.session_health(label)


def steady_batches(
    batches: Sequence[BatchMetrics], window_batches: int
) -> Tuple[BatchMetrics, ...]:
    """The steady batches among ``batches``: all but each window's
    first, which pays the full pipeline traversal after the drain
    barrier in every arm alike."""
    return tuple(b for b in batches if b.batch_index % window_batches != 0)


def summarize_session(result: SessionResult, spec) -> Tuple[float, int, int]:
    """One arm's mean measured energy (µJ/byte), its violations and its
    steady-state violations (window-boundary batches excluded).

    ``spec`` is a :class:`SessionSpec` or a
    :class:`~repro.faults.chaos.ChaosSpec`: only its
    ``warmup_batches`` and ``window_batches`` are read."""
    measured = result.measured(spec.warmup_batches)
    energy = ordered_sum(b.energy_uj_per_byte for b in measured) / len(measured)
    violations = sum(1 for b in measured if b.violated)
    steady = sum(
        1 for b in steady_batches(measured, spec.window_batches) if b.violated
    )
    return energy, violations, steady


def run_static_session(
    board,
    config: ExecutionConfig,
    plan,
    stream: Sequence[Mapping[str, StepCost]],
    batch_bytes: int,
    window_batches: int,
) -> SessionResult:
    """``plan`` run over ``stream`` window by window with no controller,
    no trace and no telemetry, memoized process-wide.

    The key is every input by value: the board's
    :meth:`~repro.simcore.boards.BoardSpec.key`, the whole ``config``,
    the plan, each stream row as sorted ``(step_id, StepCost)`` pairs,
    the batch size and the window size. Such a session is a pure
    function of them, so a hit is the result a fresh run would return.
    The :data:`_STATIC_SESSIONS_MAX` most recently used results are
    kept and shared (``SessionResult`` is frozen).
    """
    key = (
        board.key(),
        config,
        plan,
        tuple(tuple(sorted(row.items())) for row in stream),
        batch_bytes,
        window_batches,
    )
    return lru_lookup(
        _STATIC_SESSIONS, key, _STATIC_SESSIONS_MAX,
        lambda: PipelineExecutor(board, config).run_session(
            plan, stream, batch_bytes,
            window_batches=window_batches, controller=None,
        ),
    )


def run_adaptive_session(
    harness=None,
    spec: SessionSpec = SessionSpec(),
    trace=None,
    telemetry: bool = False,
) -> SessionComparison:
    """Run one drift scenario statically and adaptively and compare.

    ``trace`` (a :class:`~repro.obs.trace.TraceRecorder`) is attached to
    the *adaptive* session only — that is the run whose replan and
    migration events are worth inspecting. ``telemetry=True``
    additionally runs the adaptive arm with a residual-ledger
    telemetry collector and fills :attr:`SessionComparison.health`;
    the default keeps both arms byte-identical to a pre-telemetry
    build.
    """
    if harness is None:
        # The process-wide harness: its board, seed and profile batch
        # count are constants; the environment picks only its result
        # cache directory, which serves byte-identical profiles.
        from repro.bench.harness import default_harness  # csa: ignore[CSA010]

        harness = default_harness()
    spec = spec.for_board(harness.board)
    context, stream, batch_bytes = build_drift_stream(harness, spec)

    config = ExecutionConfig(
        latency_constraint_us_per_byte=spec.latency_constraint,
        repetitions=1,
        batches_per_repetition=spec.batches,
        warmup_batches=spec.warmup_batches,
        seed=harness.seed,
    )

    # Static arm: the one-shot plan for the profiled (pre-drift) regime.
    static_plan = context.plan(context.fine_graph).plan
    static_result = run_static_session(
        harness.board, config, static_plan, stream, batch_bytes,
        spec.window_batches,
    )

    # Adaptive arm: same initial plan, same windows, live controller.
    adaptive_model = context.cost_model(context.fine_graph)
    controller = SessionController(
        adaptive_model,
        stream,
        batch_bytes,
        config=spec.controller,
        plan=static_plan,
    )
    collector = TelemetryCollector() if telemetry else None
    adaptive_result = PipelineExecutor(
        harness.board, config, trace=trace, telemetry=collector
    ).run_session(
        static_plan,
        stream,
        batch_bytes,
        window_batches=spec.window_batches,
        controller=controller,
    )
    health = None
    if collector is not None:
        health = finalize_session_health(
            controller, collector, adaptive_result, batch_bytes,
            label=f"adapt:{spec.scenario}",
        )

    static_energy, static_violations, static_steady = summarize_session(
        static_result, spec
    )
    adaptive_energy, adaptive_violations, adaptive_steady = summarize_session(
        adaptive_result, spec
    )
    return SessionComparison(
        spec=spec,
        static=static_result,
        adaptive=adaptive_result,
        static_energy_uj_per_byte=static_energy,
        adaptive_energy_uj_per_byte=adaptive_energy,
        static_violations=static_violations,
        adaptive_violations=adaptive_violations,
        static_steady_violations=static_steady,
        adaptive_steady_violations=adaptive_steady,
        controller_events=tuple(controller.events),
        warm_start_hits=controller.warm_start_hits,
        health=health,
    )
