"""Command-line interface: ``python -m repro`` or the ``cstream`` script.

Subcommands
-----------

``compress`` / ``decompress``
    Real file (de)compression with any of the paper's codecs, using the
    framed multi-batch stream format.
``plan``
    Profile a workload, decompose it and print the asymmetry-aware plan
    with a per-core occupancy chart.
``simulate``
    Measure a (workload, mechanism) pair on a simulated board and print
    energy / latency / CLCV.
``trace``
    Run one (workload, mechanism) cell with structured tracing on and
    write a Chrome trace-event / Perfetto JSON plus a summary table
    (context switches/MB, migrations, DVFS transitions, occupancy).
``bench``
    Regenerate the paper's tables and figures (same as
    ``python -m repro.bench``), with ``--jobs N`` process-parallel grid
    execution, a ``--cache-dir`` persistent result cache and a
    ``--trace-dir`` that traces every computed cell.
``adapt``
    Run the online control loop on a drifting workload and compare the
    adaptive session (drift detection, warm-started replanning,
    migration-gated plan adoption) against the static one-shot plan.
``chaos``
    Inject a fault scenario (core failure, DVFS throttle, stall,
    interconnect degradation, batch corruption) mid-session and compare
    the adaptive controller's failover/diagnosis recovery against the
    static plan limping along on emergency reroutes. The residual
    ledger's health report prints per-window attributions;
    ``--health-out`` streams them as NDJSON for ``cstream top``.
``serve``
    Run the simulated serving fleet: heterogeneous boards behind a
    gateway with admission control, load shedding, retry/backoff, a
    per-board circuit breaker and cross-board failover. ``--compare``
    runs the static / shed / shed-failover arms over the same tenant
    catalogue and fault plan; ``--health-out`` writes the fleet health
    report (schema v2) for ``cstream top`` and
    ``python -m repro.analysis.verify``.
``top``
    Live view over a session health NDJSON tail (or a full health
    JSON): per-window measured/predicted latency, residual, SLO state
    and the implicated component. Fleet health reports written by
    ``cstream serve --health-out`` render as a board/tenant dashboard
    instead. ``--prom`` additionally writes a Prometheus-style text
    exposition in either mode.
``analyze``
    Run the static-analysis suite: the determinism and unit linter
    (``repro.analysis.lint``, rules CSA001-CSA010 and CSU001-CSU003)
    over source paths
    and, optionally, the trace and health-report checker
    (``repro.analysis.verify``: schema and invariants, TRC001-TRC007,
    HLT001-HLT003 and FLT001-FLT005) over exported artifacts.
``boards``
    List the available simulated boards.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.bench.harness import Harness, WorkloadSpec
from repro.compression import CODEC_NAMES, get_codec
from repro.compression.stream import CompressionSession, DecompressionSession
from repro.core.baselines import MECHANISM_NAMES, get_mechanism
from repro.datasets import DATASET_NAMES, DRIFT_KINDS
from repro.errors import ReproError
from repro.faults.chaos import CHAOS_SCENARIOS
from repro.faults.fleet import FLEET_SCENARIOS
from repro.fleet.scenario import FLEET_ARMS
from repro.runtime.visualize import render_gantt, render_plan
from repro.simcore.boards import jetson_tx2_like, rk3399

__all__ = ["main"]

_BOARDS = {"rk3399": rk3399, "jetson": jetson_tx2_like}

#: representative cells for ``cstream trace <experiment>`` — the
#: (codec, dataset) whose fig7/8-style measurements the figure leans on
_EXPERIMENT_CELLS = {
    "fig7": ("tcomp32", "rovio"),
    "fig8": ("tcomp32", "rovio"),
    "fig10": ("tcomp32", "sensor"),
    "fig11": ("tcomp32", "rovio"),
    "fig12": ("tcomp32", "stock"),
    "fig13": ("lz4", "rovio"),
    "fig14": ("tdic32", "rovio"),
    "fig15": ("tcomp32", "rovio"),
    "fig16": ("tcomp32", "rovio"),
    "fig17": ("tcomp32", "rovio"),
    "dag": ("unlz4", "rovio"),
}


def _positive(kind):
    """argparse type: ``kind(text)``, rejected (exit 2) unless > 0."""

    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstream",
        description="CStream: stream compression on asymmetric multicores",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    compress = commands.add_parser("compress", help="compress a file")
    compress.add_argument("codec", choices=CODEC_NAMES)
    compress.add_argument("input")
    compress.add_argument("output")
    compress.add_argument("--batch-bytes", type=int, default=65536)

    decompress = commands.add_parser("decompress", help="decompress a file")
    decompress.add_argument("codec", choices=CODEC_NAMES)
    decompress.add_argument("input")
    decompress.add_argument("output")

    plan = commands.add_parser(
        "plan", help="show the asymmetry-aware plan for a workload"
    )
    plan.add_argument("codec", choices=CODEC_NAMES)
    plan.add_argument("dataset", choices=DATASET_NAMES)
    plan.add_argument("--board", choices=sorted(_BOARDS), default="rk3399")
    plan.add_argument("--latency-constraint", type=float, default=26.0,
                      help="L_set in µs/byte (default 26, the paper's)")
    plan.add_argument("--batch-bytes", type=int, default=65536)

    simulate = commands.add_parser(
        "simulate", help="measure a mechanism on the simulated board"
    )
    simulate.add_argument("codec", choices=CODEC_NAMES)
    simulate.add_argument("dataset", choices=DATASET_NAMES)
    simulate.add_argument("--mechanism", choices=MECHANISM_NAMES,
                          default="CStream")
    simulate.add_argument("--board", choices=sorted(_BOARDS), default="rk3399")
    simulate.add_argument("--latency-constraint", type=float, default=26.0)
    simulate.add_argument("--repetitions", type=int, default=50)
    simulate.add_argument("--gantt", action="store_true",
                          help="print a Gantt chart of the last run")

    trace = commands.add_parser(
        "trace",
        help="trace one simulated cell and write Chrome/Perfetto JSON",
    )
    trace.add_argument(
        "target", nargs="+",
        help="'CODEC DATASET' (e.g. tcomp32 rovio) or an experiment "
        f"id with a representative cell ({', '.join(sorted(_EXPERIMENT_CELLS))})",
    )
    trace.add_argument("--mechanism", choices=MECHANISM_NAMES,
                       default="CStream")
    trace.add_argument("--board", choices=sorted(_BOARDS), default="rk3399")
    trace.add_argument("--latency-constraint", type=float, default=26.0)
    trace.add_argument("--repetitions", type=int, default=1)
    trace.add_argument("--batch-bytes", type=int, default=None,
                       help="override the workload's batch size")
    trace.add_argument("--governor", default=None,
                       help="override the DVFS governor "
                       "(e.g. 'ondemand' to see transitions)")
    trace.add_argument("--out", default=None,
                       help="trace JSON path (default: <cell>.trace.json)")
    trace.add_argument("--process-events", action="store_true",
                       help="also record engine process resume/end "
                       "instants (verbose)")
    trace.add_argument("--gantt", action="store_true",
                       help="print a Gantt chart of the traced run")

    bench = commands.add_parser(
        "bench", help="regenerate the paper's tables and figures"
    )
    bench.add_argument("experiment", nargs="?",
                       help="experiment id, 'all', or 'report' "
                       "(omit to list)")
    bench.add_argument("--repetitions", type=int, default=None)
    bench.add_argument("--jobs", type=int, default=None,
                       help="worker processes for grid cells "
                       "(default: REPRO_PARALLEL, else serial; "
                       "clamped to the core count)")
    bench.add_argument("--chunk", type=int, default=None,
                       help="grid cells per worker task "
                       "(default: auto)")
    bench.add_argument("--cache-dir", default=None,
                       help="persistent result cache "
                       "(default: REPRO_CACHE_DIR, else none)")
    bench.add_argument("--trace-dir", default=None,
                       help="write a Chrome trace JSON per computed "
                       "cell (default: REPRO_TRACE_DIR, else none)")
    bench.add_argument("--output", default="results.md",
                       help="report output path (only with 'report')")

    adapt = commands.add_parser(
        "adapt",
        help="run an adaptive vs static session on a drifting workload",
    )
    adapt.add_argument("--codec", choices=CODEC_NAMES, default="tcomp32")
    adapt.add_argument("--scenario", choices=DRIFT_KINDS,
                       default="phase-shift")
    adapt.add_argument("--board", choices=sorted(_BOARDS), default="rk3399")
    adapt.add_argument("--batches", type=int, default=18)
    adapt.add_argument("--window", type=int, default=3,
                       help="batches per control window")
    adapt.add_argument("--latency-constraint", type=float, default=None,
                       help="L_set in µs/byte (default: per board — "
                       "20.0 on rk3399, 8.0 on jetson)")
    adapt.add_argument("--low-range", type=int, default=500)
    adapt.add_argument("--high-range", type=int, default=50_000)
    adapt.add_argument("--horizon", type=int, default=4,
                       help="windows a migration must amortize over")
    adapt.add_argument("--out", default=None,
                       help="write the adaptive run's Chrome trace JSON")
    adapt.add_argument("--telemetry", action="store_true",
                       help="run the adaptive arm with the residual "
                       "ledger and print per-window health")
    adapt.add_argument("--health-out", default=None,
                       help="write per-window health NDJSON "
                       "(implies --telemetry)")

    chaos = commands.add_parser(
        "chaos",
        help="inject faults mid-session and compare static vs adaptive "
        "recovery",
    )
    chaos.add_argument("--codec", choices=CODEC_NAMES, default="tcomp32")
    chaos.add_argument("--dataset", choices=DATASET_NAMES, default="rovio")
    chaos.add_argument("--scenario", choices=CHAOS_SCENARIOS,
                       default="core-failure")
    chaos.add_argument("--board", choices=sorted(_BOARDS), default="rk3399")
    chaos.add_argument("--batches", type=int, default=18)
    chaos.add_argument("--window", type=int, default=3,
                       help="batches per control window")
    chaos.add_argument("--fault-batch", type=int, default=7,
                       help="batch boundary at which hardware faults fire")
    chaos.add_argument("--margin", type=float, default=1.35,
                       help="session L_set = static plan's modeled "
                       "latency x this margin")
    chaos.add_argument("--corruption-probability", type=float, default=0.15,
                       help="per-batch corruption probability for the "
                       "corruption scenarios (default 0.15)")
    chaos.add_argument("--out", default=None,
                       help="write the adaptive run's Chrome trace JSON")
    chaos.add_argument("--health-out", default=None,
                       help="write the adaptive arm's per-window health "
                       "NDJSON (for cstream top / CI artifacts)")

    serve = commands.add_parser(
        "serve",
        help="run the simulated serving fleet (admission, shedding, "
        "breaker, failover)",
    )
    serve.add_argument("--boards", type=int, default=3,
                       help="fleet size (board kinds cycle "
                       "rk3399/jetson/edge)")
    serve.add_argument("--tenants", type=int, default=6,
                       help="tenant catalogue size")
    serve.add_argument("--windows", type=int, default=12,
                       help="serving windows to run")
    serve.add_argument("--arm", choices=FLEET_ARMS, default="shed-failover",
                       help="gateway configuration (default shed-failover)")
    serve.add_argument("--compare", action="store_true",
                       help="run all three arms over the same catalogue "
                       "and fault plan and print the comparison")
    serve.add_argument("--scenario", choices=FLEET_SCENARIOS,
                       default="board-crash",
                       help="board-level fault plan (default board-crash)")
    serve.add_argument("--fault-board", type=int, default=0,
                       help="board index the fault hits")
    serve.add_argument("--at-window", type=int, default=3,
                       help="window at which the fault fires")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--top", action="store_true",
                       help="print the cstream-top dashboard of the "
                       "final window")
    serve.add_argument("--health-out", default=None,
                       help="write the fleet health report JSON "
                       "(schema v2; the --arm arm when --compare)")

    top = commands.add_parser(
        "top",
        help="live view over a session health NDJSON tail",
    )
    top.add_argument("health", metavar="HEALTH",
                     help="health NDJSON tail (or full health JSON) "
                     "written by cstream chaos/adapt --health-out, or "
                     "a fleet health JSON from cstream serve")
    top.add_argument("--follow", action="store_true",
                     help="keep re-reading the file like tail -f")
    top.add_argument("--interval", type=_positive(float), default=1.0,
                     help="poll interval with --follow (seconds)")
    top.add_argument("--limit", type=_positive(int), default=12,
                     help="most recent windows shown, oldest first "
                     "(for a fleet report: most recent events)")
    top.add_argument("--prom", default=None, metavar="FILE",
                     help="also write a Prometheus-style text exposition")

    analyze = commands.add_parser(
        "analyze",
        help="run the determinism and unit linter (and optionally the "
        "trace and health-report checker)",
    )
    analyze.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: the installed repro "
        "package)",
    )
    analyze.add_argument("--trace", action="append", default=[],
                         metavar="TRACE.json",
                         help="also check a trace or health file "
                         "(repeatable)")
    analyze.add_argument("--json", action="store_true", dest="as_json",
                         help="machine-readable output")
    analyze.add_argument("--report", default=None, metavar="FILE",
                         help="write the lint JSON report to FILE")
    analyze.add_argument("--strict", action="store_true",
                         help="fail on verifier warnings too")

    commands.add_parser("boards", help="list simulated boards")
    return parser


def _command_compress(args) -> int:
    codec = get_codec(args.codec)
    session = CompressionSession(codec)
    word = 4  # all codecs consume whole 32-bit words
    batch_bytes = args.batch_bytes - args.batch_bytes % word
    started = time.time()
    with open(args.input, "rb") as source, open(args.output, "wb") as sink:
        tail = b""
        while True:
            chunk = source.read(batch_bytes)
            if not chunk:
                break
            usable = len(chunk) - len(chunk) % word
            tail = chunk[usable:]
            if usable:
                sink.write(session.write_batch(chunk[:usable]))
        if tail:
            # Pad the trailing partial word with zeros; record its size.
            padded = tail + b"\x00" * (word - len(tail))
            sink.write(session.write_batch(padded))
    elapsed = time.time() - started
    print(
        f"{session.frames_written} frames, ratio "
        f"{session.compression_ratio:.2f}, {elapsed:.2f}s"
    )
    return 0


def _command_decompress(args) -> int:
    codec = get_codec(args.codec)
    session = DecompressionSession(codec)
    with open(args.input, "rb") as source, open(args.output, "wb") as sink:
        while True:
            chunk = source.read(1 << 20)
            if not chunk:
                break
            for batch in session.feed(chunk):
                sink.write(batch)
        session.finish()
    print(f"{session.frames_read} frames decoded")
    return 0


def _command_plan(args) -> int:
    board = _BOARDS[args.board]()
    harness = Harness(board=board)
    spec = WorkloadSpec.of(
        args.codec,
        args.dataset,
        batch_size=args.batch_bytes,
        latency_constraint=args.latency_constraint,
    )
    context = harness.context(spec)
    profile = harness.profile(spec)
    print(f"board:          {board.name}")
    print(f"workload:       {spec.label} "
          f"(ratio {profile.compression_ratio:.2f})")
    print(f"decomposition:  {context.fine_graph.describe()}")
    result = context.plan(context.fine_graph)
    print(f"plan:           {result.plan.describe()}")
    if not result.feasible:
        print("warning: no plan meets the constraint; showing best effort")
    print()
    print(render_plan(result.estimate, board))
    return 0


def _command_simulate(args) -> int:
    from repro.runtime.executor import ExecutionConfig, PipelineExecutor

    board = _BOARDS[args.board]()
    harness = Harness(board=board, repetitions=args.repetitions)
    spec = WorkloadSpec.of(
        args.codec, args.dataset, latency_constraint=args.latency_constraint
    )
    result = harness.run(spec, args.mechanism)
    print(f"{args.mechanism} on {spec.label} ({board.name}):")
    print(f"  energy:  {result.mean_energy_uj_per_byte:.3f} µJ/byte")
    print(f"  latency: {result.mean_latency_us_per_byte:.2f} µs/byte "
          f"(L_set {args.latency_constraint})")
    print(f"  CLCV:    {result.clcv:.2f} over {args.repetitions} runs")
    if args.gantt:
        context = harness.context(spec)
        outcome = get_mechanism(args.mechanism).prepare(context)
        profile = harness.profile(spec)
        executor = PipelineExecutor(
            board,
            ExecutionConfig(
                latency_constraint_us_per_byte=args.latency_constraint,
                repetitions=1,
                batches_per_repetition=5,
            ),
        )
        per_batch = (list(profile.per_batch_step_costs) * 5)[:5]
        executor.run(
            outcome.plan,
            per_batch,
            profile.batch_size_bytes,
            dynamics=outcome.dynamics,
        )
        print()
        print(render_gantt(executor.last_trace, board))
    return 0


def _resolve_trace_cell(target):
    """``['fig7']`` or ``['tcomp32', 'rovio']`` → (codec, dataset)."""
    if len(target) == 1:
        alias = target[0].lower()
        if alias in _EXPERIMENT_CELLS:
            return _EXPERIMENT_CELLS[alias]
        raise ReproError(
            f"unknown experiment {target[0]!r}; pass CODEC DATASET or one "
            f"of: {', '.join(sorted(_EXPERIMENT_CELLS))}"
        )
    if len(target) == 2:
        codec, dataset = target
        if codec not in CODEC_NAMES:
            raise ReproError(f"unknown codec {codec!r}")
        if dataset not in DATASET_NAMES:
            raise ReproError(f"unknown dataset {dataset!r}")
        return codec, dataset
    raise ReproError("trace takes one experiment id or 'CODEC DATASET'")


def _command_trace(args) -> int:
    from repro.obs.export import write_chrome_trace

    codec, dataset = _resolve_trace_cell(args.target)
    board = _BOARDS[args.board]()
    harness = Harness(board=board, repetitions=args.repetitions)
    spec_overrides = {"latency_constraint": args.latency_constraint}
    if args.batch_bytes is not None:
        spec_overrides["batch_size"] = args.batch_bytes
    spec = WorkloadSpec.of(codec, dataset, **spec_overrides)
    config_overrides = {}
    if args.governor is not None:
        config_overrides["governor"] = args.governor
    result, recorder = harness.run_traced(
        spec,
        args.mechanism,
        repetitions=args.repetitions,
        process_events=args.process_events,
        **config_overrides,
    )
    out = args.out or f"{spec.label}-{args.mechanism}.trace.json"
    write_chrome_trace(recorder, out, board=board)
    print(f"{args.mechanism} on {spec.label} ({board.name}):")
    print(f"  energy:  {result.mean_energy_uj_per_byte:.3f} µJ/byte")
    print(f"  latency: {result.mean_latency_us_per_byte:.2f} µs/byte")
    print()
    print(result.trace_summary.format(board=board))
    print()
    print(f"wrote {recorder.summary().event_count} events to {out} "
          "(open in https://ui.perfetto.dev or chrome://tracing)")
    if args.gantt:
        print()
        print(render_gantt(recorder, board))
    return 0


def _command_bench(args) -> int:
    from repro.bench.__main__ import main as bench_main

    argv = []
    if args.experiment:
        argv.append(args.experiment)
    if args.repetitions is not None:
        argv += ["--repetitions", str(args.repetitions)]
    if args.jobs is not None:
        argv += ["--jobs", str(args.jobs)]
    if args.chunk is not None:
        argv += ["--chunk", str(args.chunk)]
    if args.cache_dir is not None:
        argv += ["--cache-dir", args.cache_dir]
    if args.trace_dir is not None:
        argv += ["--trace-dir", args.trace_dir]
    if args.output != "results.md":
        argv += ["--output", args.output]
    return bench_main(argv)


def _print_health(health) -> None:
    if health is None:
        return
    anomalous = health.anomalous_windows()
    if not anomalous:
        print("  health: nominal (no anomalous windows)")
        return
    for window in anomalous:
        attribution = window.attribution
        print(
            f"  window {window.window_index}: "
            f"{attribution.describe()} "
            f"(score {attribution.score:.1f}, "
            f"confidence {attribution.confidence:.2f}, "
            f"residual {attribution.residual_us_per_byte:+.4f} µs/byte)"
        )
    dominant = health.dominant()
    if dominant is not None:
        print(
            f"  health verdict: {dominant.describe()} "
            f"(score {dominant.score:.1f})"
        )


def _write_health(health, path: str) -> None:
    from repro.obs.live import NdjsonTail

    if health is None:
        print(f"no health report to write to {path}", file=sys.stderr)
        return
    with open(path, "w", encoding="utf-8") as stream:
        NdjsonTail(stream).emit_session(health)
    print(f"wrote {len(health.windows)} health windows to {path}")


def _command_adapt(args) -> int:
    from repro.control import (
        ControllerConfig,
        SessionSpec,
        run_adaptive_session,
    )
    from repro.obs.trace import TraceRecorder

    board = _BOARDS[args.board]()
    harness = Harness(board=board)
    spec = SessionSpec(
        codec=args.codec,
        scenario=args.scenario,
        batches=args.batches,
        window_batches=args.window,
        latency_constraint=args.latency_constraint,
        low_range=args.low_range,
        high_range=args.high_range,
        controller=ControllerConfig(horizon_windows=args.horizon),
    ).for_board(board)
    recorder = TraceRecorder() if args.out is not None else None
    telemetry = args.telemetry or args.health_out is not None
    comparison = run_adaptive_session(
        harness, spec, trace=recorder, telemetry=telemetry
    )
    print(
        f"{spec.codec} on drifting micro ({spec.scenario}, "
        f"range {spec.low_range} -> {spec.high_range}, "
        f"L_set={spec.latency_constraint} µs/byte, {board.name}):"
    )
    rows = [
        ("", "static", "adaptive"),
        (
            "energy (µJ/byte)",
            f"{comparison.static_energy_uj_per_byte:.4f}",
            f"{comparison.adaptive_energy_uj_per_byte:.4f}",
        ),
        (
            "violations",
            f"{comparison.static_violations}",
            f"{comparison.adaptive_violations}",
        ),
        (
            "steady-state violations",
            f"{comparison.static_steady_violations}",
            f"{comparison.adaptive_steady_violations}",
        ),
    ]
    for label, static_value, adaptive_value in rows:
        print(f"  {label:24s} {static_value:>10s} {adaptive_value:>10s}")
    print(
        f"  energy saving: {comparison.energy_saving:.1%}  "
        f"(replans: {comparison.adaptive.replans}, "
        f"adopted: {comparison.adaptive.plans_adopted}, "
        f"warm-start hits: {comparison.warm_start_hits})"
    )
    for event in comparison.controller_events:
        verdict = "adopt" if event.adopted else "keep"
        print(
            f"  window {event.window_index}: {verdict} ({event.reason}; "
            f"incumbent {event.incumbent_energy_uj_per_byte:.3f} vs "
            f"candidate {event.candidate_energy_uj_per_byte:.3f} µJ/byte, "
            f"pause {event.migration_pause_us / 1000.0:.1f} ms)"
        )
    if telemetry:
        _print_health(comparison.health)
    if args.health_out is not None:
        _write_health(comparison.health, args.health_out)
    if recorder is not None:
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(recorder, args.out, board=board)
        print(
            f"wrote {recorder.summary().event_count} events to {args.out} "
            f"({recorder.replans} replans, "
            f"{recorder.plan_migrations} migrations)"
        )
    return 0


def _command_chaos(args) -> int:
    from repro.faults.chaos import ChaosSpec, run_chaos_session
    from repro.obs.trace import TraceRecorder

    board = _BOARDS[args.board]()
    harness = Harness(board=board)
    spec = ChaosSpec(
        codec=args.codec,
        dataset=args.dataset,
        scenario=args.scenario,
        batches=args.batches,
        window_batches=args.window,
        fault_batch=args.fault_batch,
        latency_margin=args.margin,
        corruption_probability=args.corruption_probability,
    )
    recorder = TraceRecorder() if args.out is not None else None
    comparison = run_chaos_session(harness, spec, trace=recorder)
    print(
        f"{spec.codec}/{spec.dataset} under {spec.scenario} on "
        f"{board.name} (victim core {comparison.victim_core}, "
        f"L_set={comparison.l_set_us_per_byte:.2f} µs/byte):"
    )

    def _recovery(value) -> str:
        if value is None:
            return "-"
        return f"{value / 1000.0:.0f} ms"

    rows = [
        ("", "static", "adaptive"),
        (
            "violations",
            f"{comparison.static_violations}",
            f"{comparison.adaptive_violations}",
        ),
        (
            "steady-state violations",
            f"{comparison.static_steady_violations}",
            f"{comparison.adaptive_steady_violations}",
        ),
        (
            "recovery latency",
            _recovery(comparison.static_recovery_us),
            _recovery(comparison.adaptive_recovery_us),
        ),
        (
            "energy overhead",
            f"{comparison.static_energy_overhead:.1%}",
            f"{comparison.adaptive_energy_overhead:.1%}",
        ),
    ]
    for label, static_value, adaptive_value in rows:
        print(f"  {label:24s} {static_value:>10s} {adaptive_value:>10s}")
    for event in comparison.failover_events:
        print(
            f"  window {event.window_index}: failover "
            f"(dead cores {list(event.failed_cores)}, "
            f"throttled {list(event.throttled_cores)}, "
            f"pause {event.pause_us / 1000.0:.1f} ms)"
        )
    _print_health(comparison.health)
    if args.health_out is not None:
        _write_health(comparison.health, args.health_out)
    print(f"  final adaptive plan: {comparison.adaptive.final_plan_description}")
    if recorder is not None:
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(recorder, args.out, board=board)
        print(
            f"wrote {recorder.summary().event_count} events to {args.out} "
            f"({recorder.core_failures} core failures, "
            f"{recorder.corrupted_batches} corrupted batches, "
            f"{recorder.batch_retries} retries)"
        )
    return 0


def _command_serve(args) -> int:
    from repro.fleet.scenario import (
        FleetScenarioSpec,
        run_fleet_arm,
        run_fleet_scenario,
        summarize_arm,
    )
    from repro.obs.live import render_top

    spec = FleetScenarioSpec(
        boards=args.boards,
        tenants=args.tenants,
        windows=args.windows,
        scenario=args.scenario,
        fault_board=args.fault_board,
        at_window=args.at_window,
        seed=args.seed,
    )
    print(
        f"fleet: {spec.boards} boards, {spec.tenants} tenants, "
        f"{spec.windows} windows, scenario {spec.scenario} "
        f"(board {spec.fault_board} at window {spec.at_window}), "
        f"seed {spec.seed}"
    )

    def _summary_row(summary) -> str:
        lag = (
            f"{summary.failover_lag_windows}w"
            if summary.failover_lag_windows is not None else "-"
        )
        return (
            f"  {summary.arm:14s} adm={summary.tenants_admitted} "
            f"rej={summary.tenants_rejected} "
            f"viol={summary.total_violations} "
            f"steady={summary.steady_violations} "
            f"sheds={summary.sheds} failovers={summary.failovers} "
            f"lag={lag} energy={summary.energy_uj:.0f}µJ"
        )

    if args.compare:
        comparison = run_fleet_scenario(spec)
        for summary in comparison.summaries:
            print(_summary_row(summary))
        health = comparison.healths[args.arm]
    else:
        health = run_fleet_arm(spec, args.arm)
        print(_summary_row(summarize_arm(health, spec)))
    if args.top:
        print(render_top(health, limit=8))
    if args.health_out is not None:
        with open(args.health_out, "w", encoding="utf-8") as stream:
            stream.write(health.to_json())
        print(
            f"wrote fleet health ({health.arm}, "
            f"{len(health.windows)} windows, "
            f"{len(health.events)} events) to {args.health_out}"
        )
    return 0


def _command_top(args) -> int:
    import time

    from repro.obs.health import (
        FleetHealth,
        SessionHealth,
        TailHeader,
        WindowHealth,
        from_record,
        read_artifact,
    )
    from repro.obs.live import prometheus_text, render_top

    def _load():
        """The report in a full health JSON, or an NDJSON tail's windows
        as the session its header names (without a header: labelled
        with the file name, no constraint)."""
        kind, payload = read_artifact(args.health)
        if kind == "fleet":
            return from_record(FleetHealth, payload)
        if kind == "session":
            return from_record(SessionHealth, payload)
        if kind == "trace":
            raise ReproError(f"{args.health} is a trace, not a health report")
        header = (
            TailHeader(os.path.basename(args.health), "unknown", 0.0)
            if payload.header is None
            else from_record(TailHeader, payload.header)
        )
        return SessionHealth(
            label=header.label,
            board=header.board,
            latency_constraint_us_per_byte=(
                header.latency_constraint_us_per_byte
            ),
            windows=tuple(
                from_record(WindowHealth, r) for r in payload.windows
            ),
        )

    def _render_once() -> None:
        report = _load()
        print(render_top(report, limit=args.limit))
        if args.prom is not None:
            with open(args.prom, "w", encoding="utf-8") as stream:
                stream.write(prometheus_text(report))

    if not args.follow:
        _render_once()
        return 0
    try:
        while True:
            print("\x1b[2J\x1b[H", end="")
            _render_once()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _command_analyze(args) -> int:
    import repro
    from repro.analysis import lint, verify

    paths = args.paths or [os.path.dirname(repro.__file__)]
    lint_args = list(paths)
    if args.as_json:
        lint_args.append("--json")
    if args.report:
        lint_args += ["--report", args.report]
    status = lint.main(lint_args)
    if args.trace:
        verify_args = list(args.trace)
        if args.as_json:
            verify_args.append("--json")
        if args.strict:
            verify_args.append("--strict")
        status = max(status, verify.main(verify_args))
    return status


def _command_boards(args) -> int:
    for name, factory in sorted(_BOARDS.items()):
        board = factory()
        little = len(board.little_core_ids)
        big = len(board.big_core_ids)
        print(f"{name:10s} {board.name} — {little} little + {big} big cores")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "compress": _command_compress,
        "decompress": _command_decompress,
        "plan": _command_plan,
        "simulate": _command_simulate,
        "trace": _command_trace,
        "bench": _command_bench,
        "adapt": _command_adapt,
        "chaos": _command_chaos,
        "serve": _command_serve,
        "top": _command_top,
        "analyze": _command_analyze,
        "boards": _command_boards,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
