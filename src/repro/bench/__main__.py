"""CLI: regenerate the paper's tables and figures.

Usage::

    python -m repro.bench            # list experiments
    python -m repro.bench fig7       # run one
    python -m repro.bench all        # run everything
    python -m repro.bench fig7 --repetitions 20
    python -m repro.bench all --jobs 4 --cache-dir ~/.cache/cstream

``--jobs N`` (or ``REPRO_PARALLEL=N``) computes grid cells on N worker
processes; ``--cache-dir`` (or ``REPRO_CACHE_DIR``) persists results so
re-running an experiment is a cache read. Also reachable as
``cstream bench ...``.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time

from repro.bench import EXPERIMENTS, run_experiment
from repro.bench.harness import Harness


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="regenerate the CStream paper's tables and figures",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help="experiment id (fig3, fig5, fig7-17, tab2/4/5, abl_*), "
        "'all', or 'report'",
    )
    parser.add_argument(
        "--output",
        default="results.md",
        help="report output path (only with 'report')",
    )
    parser.add_argument(
        "--repetitions",
        type=int,
        default=None,
        help="measurement repetitions per cell (default: paper's 100)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for grid cells (default: REPRO_PARALLEL, "
        "else serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent result-cache directory (default: REPRO_CACHE_DIR, "
        "else no persistent cache)",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="write a Chrome trace JSON per computed cell into this "
        "directory (default: REPRO_TRACE_DIR, else no tracing)",
    )
    return parser


def _build_harness(args) -> "Harness | None":
    """One harness shared by every experiment of this invocation, so
    overlapping grids (fig7/fig8) and profiles are computed once.

    Returns None when none of ``--jobs``/``--cache-dir``/``--trace-dir``
    was given, nor ``--repetitions`` for ``report`` (which runs every
    experiment on this harness): experiments then use the process-wide
    :func:`default_harness` (which still honours ``REPRO_PARALLEL`` /
    ``REPRO_CACHE_DIR`` / ``REPRO_TRACE_DIR``).
    """
    kwargs = {}
    if args.jobs is not None:
        kwargs["jobs"] = args.jobs
    if args.experiment == "report" and args.repetitions is not None:
        kwargs["repetitions"] = args.repetitions
    if args.cache_dir is not None:
        from repro.bench.cache import ResultCache

        kwargs["cache"] = ResultCache(args.cache_dir)
    if args.trace_dir is not None:
        kwargs["trace_dir"] = args.trace_dir
    return Harness(**kwargs) if kwargs else None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if not args.experiment:
        print("available experiments:")
        for experiment_id, function in EXPERIMENTS.items():
            summary = (function.__doc__ or "").strip().splitlines()[0]
            print(f"  {experiment_id:6s} {summary}")
        return 0

    harness = _build_harness(args)

    if args.experiment == "report":
        from repro.bench.report import generate_report

        generate_report(args.output, harness=harness)
        print(f"report written to {args.output}")
        return 0

    ids = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment {unknown[0]!r}; known: "
            f"{', '.join(EXPERIMENTS)} (or 'all', 'report')",
            file=sys.stderr,
        )
        return 2
    for experiment_id in ids:
        start = time.time()
        options = {}
        signature = inspect.signature(EXPERIMENTS[experiment_id])
        if args.repetitions is not None and "repetitions" in signature.parameters:
            options["repetitions"] = args.repetitions
        if harness is not None and "harness" in signature.parameters:
            options["harness"] = harness
        result = run_experiment(experiment_id, **options)
        print(result.render())
        print(f"[{experiment_id} took {time.time() - start:.1f}s]\n")
        if harness is not None and harness.cache is not None:
            stats = harness.cache.stats
            print(
                f"[cache: {stats.hits} hits / {stats.lookups} lookups, "
                f"{stats.stores} stored]\n"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
