"""End-to-end host-time benchmark of the CStream reproduction.

    python3 benchmarks/e2e/run.py                  # all workloads, 5 repeats
    python3 benchmarks/e2e/run.py --trace          # plus a traced repeat each
    python3 benchmarks/e2e/run.py --workload fleet --seed 3 --seconds 30 --trace 0
    python3 benchmarks/e2e/run.py --out a.json     # record for compare.py

Method, fixed on every commit: every repeat is one cold child process
(``child.py``: fresh imports, no profile or calibration memo) running
one workload's ops serially — a closed loop with one client and
``jobs=1``. One discarded warm-up repeat per workload (at the quick
scale) precedes the measured rounds, which go round-robin across the
workloads: ``ROUNDS`` of them, or with ``--seconds`` as many as are
expected to end inside the budget (at least ``MIN_ROUNDS``). Before
the rounds, ``SETUP_LAUNCHES`` more cold children per workload stop
after their set-up, so ``setup_s`` is a median over several set-ups. With
``--trace`` every round adds, per workload, a repeat whose layer calls
are wrapped by the timing shims of ``spans.py``; its per-layer numbers,
and the first traced repeat's spans in ``TRACE_FILE`` (Chrome
trace-event JSON), come from those repeats, while the end-to-end
numbers come from the untraced ones only.

Correctness, checked outside the timed region: an op fails if it
raises, if a repo verifier (TRC/HLT/FLT) reports an error on its
output, or if its output digest differs from ``reference.json`` (seed
0) or from the first repeat that ran it (other seeds).

The table gives every end-to-end metric per workload with its unit,
median, IQR and sample count over the measured repeats. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and the end-to-end metrics (or, with ``--trace 1``, the
per-layer metrics), prefixed by workload when several ran.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from spans import COUNT_NAMES, SPAN_NAMES, chrome_trace
from stats import iqr, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
REFERENCE = HERE / "reference.json"
SCRATCH = ROOT / ".e2e_bench"
TRACE_FILE = SCRATCH / "host-trace.json"

WORKLOADS = ("figgrid", "traced", "session", "fleet")

#: what one work item is on each workload
WORK_ITEMS = {
    "figgrid": "grid cells",
    "traced": "traced grid cells",
    "session": "control windows",
    "fleet": "tenant-windows",
}

#: end-to-end metrics and their units (bounds live in BENCHMARK.json)
END_TO_END = {
    "work_items_per_s": "1/s",
    "op_gmean_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: extra set-up-only launches per workload and run
SETUP_LAUNCHES = 10

#: measured rounds without a time budget
ROUNDS = 5
#: rounds a time budget runs at least
MIN_ROUNDS = 2
#: a ``--seconds`` run ends within this many seconds of its start
RUN_DEADLINE_S = 170.0
#: cap on one repeat without a time budget
REPEAT_TIMEOUT_S = 900.0


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def per_layer_units() -> Dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNT_NAMES)
    return units


def run_repeat(workload: str, seed: int, scale: str, timeout_s: float,
               flag: Optional[str] = None) -> dict:
    """One cold child process, ``flag`` ``--trace`` or ``--setup-only``
    when given; its JSON record."""
    SCRATCH.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH)
    # Program knobs stay at their defaults, and compiled bytecode is
    # cached under the scratch directory whatever the caller's settings.
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"
    }
    env["PYTHONPYCACHEPREFIX"] = str(SCRATCH / "pycache")
    try:
        command = [
            sys.executable, str(HERE / "child.py"),
            workload, str(seed), scale, scratch, repr(time.monotonic()),
        ] + ([flag] if flag else [])
        completed = subprocess.run(
            command, capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(timeout_s, 1.0),
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{workload} repeat ran past {timeout_s:.0f}s") from error
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} repeat exited {completed.returncode}:\n"
            + completed.stderr[-2000:]
        )
    return json.loads(lines[-1])


class Checker:
    """Counts attempted and failed ops against the expected digests."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.reference = (
            json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        )
        #: (scale, workload, op id) -> first digest seen (seeds other than 0)
        self.first_seen: Dict[tuple, str] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def expected(self, scale: str, workload: str, op: dict) -> Optional[str]:
        if self.seed == 0:
            return self.reference.get(scale, {}).get(workload, {}).get(op["id"])
        key = (scale, workload, op["id"])
        if op["digest"] is not None:  # an op that raised sets no expectation
            self.first_seen.setdefault(key, op["digest"])
        return self.first_seen.get(key)

    def check(self, scale: str, workload: str, record: dict) -> None:
        for op in record["ops"]:
            self.attempted += 1
            problems = list(op["problems"])
            expected = self.expected(scale, workload, op)
            if op["digest"] is not None and op["digest"] != expected:
                problems.append(
                    f"digest {op['digest'][:12]} != expected "
                    f"{expected[:12] if expected else None}"
                )
            if problems:
                self.failures.append(f"{workload}/{op['id']}: {problems[0]}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def measure(workloads, seed: int, scale: str, traced: bool,
            seconds: Optional[float], checker: Checker) -> dict:
    """Warm-up, then interleaved rounds; every child record by workload."""
    started = time.monotonic()

    def timeout() -> float:
        if seconds is None:
            return REPEAT_TIMEOUT_S
        return RUN_DEADLINE_S - (time.monotonic() - started)

    def repeat(workload: str, repeat_scale: str, flag: Optional[str] = None) -> dict:
        record = run_repeat(workload, seed, repeat_scale, timeout(), flag)
        checker.check(repeat_scale, workload, record)
        return record

    for workload in workloads:
        repeat(workload, "quick")
    records = {w: {"untraced": [], "traced": [], "setup": []} for w in workloads}
    for _ in range(SETUP_LAUNCHES):
        for workload in workloads:
            records[workload]["setup"].append(repeat(workload, scale, "--setup-only"))
    budget_start = time.monotonic()
    round_s: List[float] = []
    while True:
        if seconds is None:
            if len(round_s) >= ROUNDS:
                break
        elif len(round_s) >= MIN_ROUNDS:
            projected = time.monotonic() + statistics.median(round_s)
            if projected - budget_start > seconds:
                break
        round_start = time.monotonic()
        for workload in workloads:
            records[workload]["untraced"].append(repeat(workload, scale))
            if traced:
                records[workload]["traced"].append(repeat(workload, scale, "--trace"))
        round_s.append(time.monotonic() - round_start)
    return records


def _summary(values: List[float], unit: str) -> dict:
    return {
        "unit": unit,
        "median": statistics.median(values),
        "iqr": iqr(values),
        "n": len(values),
        "samples": values,
    }


def end_to_end(records: List[dict], setups: List[dict]) -> Dict[str, dict]:
    """End-to-end metrics over the untraced repeats of one workload and,
    for ``setup_s``, the set-up-only launches too, from host-speed-adjusted
    times (see ``child.py``). ``op_gmean_ms`` is the geometric mean op
    time of a repeat: unlike its median it moves smoothly when ops of
    very different sizes trade places."""
    samples = {
        "work_items_per_s": [
            sum(op["units"] for op in r["ops"]) / sum(op["norm_s"] for op in r["ops"])
            for r in records
        ],
        "op_gmean_ms": [
            statistics.geometric_mean(op["norm_s"] for op in r["ops"]) * 1e3
            for r in records
        ],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
        "setup_s": [r["setup_norm_s"] for r in records + setups],
        "op_p50_ms": [
            statistics.median(op["norm_s"] for op in r["ops"]) * 1e3 for r in records
        ],
    }
    units = dict(END_TO_END, op_p50_ms="ms")
    tails = [
        tail_percentile([op["norm_s"] * 1e3 for op in r["ops"]], 90) for r in records
    ]
    if None not in tails:
        samples["op_p90_ms"] = tails
        units["op_p90_ms"] = "ms"
    return {name: _summary(values, units[name]) for name, values in samples.items()}


def per_layer(untraced: List[dict], traced: List[dict]) -> Dict[str, dict]:
    """Per-layer metrics: medians over the traced repeats, plus the
    host diagnostics read off the untraced ones."""
    units = per_layer_units()
    metrics = {
        name: _summary([r["layers"][name] for r in traced], unit)
        for name, unit in units.items()
        if not name.startswith("host.")
    }

    def total(record: dict, key: str) -> float:
        return sum(op[key] for op in record["ops"])

    untraced_s = statistics.median(total(r, "norm_s") for r in untraced)
    metrics["host.cpu_s"] = _summary([total(r, "cpu_s") for r in untraced], "s")
    metrics["host.offcpu_frac"] = _summary(
        [1.0 - total(r, "cpu_s") / total(r, "wall_s") for r in untraced], "ratio"
    )
    metrics["host.kernel_ms"] = _summary(
        [statistics.median(r["kernel_s"]) * 1e3 for r in untraced], "ms"
    )
    metrics["host.trace_overhead"] = _summary(
        [total(r, "norm_s") / untraced_s for r in traced], "ratio"
    )
    return metrics


def write_reference(workloads, scale: str) -> None:
    """Record seed 0's digests at ``scale`` in ``reference.json``."""
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for workload in workloads:
        record = run_repeat(workload, 0, scale, REPEAT_TIMEOUT_S)
        problems = [p for op in record["ops"] for p in op["problems"]]
        if problems:
            raise BenchError(f"{workload}: {problems[0]}")
        reference.setdefault(scale, {})[workload] = {
            op["id"]: op["digest"] for op in record["ops"]
        }
        print(f"{workload}: {len(record['ops'])} digests at scale {scale}")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def print_table(results: Dict[str, dict]) -> None:
    print(f"{'workload':9} {'metric':42} {'unit':6} {'median':>12} {'IQR':>12} {'n':>3}")
    for workload, result in results.items():
        for section in ("end_to_end", "per_layer"):
            for name, metric in result.get(section, {}).items():
                print(
                    f"{workload:9} {name:42} {metric['unit']:6} "
                    f"{metric['median']:12.6g} {metric['iqr']:12.6g} {metric['n']:3d}"
                )
        print(f"{workload:9} work item: {WORK_ITEMS[workload]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget of the measured rounds "
                        f"(default: {ROUNDS} rounds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add traced repeats and report per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test scale (not a measurement)")
    parser.add_argument("--out", default=None,
                        help="write every sample as JSON, for compare.py")
    parser.add_argument("--write-reference", action="store_true",
                        help="record seed 0's output digests and exit")
    args = parser.parse_args(argv)
    workloads = tuple(args.workload or WORKLOADS)
    scale = "quick" if args.quick else "full"

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            write_reference(workloads, scale)
            return 0
        checker = Checker(args.seed)
        records = measure(workloads, args.seed, scale, bool(args.trace),
                          args.seconds, checker)
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1

    results = {}
    for workload in workloads:
        untraced = records[workload]["untraced"]
        results[workload] = {
            "end_to_end": end_to_end(untraced, records[workload]["setup"])
        }
        if args.trace:
            results[workload]["per_layer"] = per_layer(
                untraced, records[workload]["traced"]
            )
    print_table(results)
    fail_ratio = checker.failed / checker.attempted
    print(f"fail_ratio {checker.failed}/{checker.attempted} = {fail_ratio:g}")
    for failure in checker.failures[:10]:
        print(f"  FAILED {failure}")

    if args.trace:
        tracks = [(w, records[w]["traced"][0]["spans"]) for w in workloads]
        TRACE_FILE.write_text(json.dumps(chrome_trace(tracks)) + "\n")
        print(f"wrote {TRACE_FILE}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed,
            "scale": scale,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "workloads": results,
        }, indent=1) + "\n")
        print(f"wrote {args.out}")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for workload, result in results.items():
        prefix = "" if len(workloads) == 1 else f"{workload}."
        for name, metric in result[section].items():
            if section == "end_to_end" and name not in END_TO_END:
                continue
            metrics[prefix + name] = {"value": metric["median"], "unit": metric["unit"]}
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
