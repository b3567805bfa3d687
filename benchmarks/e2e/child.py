"""One cold repeat of one workload; ``run.py`` starts it in a fresh process.

    python benchmarks/e2e/child.py WORKLOAD SEED SCALE SCRATCH LAUNCHED_AT [--trace | --setup-only]

Imports the program from ``src/`` of the checkout this file sits in,
builds the workload's ops, runs them back to back, and prints one JSON
object: set-up time (``LAUNCHED_AT``, the parent's ``time.monotonic()``
just before the launch, to the first op), peak RSS, and per op its wall
and CPU time, work units, output digest and verifier findings. Units,
digests and findings are taken after the timed region. ``--trace``
wraps the layer targets of ``spans.py`` around the ops and adds the
per-layer metrics and long spans; ``--setup-only`` stops after the
set-up.

Host speed: on a shared host the same op can take 65% longer from one
minute to the next, with CPU time rising alongside, because neighbours
compete for the physical cores. The child therefore times
:func:`kernel`, a fixed pure-Python loop that shares nothing with the
program: before the imports, after the set-up, after every op, and
from a timer signal every ``OP_PROBE_S`` inside every op of an
untraced repeat (the handler's time is taken out of the op's). Set-up
and op wall times are also reported scaled by ``REFERENCE_KERNEL_S``
over the mean kernel time around and inside them: their time on a host
where the kernel takes ``REFERENCE_KERNEL_S``.

The kernel is timed in CPU seconds of the main thread, not in wall
seconds. A slower host makes those grow. Program threads or processes
that keep the main thread off the cores while the signal handler runs
do not, so work the program moves onto other cores shows as a gain.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: the kernel's CPU time on this repository's reference host (2-vCPU
#: shared x86 VM, Python 3.11) when neighbours are quiet
REFERENCE_KERNEL_S = 0.005
#: kernel passes per speed sample between ops (their median is the sample)
KERNEL_PASSES = 3
#: wall seconds between kernel passes inside an untraced op
OP_PROBE_S = 0.1


def kernel() -> float:
    """Fixed work for the host-speed probe: dict updates and float
    arithmetic. It imports nothing, so the pass before the program's
    imports leaves all of their cost to the set-up."""
    table = {}
    total = 0.0
    for i in range(18_000):
        key = i % 61
        table[key] = table.get(key, 0.0) + i / (key + 1.0)
        total += table[key] % 7.0
    return total


def kernel_time() -> float:
    """CPU seconds of the calling thread for one kernel pass."""
    started = time.thread_time()
    kernel()
    return time.thread_time() - started


def kernel_sample() -> float:
    return statistics.median(kernel_time() for _ in range(KERNEL_PASSES))


class Probe:
    """Times one kernel pass every ``interval_s`` of wall time while
    armed, from a ``SIGALRM`` handler on the main thread."""

    def __init__(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        self.samples = []
        #: wall seconds the handler took since the last :meth:`take`
        self.paused_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        started = time.perf_counter()
        self.samples.append(kernel_time())
        self.paused_s += time.perf_counter() - started

    def arm(self, interval_s: float) -> None:
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def take(self):
        """(samples, handler seconds) since the last call."""
        taken = (self.samples, self.paused_s)
        self.samples, self.paused_s = [], 0.0
        return taken


def _import_program():
    """``repro`` from this checkout's ``src/``, never an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"repro imported from {source}, not {ROOT / 'src'}")


def _directory_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(path)
        for name in names
    )


def _check(op, result, error):
    """(units, digest, problems) of a finished op; never raises."""
    if error is not None:
        return 0, None, [error]
    from workloads import digest

    try:
        return op.units(result), digest(op.outputs(result)), op.problems(result)
    except Exception:  # a broken result is a failed op, not a crash
        return 0, None, ["check raised: " + traceback.format_exc(limit=3)]


def main(argv) -> int:
    workload, seed, scale, scratch, launched_at = argv[:5]
    traced = "--trace" in argv[5:]
    setup_only = "--setup-only" in argv[5:]
    started = time.perf_counter()
    kernel_s = [kernel_sample()]
    paused_s = time.perf_counter() - started
    _import_program()
    from spans import Tracer, layer_metrics
    from workloads import build_ops

    ops = build_ops(workload, int(seed), scale, scratch)
    tracer = Tracer().install() if traced else None
    setup_s = time.monotonic() - float(launched_at) - paused_s
    kernel_s.append(kernel_sample())
    setup_speed = REFERENCE_KERNEL_S / statistics.fmean(kernel_s)
    if setup_only:
        ops = []

    probe = Probe()
    timings = []
    for op in ops:
        if tracer is not None:
            tracer.op_id = op.op_id
        result, error = None, None
        started_cpu = time.process_time()
        started = time.perf_counter()
        if not traced:  # the probe's passes would land in the spans
            probe.arm(OP_PROBE_S)
        try:
            result = op.run()
        except Exception:  # recorded as a failed op; the repeat goes on
            error = "raised: " + traceback.format_exc(limit=3)
        probe.disarm()
        wall_s = time.perf_counter() - started
        cpu_s = time.process_time() - started_cpu
        inside, paused_s = probe.take()
        around = [kernel_s[-1], *inside, kernel_sample()]
        kernel_s.extend(around[1:])
        speed = REFERENCE_KERNEL_S / statistics.fmean(around)
        timings.append((op, result, error, wall_s - paused_s, cpu_s - paused_s, speed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    record = {
        "setup_s": setup_s,
        "setup_norm_s": setup_s * setup_speed,
        "peak_rss_mb": peak_rss_mb,
        "kernel_s": kernel_s,
        "ops": [],
    }
    for op, result, error, wall_s, cpu_s, speed in timings:
        units, output_digest, problems = _check(op, result, error)
        record["ops"].append({
            "id": op.op_id,
            "wall_s": wall_s,
            "norm_s": wall_s * speed,
            "cpu_s": cpu_s,
            "units": units,
            "digest": output_digest,
            "problems": problems,
        })
    if tracer is not None:
        cache = os.path.join(scratch, "cache")
        put_bytes = _directory_bytes(cache) if os.path.isdir(cache) else 0
        record["layers"] = layer_metrics(tracer, put_bytes)
        record["spans"] = [asdict(span) for span in tracer.spans]
    json.dump(record, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
