"""Which functions of ``src/repro`` no entry point of the system reaches.

    PYTHONPATH=src python benchmarks/reach_audit.py              # check
    PYTHONPATH=src python benchmarks/reach_audit.py --only examples/quickstart.py

Each entry point runs in its own child process under a ``sys.setprofile``
call recorder (stdlib only; no coverage package needed), in one scratch
directory so later commands can read what earlier ones wrote. A worker
process the command forks records itself too, and writes what it saw
when it exits. The parent merges the recorded code objects and prints
every function defined in ``src/repro`` that none of them called, with
its line count (a function nested in an unreached one is counted in its
parent). The entry points are every command the README documents: the
report (every experiment at two repetitions), a grid run with ``--jobs
2``, a cache and a trace directory, ``cstream bench``, each codec's
file round trip, ``plan``, ``simulate --gantt``, ``trace``, ``adapt``,
``chaos``, ``serve``, ``top``, ``analyze`` and ``boards``; the four
``benchmarks/e2e`` workloads traced at their quick scale; the outcome
record; and the examples. The linter, the checker
and ``cstream top`` also get a few broken inputs, so their error paths
run as they do on a real mistake.

A full run compares the unreached set with ``reach_expected.txt`` next
to this file and exits 1 if they differ in either direction. That file
lists each function kept although no command reaches it, with its
reason (see ``KEPT_REASONS``); anything else no command reaches is
either a command this list misses or code to delete. ``--only`` runs a
subset and prints its table without the check. The full run takes about
35 s on a 2-vCPU x86 VM (the recorder slows calls down).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

EXPECTED = Path(__file__).with_name("reach_expected.txt")

#: why a function may stay on the expected list though no command reaches it
KEPT_REASONS = {
    "abstract-hook": "a base-class hook every subclass overrides",
    "pickle-protocol": "called by pickle, on a path no command takes",
    "e2e-name": "a name benchmarks/e2e wraps or reads",
    "lint-entry": "the linter's entry for source text, which tests feed",
}

CODECS = ("tcomp32", "lz4", "tdic32", "mltc", "unlz4")

#: inputs of the entry points, written into the scratch directory first:
#: a word-unaligned byte stream, two broken lint inputs, a malformed
#: health tail and a health report with a field missing
FIXTURES = {
    "stream.bin": bytes((i * 7 + i // 251) % 256 for i in range(10_002)),
    "lint_bad.py": "def f(xs=[], energy_uj=0.0, latency_us=0.0):\n"
                   "    return energy_uj + latency_us\n",
    "lint_broken.py": "def f(:\n",
    "bad.ndjson": '{"window_index": 0}\n',
    "bad.health.json": '{"label": "x", "board": "rk3399", "windows": []}\n',
}

ENTRY_POINTS = [
    ["-m", "repro.bench", "report", "--repetitions", "2", "--output",
     "report.md"],
    ["-m", "repro.bench", "fig7", "--repetitions", "2", "--jobs", "2",
     "--cache-dir", "cache", "--trace-dir", "traces"],
    ["-m", "repro", "bench", "dag", "--repetitions", "2"],
    *[["benchmarks/e2e/child.py", w, "0", "quick", ".", "0", "--trace"]
      for w in ("figgrid", "traced", "session", "fleet")],
    ["benchmarks/bench_outcomes.py", "--output", "outcomes.json"],
    *[[f"examples/{p.name}"] for p in sorted((ROOT / "examples").glob("*.py"))],
    *[argv for codec in CODECS for argv in (
        ["-m", "repro", "compress", codec, "stream.bin", f"{codec}.cs",
         "--batch-bytes", "4096"],
        ["-m", "repro", "decompress", codec, f"{codec}.cs", f"{codec}.out"],
    )],
    ["-m", "repro", "plan", "tcomp32", "rovio"],
    ["-m", "repro", "simulate", "tcomp32", "rovio", "--repetitions", "2",
     "--gantt"],
    ["-m", "repro", "boards"],
    ["-m", "repro", "trace", "fig7", "--mechanism", "OS", "--governor",
     "ondemand", "--repetitions", "1", "--batch-bytes", "8192",
     "--out", "os.trace.json"],
    ["-m", "repro", "trace", "lz4", "rovio", "--mechanism", "CStream",
     "--repetitions", "1", "--batch-bytes", "16384", "--process-events",
     "--gantt", "--out", "lz4.trace.json"],
    ["-m", "repro", "trace", "dag", "--repetitions", "1", "--batch-bytes",
     "8192", "--out", "dag.trace.json"],
    ["-m", "repro", "adapt", "--scenario", "phase-shift", "--out",
     "adaptive.trace.json"],
    ["-m", "repro", "chaos", "--scenario", "core-failure+corruption",
     "--out", "chaos.trace.json"],
    ["-m", "repro", "chaos", "--scenario", "interconnect", "--out",
     "link.trace.json", "--health-out", "link.health.ndjson"],
    *[["-m", "repro", "chaos", "--scenario", scenario, "--out",
       f"{scenario}.trace.json"] for scenario in ("stall", "throttle")],
    ["-m", "repro", "serve", "--compare", "--windows", "12", "--health-out",
     "fleet.health.json"],
    *[["-m", "repro", "serve", "--scenario", scenario, "--windows", "6"]
      for scenario in ("board-crash-reboot", "board-throttle")],
    ["-m", "repro", "top", "link.health.ndjson", "--prom", "link.prom",
     "--limit", "6"],
    ["-m", "repro", "top", "fleet.health.json", "--prom", "fleet.prom"],
    ["-m", "repro", "top", "bad.ndjson"],
    ["-m", "repro.analysis.verify", "os.trace.json", "lz4.trace.json",
     "dag.trace.json", "adaptive.trace.json", "chaos.trace.json",
     "link.trace.json", "stall.trace.json", "throttle.trace.json",
     "link.health.ndjson", "fleet.health.json", "bad.health.json"],
    ["-m", "repro", "analyze"],
    ["-m", "repro", "analyze", "lint_bad.py", "lint_broken.py"],
]


def record(out: str, argv: list) -> None:
    """Run one entry point in this process, recording every code object
    of ``src/repro`` that starts executing; write them to ``out``. A
    ``multiprocessing`` child forked on the way (a ``--jobs`` worker)
    keeps recording and writes its own set to ``out.<pid>`` at exit."""
    import multiprocessing.util

    prefix = str(SRC) + os.sep
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    def dump(path):
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(sorted(seen), stream)

    def in_child(_):
        sys.setprofile(profile)
        multiprocessing.util.Finalize(
            None, dump, args=(f"{out}.{os.getpid()}",), exitpriority=0
        )

    multiprocessing.util.register_after_fork(record, in_child)
    sys.argv = argv[1:] if argv[0] == "-m" else argv
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        if argv[0] == "-m":
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:  # as ``python SCRIPT``: its directory leads sys.path
            sys.path.insert(0, str((ROOT / argv[0]).parent))
            runpy.run_path(str(ROOT / argv[0]), run_name="__main__")
    except SystemExit:
        pass
    finally:
        sys.setprofile(None)
        dump(out)


def defined_functions():
    """``(file, first line, qualname, lines, enclosing key)`` of every
    def in ``src/repro``; the first line is the first decorator's, as
    in ``co_firstlineno``."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def walk(node, scope, parent):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno]
                                + [d.lineno for d in child.decorator_list])
                    key = (str(path), first)
                    name = ".".join(scope + [child.name])
                    yield key, name, child.end_lineno - first + 1, parent
                    yield from walk(child, scope + [child.name], key)
                elif isinstance(child, ast.ClassDef):
                    yield from walk(child, scope + [child.name], parent)
                else:
                    yield from walk(child, scope, parent)

        yield from walk(tree, [], None)


def qualified(path: str, name: str) -> str:
    """``repro/module.py::Qual.name``: a function as the table and the
    expected list name it."""
    return f"{Path(path).relative_to(SRC.parent)}::{name}"


def read_expected(path: Path = EXPECTED) -> dict:
    """``{"module::qualname": reason}`` of the expected list: one entry
    a line, the name then its reason; ``#`` starts a comment."""
    expected = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split("#", 1)[0].split()
        if fields:
            name, reason = fields
            expected[name] = reason
    return expected


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", action="append", metavar="ENTRY",
                        help="run only entry points whose command contains "
                             "ENTRY (repeatable); prints the table, no check")
    parser.add_argument("--record", nargs=argparse.REMAINDER,
                        help=argparse.SUPPRESS)  # child mode: OUT ARGV...
    args = parser.parse_args()
    if args.record:
        record(args.record[0], args.record[1:])
        return 0
    entries = [e for e in ENTRY_POINTS
               if not args.only or any(o in " ".join(e) for o in args.only)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    reached = set()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        for name, content in FIXTURES.items():
            mode = "wb" if isinstance(content, bytes) else "w"
            with open(os.path.join(scratch, name), mode) as stream:
                stream.write(content)
        for index, argv in enumerate(entries):
            out = os.path.join(scratch, f"reached-{index}.json")
            started = time.monotonic()
            subprocess.run(
                [sys.executable, __file__, "--record", out] + argv,
                cwd=scratch, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, check=False,
            )
            for path in Path(scratch).glob(f"reached-{index}.json*"):
                with open(path, encoding="utf-8") as stream:
                    reached.update(tuple(key) for key in json.load(stream))
            print(f"# {time.monotonic() - started:6.1f}s  {' '.join(argv)}",
                  file=sys.stderr)
    functions = list(defined_functions())
    unreached = {key for key, _, _, _ in functions if key not in reached}
    rows = [(qualified(key[0], name), lines)
            for key, name, lines, parent in functions
            if key in unreached and parent not in unreached]
    for name, lines in rows:
        print(f"{lines:5d}  {name}")
    print(f"{len(rows)} functions, {sum(r[1] for r in rows)} lines "
          f"never reached by {len(entries)} entry points")
    if args.only:
        return 0
    expected = read_expected()
    found = {name for name, _ in rows}
    unexpected = sorted(found - set(expected))
    stale = sorted(set(expected) - found)
    for name in unexpected:
        print(f"unreached, not on {EXPECTED.name}: {name}")
    for name in stale:
        print(f"on {EXPECTED.name}, but reached or gone: {name}")
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main())
