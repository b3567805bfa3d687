"""Which functions of ``src/repro`` no entry point of the system reaches.

    PYTHONPATH=src python benchmarks/reach_audit.py              # every entry point
    PYTHONPATH=src python benchmarks/reach_audit.py --only examples/quickstart.py

Each entry point runs in its own child process under a ``sys.setprofile``
call recorder (stdlib only; no coverage package needed), in one scratch
directory so later commands can read what earlier ones wrote. The
parent merges the recorded code objects and prints every function
defined in ``src/repro`` that none of them called, with its line count
(a function nested in an unreached one is counted in its parent). The
entry points are the paper grid at two repetitions, the four
``benchmarks/e2e`` workloads at their quick scale, the outcome record,
the examples and CI's smoke commands. A function that only tests call
shows up here; one behind a CLI command or flag this list does not use
does too, so read the table against the commands before deleting.
The full run takes tens of minutes (the recorder slows calls down).
DESIGN.md keeps the last table, so the next audit is a diff.
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

ENTRY_POINTS = [
    ["-m", "repro.bench", "all", "--repetitions", "2"],
    *[["benchmarks/e2e/child.py", w, "0", "quick", ".", "0"]
      for w in ("figgrid", "traced", "session", "fleet")],
    ["benchmarks/bench_outcomes.py", "--output", "outcomes.json"],
    *[[f"examples/{p.name}"] for p in sorted((ROOT / "examples").glob("*.py"))],
    ["-m", "repro", "trace", "fig7", "--mechanism", "OS", "--governor",
     "ondemand", "--repetitions", "1", "--batch-bytes", "8192",
     "--out", "os.trace.json"],
    ["-m", "repro", "trace", "lz4", "rovio", "--mechanism", "CStream",
     "--repetitions", "1", "--batch-bytes", "16384", "--out", "lz4.trace.json"],
    ["-m", "repro", "trace", "dag", "--repetitions", "1", "--batch-bytes",
     "8192", "--out", "dag.trace.json"],
    ["-m", "repro", "adapt", "--scenario", "phase-shift", "--out",
     "adaptive.trace.json"],
    ["-m", "repro", "chaos", "--scenario", "core-failure+corruption",
     "--out", "chaos.trace.json"],
    ["-m", "repro", "chaos", "--scenario", "interconnect", "--health-out",
     "link.health.ndjson"],
    ["-m", "repro", "serve", "--compare", "--windows", "12", "--health-out",
     "fleet.health.json"],
    ["-m", "repro", "top", "link.health.ndjson", "--prom", "link.prom"],
    ["-m", "repro", "top", "fleet.health.json", "--prom", "fleet.prom"],
    ["-m", "repro.analysis.verify", "os.trace.json", "lz4.trace.json",
     "dag.trace.json", "adaptive.trace.json", "chaos.trace.json",
     "link.health.ndjson", "fleet.health.json"],
    ["-m", "repro", "analyze"],
]


def record(out: str, argv: list) -> None:
    """Run one entry point in this process, recording every code object
    of ``src/repro`` that starts executing; write them to ``out``."""
    prefix = str(SRC) + os.sep
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

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
        with open(out, "w", encoding="utf-8") as stream:
            json.dump(sorted(seen), stream)


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", action="append", metavar="ENTRY",
                        help="run only entry points whose command contains "
                             "ENTRY (repeatable)")
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
        for index, argv in enumerate(entries):
            out = os.path.join(scratch, f"reached-{index}.json")
            started = time.monotonic()
            subprocess.run(
                [sys.executable, __file__, "--record", out] + argv,
                cwd=scratch, env=env, stdout=subprocess.DEVNULL, check=False,
            )
            with open(out, encoding="utf-8") as stream:
                reached.update(tuple(key) for key in json.load(stream))
            print(f"# {time.monotonic() - started:6.1f}s  {' '.join(argv)}",
                  file=sys.stderr)
    functions = list(defined_functions())
    unreached = {key for key, _, _, _ in functions if key not in reached}
    rows = [(Path(key[0]).relative_to(SRC.parent), name, lines)
            for key, name, lines, parent in functions
            if key in unreached and parent not in unreached]
    for module, name, lines in rows:
        print(f"{lines:5d}  {module}::{name}")
    print(f"{len(rows)} functions, {sum(r[2] for r in rows)} lines "
          f"never reached by {len(entries)} entry points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
