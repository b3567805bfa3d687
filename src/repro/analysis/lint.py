"""Determinism linter (``python -m repro.analysis.lint``).

Every claim the reproduction makes — CStream ≤ CS energy, serial ==
parallel == warm-cache equality, traced == untraced byte-identity —
rests on the simulator being a pure, deterministic function of its
inputs. One stray wall-clock read, unseeded RNG or set-ordered loop in
the simulation/scheduling packages silently breaks those invariants.
This module enforces the property statically with project-specific AST
rules:

========  ==================================================================
code      rule
========  ==================================================================
CSA001    no wall-clock calls (``time.time``, ``perf_counter``,
          ``datetime.now``, …) in ``simcore``/``core``/``runtime``/
          ``compression`` — host time is measured from outside the
          program (``benchmarks/e2e/spans.py``); any other real-time
          read needs an explicit suppression
CSA002    no module-level or unseeded ``random`` / ``numpy.random`` use
          (global-RNG functions, ``default_rng()`` without a seed,
          ``os.urandom``/``uuid.uuid4``/``secrets``) anywhere
CSA003    no iteration over ``set``/``frozenset`` values (literals,
          ``set(...)`` calls, set-typed names, set-algebra results) in
          the simulation/scheduling packages unless wrapped in
          ``sorted(...)`` — set order is hash order, not data order
CSA004    no mutable default arguments (``[]``, ``{}``, ``set()``,
          ``defaultdict(...)``, …) anywhere
CSA005    no floating-point accumulation via bare ``sum()`` over
          energy/latency/power sequences in the simulation/scheduling
          packages — use :func:`repro.numerics.ordered_sum`, which pins
          the reduction order
CSA006    every trace-hook call (``trace.span``, ``recorder.placement``,
          …) in the simulation/scheduling packages must sit inside an
          ``if <recorder> is not None`` guard — the PR-2
          zero-overhead-when-off contract
CSA007    no environment reads (``os.environ``, ``os.getenv``) in the
          simulation/scheduling packages — configuration must arrive as
          explicit arguments so cached results can key on it
CSA008    no unsorted filesystem enumeration (``os.listdir``,
          ``glob.glob``, ``Path.iterdir``/``glob``/``rglob``,
          ``os.scandir``, ``os.walk``) anywhere unless wrapped in
          ``sorted(...)`` — directory order is filesystem-dependent
CSA009    every telemetry-hook call (``telemetry.comm``,
          ``collector.retry``, …) in the simulation/scheduling packages
          must sit inside an ``if <collector> is not None`` guard — the
          residual ledger rides the same zero-overhead-when-off
          contract as tracing
========  ==================================================================

Suppression: append ``# csa: ignore[CSA00x]`` (comma-separate several
codes) to the line where the flagged construct *starts*, with a nearby
comment saying why. Unsuppressed findings make the CLI exit 1; ``--json``
prints a machine-readable report and ``--report FILE`` writes one (the
CI ``static-analysis`` job uploads it as an artifact).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import sys
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "LintFinding",
    "RULES",
    "STRICT_PACKAGES",
    "lint_source",
    "lint_file",
    "lint_paths",
    "main",
]

#: rule code -> one-line summary (the README/DESIGN tables render this)
RULES: Dict[str, str] = {
    "CSA001": "wall-clock call in deterministic simulation/scheduling code",
    "CSA002": "module-level or unseeded random / entropy source",
    "CSA003": "iteration over a set (hash order) without sorted()",
    "CSA004": "mutable default argument",
    "CSA005": "bare sum() over energy/latency/power values "
              "(use repro.numerics.ordered_sum)",
    "CSA006": "trace hook not guarded by a recorder-is-None fast path",
    "CSA007": "environment read inside deterministic code",
    "CSA008": "unsorted filesystem enumeration",
    "CSA009": "telemetry hook not guarded by a collector-is-None fast path",
}

#: packages (directories under ``repro/``) where the simulator's purity
#: contract is enforced; everything else gets only the everywhere-rules
STRICT_PACKAGES = frozenset(
    {"simcore", "core", "runtime", "compression", "fleet"}
)

#: rules that apply to every linted file regardless of package
_EVERYWHERE_RULES = frozenset({"CSA002", "CSA004", "CSA008"})

_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: numpy.random attributes that are *not* the legacy global RNG
_NUMPY_RANDOM_OK = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "RandomState", "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
})

_ENTROPY_CALLS = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})

#: TraceRecorder emission methods (the hooks CSA006 guards)
_TRACE_HOOKS = frozenset({
    "span", "context_switch", "migration", "dvfs_transition", "fault",
    "batch_complete", "queue_depth", "energy_sample", "placement",
    "process_event", "begin_repetition", "end_repetition",
})

#: TelemetryCollector ingestion methods (the hooks CSA009 guards)
_TELEMETRY_HOOKS = frozenset({"comm", "retry", "collect_window"})

#: callables that consume an iterable order-insensitively — a set or a
#: directory listing fed *directly* into one of these is deterministic
_ORDER_SAFE_CONSUMERS = frozenset({
    "sorted", "len", "min", "max", "sum", "any", "all", "set", "frozenset",
})

#: identifier tokens marking an energy/latency/power quantity (CSA005)
_QUANTITY_RE = re.compile(
    r"energ|latenc|power|(^|_)(uj|us|uw|mw)(_|$)", re.IGNORECASE
)

_SET_ANNOTATIONS = frozenset({
    "set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet",
})

_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "bytearray",
    "collections.defaultdict", "collections.OrderedDict",
    "collections.Counter", "collections.deque",
    "defaultdict", "OrderedDict", "Counter", "deque",
})

_FS_ENUM_CALLS = frozenset({
    "os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob",
})
_FS_ENUM_METHODS = frozenset({"iterdir", "glob", "rglob"})

_SUPPRESS_RE = re.compile(r"#\s*csa:\s*ignore\[([A-Za-z0-9_,\s]+)\]")

#: flow-pass companions (:mod:`repro.analysis.flow` reuses the linter's
#: comment grammar): per-site suppressions and audited-pure contracts
DET_SUPPRESS_RE = re.compile(r"#\s*det:\s*ignore\[([A-Za-z0-9_,\s]+)\]")
DET_CONTRACT_RE = re.compile(r"#\s*det:\s*pure\b(.*)$")
CSU_SUPPRESS_RE = re.compile(r"#\s*csu:\s*ignore\[([A-Za-z0-9_,\s]+)\]")


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _package_of(path: str) -> str:
    """The ``repro`` sub-package a file belongs to ('' = top level)."""
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            remainder = parts[index + 1:]
            return remainder[0] if len(remainder) > 1 else ""
    return ""


class _Linter(ast.NodeVisitor):
    """Single-pass AST walk emitting :class:`LintFinding` objects."""

    def __init__(self, path: str, package: str, source: str) -> None:
        self.path = path
        self.package = package
        self.strict = package in STRICT_PACKAGES
        self.findings: List[LintFinding] = []
        #: local alias -> dotted origin (``np`` -> ``numpy``,
        #: ``pc`` -> ``time.perf_counter``)
        self.aliases: Dict[str, str] = {}
        #: per-line suppressed rule codes
        self.suppressed: Dict[int, Set[str]] = {}
        for number, line in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if match:
                codes = {c.strip() for c in match.group(1).split(",")}
                self.suppressed[number] = {c for c in codes if c}
        self._function_depth = 0
        self._order_safe_depth = 0
        self._guards: List[Set[str]] = []
        self._set_scopes: List[Set[str]] = [set()]

    # -- plumbing ----------------------------------------------------------

    def _applies(self, code: str) -> bool:
        return self.strict or code in _EVERYWHERE_RULES

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        if not self._applies(code):
            return
        line = getattr(node, "lineno", 0)
        if code in self.suppressed.get(line, ()):
            return
        self.findings.append(
            LintFinding(
                path=self.path,
                line=line,
                col=getattr(node, "col_offset", 0) + 1,
                code=code,
                message=message,
            )
        )

    def _resolve(self, node: ast.AST) -> Optional[str]:
        dotted = _dotted(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        origin = self.aliases.get(head, head)
        return f"{origin}.{rest}" if rest else origin

    # -- imports ------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.partition(".")[0]] = (
                alias.name if alias.asname else alias.name.partition(".")[0]
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level or node.module is None:
            return
        for alias in node.names:
            self.aliases[alias.asname or alias.name] = (
                f"{node.module}.{alias.name}"
            )

    # -- scopes, guards, order-safe contexts ---------------------------------

    def _is_set_annotation(self, annotation: Optional[ast.AST]) -> bool:
        if annotation is None:
            return False
        if isinstance(annotation, ast.Subscript):
            return self._is_set_annotation(annotation.value)
        dotted = _dotted(annotation)
        if dotted is None:
            return False
        return dotted.rsplit(".", 1)[-1] in _SET_ANNOTATIONS

    def _is_set_like(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self._set_scopes)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
        ):
            return self._is_set_like(node.left) or self._is_set_like(node.right)
        if isinstance(node, ast.Call):
            resolved = self._resolve(node.func)
            if resolved in ("set", "frozenset"):
                return True
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "intersection", "union", "difference", "symmetric_difference"
            ):
                return True
        return False

    def _visit_function(self, node) -> None:
        self._function_depth += 1
        scope: Set[str] = set()
        all_args = list(node.args.posonlyargs) + list(node.args.args) + (
            list(node.args.kwonlyargs)
        )
        for arg in all_args:
            if self._is_set_annotation(arg.annotation):
                scope.add(arg.arg)
        self._set_scopes.append(scope)
        self._check_defaults(node)
        self.generic_visit(node)
        self._set_scopes.pop()
        self._function_depth -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._function_depth += 1
        self._set_scopes.append(set())
        self._check_defaults(node)
        self.generic_visit(node)
        self._set_scopes.pop()
        self._function_depth -= 1

    def visit_Assign(self, node: ast.Assign) -> None:
        set_like = self._is_set_like(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if set_like:
                    self._set_scopes[-1].add(target.id)
                else:
                    self._set_scopes[-1].discard(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and (
            self._is_set_annotation(node.annotation)
            or (node.value is not None and self._is_set_like(node.value))
        ):
            self._set_scopes[-1].add(node.target.id)
        self.generic_visit(node)

    @staticmethod
    def _guard_names(test: ast.AST) -> Set[str]:
        """Dotted names the test proves non-None (``x is not None`` or a
        bare truthiness check, conjunctions included)."""
        names: Set[str] = set()
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            for value in test.values:
                names |= _Linter._guard_names(value)
            return names
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.IsNot)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            dotted = _dotted(test.left)
            if dotted:
                names.add(dotted)
            return names
        dotted = _dotted(test)
        if dotted:
            names.add(dotted)
        return names

    def visit_If(self, node: ast.If) -> None:
        self.visit(node.test)
        self._guards.append(self._guard_names(node.test))
        for child in node.body:
            self.visit(child)
        self._guards.pop()
        for child in node.orelse:
            self.visit(child)

    def visit_IfExp(self, node: ast.IfExp) -> None:
        self.visit(node.test)
        self._guards.append(self._guard_names(node.test))
        self.visit(node.body)
        self._guards.pop()
        self.visit(node.orelse)

    # -- rules --------------------------------------------------------------

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default, (ast.List, ast.Dict, ast.Set,
                          ast.ListComp, ast.DictComp, ast.SetComp)
            )
            if not mutable and isinstance(default, ast.Call):
                mutable = self._resolve(default.func) in _MUTABLE_FACTORIES
            if mutable:
                self._report(
                    default, "CSA004",
                    "mutable default argument is shared across calls; "
                    "default to None (or a frozen value) and build inside",
                )

    def _check_iteration(self, iterable: ast.AST) -> None:
        if self._order_safe_depth == 0 and self._is_set_like(iterable):
            self._report(
                iterable, "CSA003",
                "iterating a set yields hash order, which varies across "
                "processes and runs; wrap in sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            self._check_iteration(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self._resolve(node) == "os.environ":
            self._report(
                node, "CSA007",
                "os.environ read couples simulated behaviour to the "
                "process environment; pass configuration explicitly",
            )
        self.generic_visit(node)

    def _check_rng_call(self, node: ast.Call, resolved: str) -> None:
        unseeded = not node.args or (
            isinstance(node.args[0], ast.Constant)
            and node.args[0].value is None
        )
        if resolved in _ENTROPY_CALLS or resolved.startswith("secrets."):
            self._report(
                node, "CSA002",
                f"{resolved}() draws OS entropy; derive values from an "
                "explicit seed instead",
            )
        elif resolved.startswith("random.SystemRandom"):
            self._report(
                node, "CSA002",
                "random.SystemRandom draws OS entropy; use a seeded "
                "Generator instead",
            )
        elif resolved == "random.Random":
            if unseeded:
                self._report(
                    node, "CSA002",
                    "random.Random() without a seed is nondeterministic; "
                    "pass an explicit seed",
                )
        elif resolved.startswith("random."):
            self._report(
                node, "CSA002",
                f"{resolved}() uses the process-global RNG; thread a "
                "seeded random.Random/np.random.Generator through instead",
            )
        elif resolved == "numpy.random.default_rng":
            if unseeded:
                self._report(
                    node, "CSA002",
                    "numpy.random.default_rng() without a seed is "
                    "nondeterministic; pass an explicit seed",
                )
            elif self._function_depth == 0:
                self._report(
                    node, "CSA002",
                    "module-level RNG shares draw order across all call "
                    "sites; construct the generator where it is used",
                )
        elif resolved == "numpy.random.RandomState":
            if unseeded:
                self._report(
                    node, "CSA002",
                    "numpy.random.RandomState() without a seed is "
                    "nondeterministic; pass an explicit seed",
                )
        elif resolved.startswith("numpy.random."):
            attr = resolved.rsplit(".", 1)[-1]
            if attr not in _NUMPY_RANDOM_OK:
                self._report(
                    node, "CSA002",
                    f"{resolved}() uses numpy's legacy global RNG; use a "
                    "seeded numpy.random.default_rng(seed) generator",
                )

    def _mentions_quantity(self, node: ast.AST) -> bool:
        for child in ast.walk(node):
            name = None
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            if name is not None and _QUANTITY_RE.search(name):
                return True
        return False

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self._resolve(node.func) or ""

        # CSA001 — wall clock
        if resolved in _WALL_CLOCK:
            self._report(
                node, "CSA001",
                f"{resolved}() reads the wall clock inside deterministic "
                "code; simulated time must come from the DES clock "
                "(time the host from outside the program, as "
                "benchmarks/e2e/spans.py does, or suppress the site "
                "explicitly)",
            )

        # CSA002 — RNG / entropy
        self._check_rng_call(node, resolved)

        # CSA003 — set-like iterable handed to an iterating builtin
        if resolved in ("list", "tuple", "iter", "enumerate") and node.args:
            self._check_iteration(node.args[0])

        # CSA005 — bare sum() over energy/latency/power expressions
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "sum"
            and node.args
            and self._mentions_quantity(node.args[0])
        ):
            self._report(
                node, "CSA005",
                "bare sum() leaves the float reduction order implicit; "
                "use repro.numerics.ordered_sum for energy/latency "
                "accumulation",
            )

        # CSA006 — unguarded trace hook
        if isinstance(node.func, ast.Attribute) and (
            node.func.attr in _TRACE_HOOKS
        ):
            receiver = _dotted(node.func.value)
            if receiver is not None:
                tail = receiver.rsplit(".", 1)[-1].lower()
                if ("trace" in tail or "recorder" in tail) and not any(
                    receiver in guard for guard in self._guards
                ):
                    self._report(
                        node, "CSA006",
                        f"trace hook {receiver}.{node.func.attr}(...) is "
                        f"not inside an 'if {receiver} is not None' guard; "
                        "untraced runs must keep the zero-overhead path",
                    )

        # CSA009 — unguarded telemetry hook
        if isinstance(node.func, ast.Attribute) and (
            node.func.attr in _TELEMETRY_HOOKS
        ):
            receiver = _dotted(node.func.value)
            if receiver is not None:
                tail = receiver.rsplit(".", 1)[-1].lower()
                if (
                    "telemetry" in tail or "collector" in tail
                ) and not any(
                    receiver in guard for guard in self._guards
                ):
                    self._report(
                        node, "CSA009",
                        f"telemetry hook {receiver}.{node.func.attr}(...) "
                        f"is not inside an 'if {receiver} is not None' "
                        "guard; untelemetered runs must keep the "
                        "zero-overhead path",
                    )

        # CSA007 — os.getenv (os.environ is caught at the Attribute)
        if resolved == "os.getenv":
            self._report(
                node, "CSA007",
                "os.getenv couples simulated behaviour to the process "
                "environment; pass configuration explicitly",
            )

        # CSA008 — filesystem enumeration
        fs_enum = resolved in _FS_ENUM_CALLS or (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _FS_ENUM_METHODS
            and resolved not in ("glob.glob", "glob.iglob")
            and not resolved.startswith("re.")
        )
        if fs_enum and self._order_safe_depth == 0:
            self._report(
                node, "CSA008",
                "directory enumeration order is filesystem-dependent; "
                "wrap the listing in sorted(...)",
            )

        # Recurse; inside an order-insensitive consumer, iteration-order
        # rules stand down for the direct arguments.
        order_safe = resolved in _ORDER_SAFE_CONSUMERS
        self.visit(node.func)
        if order_safe:
            self._order_safe_depth += 1
        for arg in node.args:
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword.value)
        if order_safe:
            self._order_safe_depth -= 1


def lint_source(
    source: str, path: str = "<string>", package: Optional[str] = None
) -> List[LintFinding]:
    """Lint one source string; ``package`` forces the rule scope (e.g.
    ``"simcore"`` enables the strict rules for fixture code)."""
    if package is None:
        package = _package_of(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            LintFinding(
                path=path,
                line=error.lineno or 0,
                col=(error.offset or 0),
                code="CSA000",
                message=f"syntax error: {error.msg}",
            )
        ]
    linter = _Linter(path, package, source)
    linter.visit(tree)
    return sorted(linter.findings, key=lambda f: (f.path, f.line, f.col, f.code))


def lint_file(path: str, package: Optional[str] = None) -> List[LintFinding]:
    with open(path, "r", encoding="utf-8") as handle:
        return lint_source(handle.read(), path=path, package=package)


def _iter_python_files(paths: Sequence[str]) -> Iterable[str]:
    for path in paths:
        if os.path.isdir(path):
            for directory, dirnames, filenames in sorted(os.walk(path)):
                dirnames.sort()
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(directory, filename)
        else:
            yield path


def lint_paths(
    paths: Sequence[str], package: Optional[str] = None
) -> Tuple[List[LintFinding], int]:
    """Lint files/directories; returns (findings, files scanned)."""
    findings: List[LintFinding] = []
    scanned = 0
    for file_path in _iter_python_files(paths):
        scanned += 1
        findings.extend(lint_file(file_path, package=package))
    return findings, scanned


def report_payload(
    findings: Sequence[LintFinding], files_scanned: int
) -> Dict:
    """The JSON report shape (also uploaded as a CI artifact)."""
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    return {
        "version": 1,
        "files_scanned": files_scanned,
        "findings": [asdict(finding) for finding in findings],
        "counts": dict(sorted(counts.items())),
        "rules": RULES,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="determinism linter for the CStream reproduction",
    )
    parser.add_argument("paths", nargs="+", help="files or directories")
    parser.add_argument(
        "--package", default=None,
        help="force the rule scope (e.g. 'simcore' to apply strict rules)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the JSON report to stdout instead of human output",
    )
    parser.add_argument(
        "--report", default=None, metavar="FILE",
        help="also write the JSON report to FILE",
    )
    args = parser.parse_args(argv)

    try:
        findings, scanned = lint_paths(args.paths, package=args.package)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    payload = report_payload(findings, scanned)
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if args.as_json:
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        for finding in findings:
            print(finding.format())
        status = "clean" if not findings else f"{len(findings)} finding(s)"
        print(f"checked {scanned} file(s): {status}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
