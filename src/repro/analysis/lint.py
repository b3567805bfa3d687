"""Determinism and unit linter (``python -m repro.analysis.lint``).

Every claim the reproduction makes — CStream ≤ CS energy, serial ==
parallel == warm-cache equality, traced == untraced byte-identity —
rests on the simulator being a pure, deterministic function of its
inputs. One stray wall-clock read, unseeded RNG or set-ordered loop
silently breaks those invariants, and one µs value bound to a µJ name
silently corrupts a figure. This module enforces both properties
statically with project-specific AST rules, one file at a time.

**Scope.** Every module under ``repro`` is *strict* except the driver
packages in :data:`DRIVER_PACKAGES` (``bench``, ``cli``, ``__main__``),
which time the host, read the environment and write files on purpose.
Strict modules get every rule; drivers get only CSA002, CSA004 and
CSA008. CSA010 closes the gap between the two: a strict module may not
import a driver, so everything strict code can reach by import is itself
linted strict.

========  ==================================================================
code      rule
========  ==================================================================
CSA001    no wall-clock calls (``time.time``, ``perf_counter``,
          ``datetime.now``, …) — host time is measured from outside the
          program (``benchmarks/e2e/spans.py``); any other real-time read
          needs an explicit suppression
CSA002    no module-level or unseeded ``random`` / ``numpy.random`` use
          (global-RNG functions, ``default_rng()`` without a seed,
          ``os.urandom``/``uuid.uuid4``/``secrets``) anywhere
CSA003    no iteration over ``set``/``frozenset`` values (literals,
          ``set(...)`` calls, set-typed names, set-algebra results) unless
          wrapped in ``sorted(...)`` — set order is hash order, not data
          order
CSA004    no mutable default arguments (``[]``, ``{}``, ``set()``,
          ``defaultdict(...)``, …) anywhere
CSA005    no floating-point accumulation via bare ``sum()`` over
          energy/latency/power sequences — use
          :func:`repro.numerics.ordered_sum`, which pins the reduction
          order
CSA006    every trace-hook call (``trace.span``, ``recorder.placement``,
          …) must sit inside an ``if <recorder> is not None`` guard — the
          zero-overhead-when-off contract
CSA007    no environment reads (``os.environ``, ``os.getenv``) —
          configuration must arrive as explicit arguments so cached
          results can key on it
CSA008    no unsorted filesystem enumeration (``os.listdir``,
          ``glob.glob``, ``Path.iterdir``/``glob``/``rglob``,
          ``os.scandir``, ``os.walk``) anywhere unless wrapped in
          ``sorted(...)`` — directory order is filesystem-dependent
CSA009    every telemetry-hook call (``telemetry.comm``,
          ``collector.retry``, …) must sit inside an ``if <collector> is
          not None`` guard — the residual ledger rides the same
          zero-overhead-when-off contract as tracing
CSA010    no import of a driver package (``repro.bench``, ``repro.cli``,
          ``repro.__main__``), lazy imports inside functions included
CSU001    no addition/subtraction of two quantities with different
          inferred units (``x_us + y_uj``)
CSU002    no comparison of two quantities with different inferred units
CSU003    no unit-changing binding without an explicit conversion: an
          assignment, return, positional argument or keyword argument
          whose value's unit contradicts the target name's unit
========  ==================================================================

**Units.** The repo encodes units in names — ``*_us``, ``*_mhz``,
``*_uj``, ``*_bytes``, ``*_us_per_byte`` — and the CSU rules infer them
across expressions. Multiplying or dividing by a literal or an
unclassified name makes the unit *unknown* (that is what an explicit
conversion factor looks like), so only structurally pure unit
expressions are ever flagged. A positional argument is bound to its
parameter through a def-name index of the files linted together: a bare
``f(...)`` or ``self.f(...)`` binds to the calling module's own def of
that name (the enclosing class's first), any call binds to the name's
only def in the whole set, and a name defined several times stays
unbound. A keyword argument is checked against its own name.

Suppression: append ``# csa: ignore[CODE]`` (comma-separate several
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
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

__all__ = [
    "LintFinding",
    "RULES",
    "DRIVER_PACKAGES",
    "build_def_index",
    "format_unit",
    "lint_source",
    "lint_paths",
    "main",
    "parse_unit",
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
    "CSA010": "deterministic module imports a driver package",
    "CSU001": "addition/subtraction of mismatched units",
    "CSU002": "comparison of mismatched units",
    "CSU003": "unit-changing binding without an explicit conversion",
}

#: the package every linted module is named under
_ROOT = "repro"

#: the driver packages/modules under ``repro/`` (first path component,
#: ``.py`` stripped): they time the host, read the environment and write
#: files on purpose. Every other module gets the strict rules.
DRIVER_PACKAGES = frozenset({"bench", "cli", "__main__"})

#: rules that apply to every linted file, drivers included
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


def _module_parts(path: str) -> List[str]:
    """The path components below the last ``repro`` directory (``[]``
    when the file does not live under one)."""
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == _ROOT:
            return parts[index + 1:]
    return []


def _package_of(path: str) -> str:
    """The first component of a file's module name below ``repro``
    (``"simcore"`` for ``repro/simcore/engine.py``, ``"cli"`` for
    ``repro/cli.py``; ``""`` outside a ``repro`` tree)."""
    parts = _module_parts(path)
    return os.path.splitext(parts[0])[0] if parts else ""


class _Linter(ast.NodeVisitor):
    """Single-pass AST walk emitting :class:`LintFinding` objects."""

    def __init__(self, path: str, package: str, source: str) -> None:
        self.path = path
        self.package = package
        self.strict = package not in DRIVER_PACKAGES
        #: dotted package that relative imports in this file start from
        parts = _module_parts(path)
        if parts:
            self.import_base = [_ROOT] + parts[:-1]
        else:
            self.import_base = [_ROOT] + ([package] if package else [])
        self.findings: List[LintFinding] = []
        #: local alias -> dotted origin (``np`` -> ``numpy``,
        #: ``pc`` -> ``time.perf_counter``)
        self.aliases: Dict[str, str] = {}
        #: per-line suppressed rule codes
        self.suppressed: Dict[int, Set[str]] = {}
        for number, line in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if match:
                codes = [c.strip() for c in match.group(1).split(",")]
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
        self._check_driver_import(node, [alias.name for alias in node.names])
        for alias in node.names:
            self.aliases[alias.asname or alias.name.partition(".")[0]] = (
                alias.name if alias.asname else alias.name.partition(".")[0]
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            base = self.import_base[: len(self.import_base) - node.level + 1]
            module = ".".join(base + ([node.module] if node.module else []))
        else:
            module = node.module or ""
        self._check_driver_import(
            node, [module] + [f"{module}.{alias.name}" for alias in node.names]
        )
        if node.level or node.module is None:
            return
        for alias in node.names:
            self.aliases[alias.asname or alias.name] = (
                f"{node.module}.{alias.name}"
            )

    def _check_driver_import(self, node: ast.AST, modules: List[str]) -> None:
        """CSA010: an import (module level or lazy) naming a module in a
        driver package."""
        for module in modules:
            parts = module.split(".")
            if len(parts) > 1 and parts[0] == _ROOT and (
                parts[1] in DRIVER_PACKAGES
            ):
                self._report(
                    node, "CSA010",
                    f"import of {module} ties deterministic code to the "
                    f"driver package {parts[1]!r}, which reads host clocks "
                    "and the environment; pass what it provides in as an "
                    "argument",
                )
                return

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


# -- unit consistency (CSU001-CSU003) ------------------------------------------

#: atom -> (base-dimension exponents, power-of-ten scale). Dimensions:
#: T time (s), E energy (J), D data (byte), B data (bit), P pages.
#: Power is E·T⁻¹, frequency T⁻¹ — so ``pause_us * power_w`` correctly
#: simplifies to µJ instead of being flagged against ``energy_uj``.
_ATOMS: Dict[str, Tuple[Dict[str, int], int]] = {
    "ns": ({"T": 1}, -9), "us": ({"T": 1}, -6),
    "ms": ({"T": 1}, -3), "s": ({"T": 1}, 0),
    "uj": ({"E": 1}, -6), "mj": ({"E": 1}, -3), "j": ({"E": 1}, 0),
    "uw": ({"E": 1, "T": -1}, -6), "mw": ({"E": 1, "T": -1}, -3),
    "w": ({"E": 1, "T": -1}, 0),
    "hz": ({"T": -1}, 0), "khz": ({"T": -1}, 3),
    "mhz": ({"T": -1}, 6), "ghz": ({"T": -1}, 9),
    "byte": ({"D": 1}, 0), "bit": ({"B": 1}, 0), "page": ({"P": 1}, 0),
}

#: Unit = (sorted (dimension, exponent) pairs, power-of-ten scale).
#: None = unknown/unclassified; a fully cancelled unit is also None.
Unit = Tuple[Tuple[Tuple[str, int], ...], int]


def _normalize_atom(token: str) -> str:
    if token in ("bytes", "bits", "pages"):
        return token[:-1]
    return token


def _make_unit(dims: Mapping[str, int], scale: int) -> Optional[Unit]:
    reduced = tuple(
        sorted((dim, exp) for dim, exp in dims.items() if exp)
    )
    if not reduced:
        return None  # dimensionless: treated as unclassified
    return (reduced, scale)


def _atom_unit(atom: str) -> Optional[Unit]:
    entry = _ATOMS.get(atom)
    if entry is None:
        return None
    return _make_unit(entry[0], entry[1])


def parse_unit(name: Optional[str]) -> Optional[Unit]:
    """Infer a unit from a trailing naming convention: ``*_us`` ->
    microseconds, ``*_uj_per_byte`` -> µJ/byte, … None = unclassified."""
    if not name:
        return None
    tokens = [_normalize_atom(t) for t in name.lower().split("_") if t]
    if len(tokens) >= 3 and tokens[-2] == "per":
        num, den = _atom_unit(tokens[-3]), _atom_unit(tokens[-1])
        if num is not None and den is not None:
            return _combine(num, den, divide=True)
        return None
    if len(tokens) > 1 and tokens[-1] in _ATOMS:
        # require a descriptive stem (`latency_us`), not a bare atom
        return _atom_unit(tokens[-1])
    return None


def format_unit(unit: Unit) -> str:
    """Canonical display: a matching atom name (``uj``, ``us/byte``)
    when one exists, else the raw dimension/scale form."""
    dims, scale = unit
    for atom, (a_dims, a_scale) in _ATOMS.items():
        if _make_unit(a_dims, a_scale) == unit:
            return atom
    # ratio of two atoms?
    for num_atom in _ATOMS:
        num_unit = _atom_unit(num_atom)
        if num_unit is None:
            continue
        for den_atom in _ATOMS:
            den_unit = _atom_unit(den_atom)
            if den_unit is None:
                continue
            if _combine(num_unit, den_unit, divide=True) == unit:
                return f"{num_atom}/{den_atom}"
    parts = "*".join(
        f"{dim}^{exp}" if exp != 1 else dim for dim, exp in dims
    )
    return f"10^{scale}*{parts}" if scale else parts


def _combine(left: Unit, right: Unit, divide: bool) -> Optional[Unit]:
    dims: Dict[str, int] = dict(left[0])
    sign = -1 if divide else 1
    for dim, exp in right[0]:
        dims[dim] = dims.get(dim, 0) + sign * exp
    scale = left[1] + sign * right[1]
    return _make_unit(dims, scale)


_UNIT_PRESERVING_CALLS = frozenset({"abs", "min", "max", "float", "round"})


class Def(NamedTuple):
    """One indexed def: its file, its class (None at module level) and
    its parameters (``self``/``cls`` dropped) with their units, of which
    the first ``positional`` accept positional arguments."""

    path: str
    owner: Optional[str]
    params: Tuple[Tuple[str, Optional[Unit]], ...]
    positional: int


#: def name -> every def of that name in the linted files
DefIndex = Dict[str, List[Def]]


def _def(path: str, owner: Optional[str], node) -> Def:
    args = node.args
    positional = [
        a.arg for a in list(args.posonlyargs) + list(args.args)
        if a.arg not in ("self", "cls")
    ]
    keyword_only = [a.arg for a in args.kwonlyargs]
    return Def(
        path=path,
        owner=owner,
        params=tuple((name, parse_unit(name))
                     for name in positional + keyword_only),
        positional=len(positional),
    )


def build_def_index(trees: Iterable[Tuple[str, ast.AST]]) -> DefIndex:
    """Index the module-level functions and class methods of parsed
    ``(path, tree)`` pairs by def name, for CSU003's positional
    argument binding."""
    index: DefIndex = {}
    for path, tree in trees:
        bodies: List[Tuple[Optional[str], List[ast.stmt]]] = [
            (None, getattr(tree, "body", []))
        ]
        while bodies:
            owner, body = bodies.pop()
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    index.setdefault(node.name, []).append(
                        _def(path, owner, node)
                    )
                elif isinstance(node, ast.ClassDef):
                    bodies.append((node.name, node.body))
    return index


class _UnitChecker(ast.NodeVisitor):
    """Unit inference + mismatch detection over one strict module."""

    def __init__(
        self,
        report: Callable[[ast.AST, str, str], None],
        path: str,
        index: DefIndex,
    ) -> None:
        self._report = report
        self.path = path
        self.index = index
        self._function_units: List[Optional[Unit]] = []
        self._classes: List[str] = []

    def def_of(self, call: ast.Call) -> Optional[Def]:
        """The def a call binds to, or None when the name is ambiguous.

        A bare ``f(...)`` or ``self.f(...)`` binds to this module's only
        def of that name (the enclosing class's own def first); any call
        binds to the name's only def in the index."""
        entries = self.index.get(_callee_name(call) or "", [])
        receiver = getattr(call.func, "value", None)
        if receiver is None or (
            isinstance(receiver, ast.Name) and receiver.id in ("self", "cls")
        ):
            own = [d for d in entries if d.path == self.path]
            if receiver is not None and self._classes:
                own = [
                    d for d in own if d.owner == self._classes[-1]
                ] or own
            if own:
                return own[0] if len(own) == 1 else None
        return entries[0] if len(entries) == 1 else None

    # -- inference ---------------------------------------------------------

    def unit_of(self, node: ast.AST) -> Optional[Unit]:
        if isinstance(node, ast.Name):
            return parse_unit(node.id)
        if isinstance(node, ast.Attribute):
            return parse_unit(node.attr)
        if isinstance(node, ast.Subscript):
            return self.unit_of(node.value)
        if isinstance(node, ast.UnaryOp):
            return self.unit_of(node.operand)
        if isinstance(node, ast.Call):
            name = _callee_name(node)
            if name in _UNIT_PRESERVING_CALLS and node.args:
                units = {self.unit_of(arg) for arg in node.args}
                if len(units) == 1:
                    return units.pop()
                return None
            return parse_unit(name)
        if isinstance(node, ast.IfExp):
            body, orelse = self.unit_of(node.body), self.unit_of(node.orelse)
            return body if body == orelse else None
        if isinstance(node, ast.BinOp):
            left = self.unit_of(node.left)
            right = self.unit_of(node.right)
            if isinstance(node.op, (ast.Add, ast.Sub)):
                if left is not None and right is not None:
                    return left  # mismatch reported by visit_BinOp
                return left or right
            if isinstance(node.op, (ast.Mult, ast.Div, ast.FloorDiv)):
                if left is not None and right is not None:
                    return _combine(
                        left, right, divide=isinstance(
                            node.op, (ast.Div, ast.FloorDiv)
                        )
                    )
                # one side unknown (a count, a literal, a conversion
                # factor): the result is deliberately unclassified
                return None
            return None
        return None

    # -- rules -------------------------------------------------------------

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            left = self.unit_of(node.left)
            right = self.unit_of(node.right)
            if left is not None and right is not None and left != right:
                self._report(
                    node, "CSU001",
                    f"adding {format_unit(left)} to {format_unit(right)} "
                    "mixes units; convert one side explicitly",
                )
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        left_node = node.left
        for comparator in node.comparators:
            left = self.unit_of(left_node)
            right = self.unit_of(comparator)
            if left is not None and right is not None and left != right:
                self._report(
                    node, "CSU002",
                    f"comparing {format_unit(left)} with "
                    f"{format_unit(right)} mixes units",
                )
            left_node = comparator
        self.generic_visit(node)

    def _check_binding(
        self, node: ast.AST, target_name: Optional[str], value: ast.AST,
        what: str,
    ) -> None:
        target_unit = parse_unit(target_name)
        if target_unit is None:
            return
        value_unit = self.unit_of(value)
        if value_unit is not None and value_unit != target_unit:
            self._report(
                node, "CSU003",
                f"{what} binds {format_unit(value_unit)} to "
                f"{target_name} ({format_unit(target_unit)}) without an "
                "explicit conversion",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name is not None:
                self._check_binding(node, name, node.value, "assignment")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None and isinstance(node.target, ast.Name):
            self._check_binding(
                node, node.target.id, node.value, "assignment"
            )
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        name = None
        if isinstance(node.target, ast.Name):
            name = node.target.id
        elif isinstance(node.target, ast.Attribute):
            name = node.target.attr
        if name is not None and isinstance(node.op, (ast.Add, ast.Sub)):
            target_unit = parse_unit(name)
            value_unit = self.unit_of(node.value)
            if (
                target_unit is not None
                and value_unit is not None
                and target_unit != value_unit
            ):
                self._report(
                    node, "CSU001",
                    f"accumulating {format_unit(value_unit)} into {name} "
                    f"({format_unit(target_unit)}) mixes units",
                )
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def _visit_def(self, node) -> None:
        self._function_units.append(parse_unit(node.name))
        self.generic_visit(node)
        self._function_units.pop()

    visit_FunctionDef = _visit_def
    visit_AsyncFunctionDef = _visit_def

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None and self._function_units:
            expected = self._function_units[-1]
            if expected is not None:
                actual = self.unit_of(node.value)
                if actual is not None and actual != expected:
                    self._report(
                        node, "CSU003",
                        f"return binds {format_unit(actual)} to a "
                        f"function named for {format_unit(expected)} "
                        "without an explicit conversion",
                    )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        target = self.def_of(node)
        if target is not None:
            positional = target.params[: target.positional]
            for (param, _unit), arg in zip(positional, node.args):
                if isinstance(arg, ast.Starred):
                    break
                self._check_binding(node, param, arg, "argument")
        for keyword in node.keywords:
            self._check_binding(
                node, keyword.arg, keyword.value, "keyword argument"
            )
        self.generic_visit(node)


def _callee_name(node: ast.Call) -> Optional[str]:
    """``f`` for ``f(...)`` and ``obj.f(...)``."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


# -- drivers -------------------------------------------------------------------


def _syntax_error(path: str, error: SyntaxError) -> LintFinding:
    return LintFinding(
        path=path,
        line=error.lineno or 0,
        col=(error.offset or 0),
        code="CSA000",
        message=f"syntax error: {error.msg}",
    )


def _lint_tree(
    tree: ast.AST, source: str, path: str, package: str, index: DefIndex
) -> List[LintFinding]:
    linter = _Linter(path, package, source)
    linter.visit(tree)
    if linter.strict:
        _UnitChecker(linter._report, path, index).visit(tree)
    return sorted(linter.findings, key=lambda f: (f.path, f.line, f.col, f.code))


def lint_source(
    source: str,
    path: str = "<string>",
    package: Optional[str] = None,
) -> List[LintFinding]:
    """Lint one source string; ``package`` forces the rule scope (e.g.
    ``"bench"`` applies the driver scope to fixture code). CSU003 binds
    positional call arguments against this source's own defs."""
    if package is None:
        package = _package_of(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [_syntax_error(path, error)]
    return _lint_tree(
        tree, source, path, package, build_def_index([(path, tree)])
    )


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
    """Lint files/directories together (one def-name index over all of
    them); returns (findings, files scanned)."""
    parsed: List[Tuple[str, str, ast.AST]] = []
    errors: Dict[str, LintFinding] = {}
    # A file named twice (a directory plus a file inside it) is linted
    # once, so its defs enter the index once and its findings print once.
    unique: Dict[str, str] = {}
    for file_path in _iter_python_files(paths):
        unique.setdefault(os.path.normpath(file_path), file_path)
    file_paths = list(unique.values())
    for file_path in file_paths:
        with open(file_path, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            parsed.append(
                (file_path, source, ast.parse(source, filename=file_path))
            )
        except SyntaxError as error:
            errors[file_path] = _syntax_error(file_path, error)
    index = build_def_index((path, tree) for path, _source, tree in parsed)
    findings: List[LintFinding] = []
    trees = {path: (source, tree) for path, source, tree in parsed}
    for file_path in file_paths:
        if file_path in errors:
            findings.append(errors[file_path])
            continue
        source, tree = trees[file_path]
        findings.extend(_lint_tree(
            tree, source, file_path,
            package if package is not None else _package_of(file_path),
            index,
        ))
    return findings, len(file_paths)


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
