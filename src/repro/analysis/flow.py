"""Whole-program determinism taint + unit consistency
(``python -m repro.analysis.flow``).

Sitting on top of the project call graph (:mod:`repro.analysis.callgraph`),
this module runs the two analyses the per-file linter cannot:

**Determinism taint (DET001–DET005).** Nondeterminism sources — wall
clocks, global/unseeded RNGs, environment reads, set-order iteration and
unsorted filesystem enumeration, found with the *same* CSA matchers the
linter uses — are propagated transitively through the call graph. Any
path from a strict-package entry point to a source is a finding, printed
with the full call chain:

========  ==================================================================
code      rule
========  ==================================================================
DET001    a wall-clock read is reachable from a deterministic entry point
DET002    a global/unseeded RNG or OS entropy source is reachable
DET003    an environment read is reachable
DET004    an iteration-order hazard (set iteration, unsorted directory
          listing) is reachable
DET005    a ``# det: pure`` contract is violated: the audited function
          contains a direct unsuppressed source, or carries no
          justification
========  ==================================================================

Entry points are the simulator's public faces: ``Scheduler.schedule``,
``PipelineExecutor.run*``, the :class:`~repro.simcore.engine.Simulator`
event machinery, and every compressor ``compress``/``decompress``.

Chains are cut by audited contracts: a ``# det: pure — why`` comment on
a def marks the function as verified side-effect-free for simulation
results (typical for write-only instrumentation and for conservative
duck-dispatch edges), and :data:`EXTERNAL_CONTRACTS` plays the same role
for stdlib/numpy calls. Every project contract is re-verified shallowly
— a direct source inside a contracted body is DET005; its transitive
callees remain the auditor's responsibility and are listed in the JSON
report for review. Individual source sites are suppressed with
``# det: ignore[DET00x]`` (or their already-audited ``# csa: ignore``
equivalent) plus a nearby why-comment.

**Unit consistency (CSU001–CSU003).** The repo encodes units in names —
``*_us``, ``*_mhz``, ``*_mj``, ``*_bytes``, ``*_us_per_byte`` — and this
pass infers them across expressions, assignments, returns and
call-argument bindings:

========  ==================================================================
code      rule
========  ==================================================================
CSU001    addition/subtraction of two quantities with different inferred
          units (``x_us + y_uj``)
CSU002    comparison of two quantities with different inferred units
CSU003    unit-changing binding without an explicit conversion: an
          assignment, return or call-argument where the value's unit
          contradicts the target name's unit
========  ==================================================================

Multiplying or dividing by a literal or an unclassified name makes the
unit *unknown* (that is what an explicit conversion factor looks like),
so only structurally pure unit expressions are ever flagged — the pass
is deliberately conservative. Suppress single sites with
``# csu: ignore[CSU00x]``.

Exit codes follow the analysis-CLI convention: 0 clean, 1 unsuppressed
findings, 2 usage error (unreadable path, bad report destination).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import sys
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis import lint
from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    SourceSite,
    build_graph,
)

__all__ = [
    "FLOW_RULES",
    "STRICT_PACKAGES",
    "ENTRY_POINTS",
    "EXTERNAL_CONTRACTS",
    "FlowFinding",
    "FlowReport",
    "analyze",
    "check_units",
    "main",
]

#: rule code -> one-line summary (rendered by the README/DESIGN tables)
FLOW_RULES: Dict[str, str] = {
    "DET001": "wall-clock read reachable from a deterministic entry point",
    "DET002": "global/unseeded RNG or entropy source reachable",
    "DET003": "environment read reachable",
    "DET004": "iteration-order hazard reachable (set/dir-order)",
    "DET005": "det: pure contract violated (direct source or missing "
              "justification)",
    "CSU001": "addition/subtraction of mismatched units",
    "CSU002": "comparison of mismatched units",
    "CSU003": "unit-changing binding without an explicit conversion",
}

_KIND_TO_CODE = {
    "clock": "DET001",
    "rng": "DET002",
    "env": "DET003",
    "order": "DET004",
}

#: packages whose entry points anchor the taint pass and whose files get
#: the unit checker; `control` joins the CSA strict set because the
#: online controller's decisions feed directly back into measured runs
STRICT_PACKAGES = frozenset(lint.STRICT_PACKAGES | {"control"})

#: (module prefix *below the package root*, class selector, method
#: regex) — the strict-package entry points whose transitive purity the
#: headline claims rest on. Root-relative so fixture packages in tests
#: anchor the same way the real ``repro`` package does. Class selector:
#: a name, "*" for any class, None for module functions.
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str], ...] = (
    ("core.scheduler", "Scheduler", r"schedule"),
    ("runtime.executor", "PipelineExecutor", r"run.*"),
    ("simcore.engine", "Simulator", r"run|timeout|event|process|all_of"),
    ("simcore.engine", "Store", r"put|get"),
    ("simcore.engine", "Event", r"succeed"),
    ("compression", "*", r"compress|decompress"),
    ("fleet.gateway", "Gateway", r"run"),
)

#: stdlib/numpy roots audited as determinism-safe: calling into them
#: introduces no wall clock, entropy, env read or iteration-order
#: hazard (the CSA matchers catch the exceptions — time.*, random.*,
#: os.environ/getenv/urandom, glob.* — at the call site itself, before
#: the external cut applies). Externals *outside* this registry are
#: surfaced in the report's ``external_unaudited`` section.
EXTERNAL_CONTRACTS = frozenset({
    # builtins (callables surface as bare names)
    "abs", "all", "any", "bool", "bytes", "bytearray", "callable", "chr",
    "dict", "divmod", "enumerate", "filter", "float", "format", "frozenset",
    "getattr", "hasattr", "hash", "id", "int", "isinstance", "issubclass",
    "iter", "len", "list", "map", "max", "min", "next", "object", "ord",
    "pow", "print", "range", "repr", "reversed", "round", "set", "setattr",
    "sorted", "str", "sum", "super", "tuple", "type", "vars", "zip",
    "Exception", "ValueError", "TypeError", "KeyError", "IndexError",
    "RuntimeError", "RuntimeWarning", "NotImplementedError", "StopIteration",
    "AttributeError", "OSError", "AssertionError", "DeprecationWarning",
    "open",
    # stdlib module roots
    "math", "cmath", "statistics", "itertools", "functools", "operator",
    "collections", "heapq", "bisect", "array", "struct", "enum",
    "dataclasses", "typing", "abc", "contextlib", "copy", "json", "re",
    "string", "textwrap", "warnings", "weakref", "zlib", "hashlib",
    "pickle", "io", "gc", "threading", "numbers", "fractions", "decimal",
    # numpy minus numpy.random (CSA002 matches the legacy global RNG)
    "numpy", "np",
})

_CSU_SUPPRESS_RE = lint.CSU_SUPPRESS_RE


@dataclass(frozen=True)
class FlowFinding:
    """One taint or unit finding."""

    code: str
    path: str
    line: int
    message: str
    chain: Tuple[str, ...] = ()

    def format(self) -> str:
        head = f"{self.path}:{self.line}: {self.code} {self.message}"
        if not self.chain:
            return head
        rendered = "\n".join(
            f"    {'-> ' if index else '   '}{hop}"
            for index, hop in enumerate(self.chain)
        )
        return f"{head}\n{rendered}"


@dataclass
class FlowReport:
    """Everything one run of the flow pass learned."""

    root: str
    files: int
    functions: int
    entry_points: List[str]
    findings: List[FlowFinding]
    contracts: Dict[str, str]
    contract_subtrees: Dict[str, List[str]]
    worklist: List[Dict[str, Any]]
    external_unaudited: List[str]

    def payload(self) -> Dict[str, Any]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return {
            "version": 1,
            "root": self.root,
            "files": self.files,
            "functions": self.functions,
            "entry_points": self.entry_points,
            "findings": [
                {
                    "code": f.code,
                    "path": f.path,
                    "line": f.line,
                    "message": f.message,
                    "chain": list(f.chain),
                }
                for f in self.findings
            ],
            "counts": dict(sorted(counts.items())),
            "contracts": dict(sorted(self.contracts.items())),
            "contract_subtrees": {
                k: list(v) for k, v in sorted(self.contract_subtrees.items())
            },
            "worklist": self.worklist,
            "external_unaudited": self.external_unaudited,
            "rules": FLOW_RULES,
        }


# -- determinism taint --------------------------------------------------------


def _entry_functions(graph: CallGraph) -> List[FunctionInfo]:
    hits: Dict[str, FunctionInfo] = {}
    roots = {module.split(".")[0] for module in graph.modules}
    for module_prefix, cls, pattern in ENTRY_POINTS:
        compiled = re.compile(pattern)
        for root in sorted(roots):
            for fn in graph.match(f"{root}.{module_prefix}", cls, compiled):
                hits[fn.qualname] = fn
    return sorted(hits.values(), key=lambda f: f.qualname)


def _hop(fn: FunctionInfo) -> str:
    return f"{fn.short} ({fn.module}:{fn.line})"


def _reach(
    graph: CallGraph, start: FunctionInfo
) -> Dict[str, Optional[str]]:
    """BFS over call edges from ``start``; contracted callees are not
    entered (the audited cut). Returns node -> BFS parent."""
    parents: Dict[str, Optional[str]] = {start.qualname: None}
    queue = [start.qualname]
    while queue:
        current = queue.pop(0)
        fn = graph.functions.get(current)
        if fn is None:
            continue
        if fn.contract is not None and current != start.qualname:
            continue  # audited pure: do not traverse into it
        for callee in sorted(graph.callees(current)):
            if callee not in parents:
                parents[callee] = current
                queue.append(callee)
    return parents


def _chain(
    graph: CallGraph, parents: Mapping[str, Optional[str]], node: str
) -> Tuple[str, ...]:
    hops: List[str] = []
    cursor: Optional[str] = node
    while cursor is not None:
        fn = graph.functions[cursor]
        hops.append(_hop(fn))
        cursor = parents[cursor]
    return tuple(reversed(hops))


def _taint_findings(graph: CallGraph) -> Tuple[List[FlowFinding], List[str]]:
    findings: List[FlowFinding] = []
    entries = _entry_functions(graph)
    #: (path, line, rule) -> shortest chain seen, for deduplication
    best: Dict[Tuple[str, int, str], Tuple[Tuple[str, ...], SourceSite, FunctionInfo]] = {}
    for entry in entries:
        parents = _reach(graph, entry)
        for node in parents:
            fn = graph.functions.get(node)
            if fn is None:
                continue
            if fn.contract is not None and node != entry.qualname:
                continue  # sources inside an audited body are its DET005 risk
            for source in fn.sources:
                key = (fn.module, source.line, source.rule)
                chain = _chain(graph, parents, node)
                existing = best.get(key)
                if existing is None or len(chain) < len(existing[0]):
                    best[key] = (chain, source, fn)
    for (module, line, _rule), (chain, source, fn) in sorted(best.items()):
        code = _KIND_TO_CODE[source.kind]
        findings.append(
            FlowFinding(
                code=code,
                path=graph.modules[module].path,
                line=line,
                message=(
                    f"{source.detail} (via {source.rule}) is reachable "
                    f"from entry point {chain[0].split(' ')[0]}"
                ),
                chain=chain,
            )
        )
    return findings, [f"{e.short} ({e.module})" for e in entries]


def _contract_findings(
    graph: CallGraph,
) -> Tuple[List[FlowFinding], Dict[str, str], Dict[str, List[str]]]:
    """DET005 checks plus the contract registry/subtree report data."""
    findings: List[FlowFinding] = []
    contracts: Dict[str, str] = {}
    subtrees: Dict[str, List[str]] = {}
    for fn in sorted(graph.functions.values(), key=lambda f: f.qualname):
        if fn.contract is None:
            continue
        contracts[fn.qualname] = fn.contract
        path = graph.modules[fn.module].path
        if not fn.contract:
            findings.append(
                FlowFinding(
                    code="DET005",
                    path=path,
                    line=fn.line,
                    message=(
                        f"det: pure contract on {fn.short} carries no "
                        "justification — say why it is audited pure"
                    ),
                )
            )
        for source in fn.sources:
            findings.append(
                FlowFinding(
                    code="DET005",
                    path=path,
                    line=source.line,
                    message=(
                        f"det: pure contract on {fn.short} is violated: "
                        f"{source.detail} inside the audited body"
                    ),
                    chain=(_hop(fn),),
                )
            )
        # The audited function's transitive callees, for the reviewer.
        parents = _reach(graph, fn)
        subtrees[fn.qualname] = sorted(
            node for node in parents if node != fn.qualname
        )
    return findings, contracts, subtrees


# -- unit consistency ---------------------------------------------------------

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


class _UnitChecker(ast.NodeVisitor):
    """Per-module unit inference + mismatch detection."""

    def __init__(
        self,
        path: str,
        source: str,
        param_units: Mapping[str, Tuple[Tuple[str, Optional[Unit]], ...]],
    ) -> None:
        self.path = path
        self.findings: List[FlowFinding] = []
        self.suppressed: Dict[int, Set[str]] = {}
        for number, line in enumerate(source.splitlines(), start=1):
            match = _CSU_SUPPRESS_RE.search(line)
            if match:
                self.suppressed[number] = {
                    c.strip() for c in match.group(1).split(",") if c.strip()
                }
        #: resolved callee qualname -> ((param name, unit), ...)
        self.param_units = param_units
        self._function_units: List[Optional[Unit]] = []

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if code in self.suppressed.get(line, ()):
            return
        self.findings.append(
            FlowFinding(code=code, path=self.path, line=line, message=message)
        )

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
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
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

    def _visit_def(self, node: Any) -> None:
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
        key = f"{self.path}:{node.lineno}:{node.col_offset}"
        bindings = self.param_units.get(key)
        if bindings:
            for (param, unit), arg in zip(bindings, node.args):
                if unit is None:
                    continue
                actual = self.unit_of(arg)
                if actual is not None and actual != unit:
                    self._report(
                        node, "CSU003",
                        f"argument binds {format_unit(actual)} to "
                        f"parameter {param} ({format_unit(unit)}) without "
                        "an explicit conversion",
                    )
        self.generic_visit(node)


def _callee_param_units(
    graph: CallGraph, summary_module: str, source: str, path: str
) -> Dict[str, Tuple[Tuple[str, Optional[Unit]], ...]]:
    """Map ``path:line:col`` of each *resolved* call in the module to
    the callee's (param, unit) vector, so argument bindings can be
    checked against the callee's naming convention."""
    summary = graph.modules[summary_module]
    by_line: Dict[int, List[str]] = {}
    fns = list(summary.functions.values())
    for cls in summary.classes.values():
        fns.extend(cls.methods.values())
    result: Dict[str, Tuple[Tuple[str, Optional[Unit]], ...]] = {}
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return result
    # Re-resolve calls the same way the graph did, but keep line/col.
    for fn in fns:
        callees = graph.callees(fn.qualname)
        name_map: Dict[str, FunctionInfo] = {}
        for callee in callees:
            target = graph.functions.get(callee)
            if target is not None:
                name_map.setdefault(target.name, target)
        by_line.setdefault(fn.line, [])
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if not (fn.line <= node.lineno <= fn.end_line):
                continue
            callee_name = None
            if isinstance(node.func, ast.Name):
                callee_name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                callee_name = node.func.attr
            target = name_map.get(callee_name or "")
            if target is None:
                continue
            result[f"{path}:{node.lineno}:{node.col_offset}"] = tuple(
                (param, parse_unit(param)) for param in target.params
            )
    return result


def check_units(graph: CallGraph) -> List[FlowFinding]:
    """Run the CSU rules over every strict-package module."""
    findings: List[FlowFinding] = []
    for module in sorted(graph.modules):
        summary = graph.modules[module]
        if summary.package not in STRICT_PACKAGES:
            continue
        try:
            with open(summary.path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError:
            continue
        param_units = _callee_param_units(
            graph, module, source, summary.path
        )
        try:
            tree = ast.parse(source, filename=summary.path)
        except SyntaxError:
            continue
        checker = _UnitChecker(summary.path, source, param_units)
        checker.visit(tree)
        findings.extend(checker.findings)
    return findings


# -- orchestration ------------------------------------------------------------


def analyze(root: str) -> FlowReport:
    """Build the call graph and run both analyses."""
    graph = build_graph(root)
    taint, entries = _taint_findings(graph)
    contract_findings, contracts, subtrees = _contract_findings(graph)
    unit_findings = check_units(graph)
    findings = sorted(
        taint + contract_findings + unit_findings,
        key=lambda f: (f.path, f.line, f.code),
    )
    external_unaudited = sorted(
        name for name in graph.externals
        if name.split(".")[0] not in EXTERNAL_CONTRACTS
    )
    return FlowReport(
        root=root,
        files=len(graph.modules),
        functions=len(graph.functions),
        entry_points=entries,
        findings=findings,
        contracts=contracts,
        contract_subtrees=subtrees,
        worklist=[
            {
                "caller": item.caller,
                "line": item.line,
                "chain": list(item.chain),
                "reason": item.reason,
                "candidates": list(item.candidates),
            }
            for item in graph.worklist
        ],
        external_unaudited=external_unaudited,
    )


def _default_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.flow",
        description=(
            "whole-program determinism taint (DET001-DET005) and unit "
            "consistency (CSU001-CSU003) for the CStream reproduction"
        ),
    )
    parser.add_argument(
        "root", nargs="?", default=None,
        help="package directory to analyze (default: the installed "
        "repro package)",
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

    root = args.root or _default_root()
    if not os.path.isdir(root):
        print(f"error: not a directory: {root}", file=sys.stderr)
        return 2

    report = analyze(root)
    payload = report.payload()
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
        except OSError as error:
            print(f"error: cannot write report: {error}", file=sys.stderr)
            return 2
    if args.as_json:
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        for finding in report.findings:
            print(finding.format())
        status = (
            "clean" if not report.findings
            else f"{len(report.findings)} finding(s)"
        )
        print(
            f"analyzed {report.files} module(s), {report.functions} "
            f"function(s), {len(report.entry_points)} entry point(s): "
            f"{status}"
        )
        if report.worklist:
            print(
                f"note: {len(report.worklist)} unresolved dynamic "
                "call(s) on the worklist (see --json)"
            )
    return 1 if report.findings else 0


if __name__ == "__main__":
    sys.exit(main())
