"""Project symbol table + conservative call graph (``repro.analysis``).

The per-file linter (:mod:`repro.analysis.lint`) cannot see through a
call: a ``perf_counter()`` hidden in a helper two modules away from
``simcore`` sails straight past CSA001 because the helper's own package
is not strict. This module gives :mod:`repro.analysis.flow` the missing
whole-program view:

* **Extraction** — every module under the package root is parsed once
  into a :class:`ModuleSummary`: import aliases, module/class/function
  structure, parameter lists, best-effort local type hints (annotated
  parameters, ``x = ClassName(...)`` constructor assignments,
  ``self.attr = ClassName(...)`` attribute types) and every call site's
  attribute chain. Nondeterminism *sources* are found by re-running the
  CSA matchers with the strict rule scope forced on (see
  :func:`extract_module`), so the taint pass and the linter can never
  disagree about what counts as a source.
* **Resolution** — call chains are resolved against the symbol table:
  bare names through imports to module functions, ``self.m()`` through
  the class and its project bases, ``obj.m()`` through the inferred
  receiver type, module-level singletons (``_BIG_ETA.value``) through
  module variable types, and — when the receiver is unknown — a *duck*
  edge to the method's unique project-wide definition. Calls that stay
  ambiguous (unknown receiver and zero or several candidate classes,
  bare calls of local callables) land on an explicit
  :attr:`CallGraph.worklist` instead of silently vanishing.

Known conservatism (also summarised in DESIGN.md): nested functions and
lambdas are attributed to their enclosing def; property *reads* are not
calls and are not traversed; module-level statements form no node;
multi-candidate dynamic calls are reported, not expanded.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis import lint

__all__ = [
    "SOURCE_KIND_BY_RULE",
    "SourceSite",
    "CallSite",
    "FunctionInfo",
    "ClassInfo",
    "ModuleSummary",
    "CallGraph",
    "UnresolvedCall",
    "extract_module",
    "build_graph",
    "iter_package_files",
]

#: CSA rule -> taint-source kind; the taint pass *reuses* the linter's
#: matchers, so these five rules are the single definition of what a
#: nondeterminism source is.
SOURCE_KIND_BY_RULE: Dict[str, str] = {
    "CSA001": "clock",
    "CSA002": "rng",
    "CSA007": "env",
    "CSA003": "order",
    "CSA008": "order",
}

#: methods of builtin containers/strings/files — an unknown-receiver
#: call of one of these is assumed to be the builtin, not a project
#: method, and is dropped rather than duck-dispatched
_BUILTIN_METHODS = frozenset({
    "append", "extend", "insert", "remove", "clear", "copy", "count",
    "index", "sort", "reverse", "pop", "popleft", "appendleft",
    "keys", "values", "items", "update", "setdefault", "discard",
    "union", "intersection", "difference", "symmetric_difference",
    "split", "rsplit", "join", "strip", "lstrip", "rstrip", "format",
    "startswith", "endswith", "replace", "lower", "upper", "encode",
    "decode", "splitlines", "partition", "rpartition", "ljust", "rjust",
    "zfill", "title", "capitalize", "casefold", "find", "rfind",
    "read", "write", "readline", "readlines", "close", "flush", "seek",
    "tell", "add_argument", "add_parser", "parse_args", "getvalue",
    "hexdigest", "digest", "tobytes", "astype", "tolist", "item",
    "fileno", "isoformat", "total_seconds", "bit_length", "to_bytes",
})

_CONTRACT_RE = lint.DET_CONTRACT_RE
_DET_SUPPRESS_RE = lint.DET_SUPPRESS_RE


@dataclass(frozen=True)
class SourceSite:
    """One nondeterminism source inside a function body."""

    kind: str  # clock | rng | env | order
    rule: str  # the CSA rule that matched
    line: int
    detail: str


@dataclass(frozen=True)
class CallSite:
    """One call expression, as the raw attribute chain of its callee.

    ``chain`` is ``("self", "simulator", "run")`` for
    ``self.simulator.run(...)``; a leading ``"?"`` marks a receiver that
    is not a plain name chain (a call result, subscript, …).
    """

    line: int
    chain: Tuple[str, ...]


@dataclass
class FunctionInfo:
    """A module-level function or a method, with everything the flow
    pass needs: sources, outgoing calls, and local type hints."""

    qualname: str
    module: str
    cls: Optional[str]
    name: str
    line: int
    end_line: int
    params: Tuple[str, ...]
    contract: Optional[str]  # justification text; "" = missing reason
    sources: Tuple[SourceSite, ...] = ()
    calls: Tuple[CallSite, ...] = ()
    local_types: Dict[str, str] = field(default_factory=dict)

    @property
    def short(self) -> str:
        return f"{self.cls}.{self.name}" if self.cls else self.name


@dataclass
class ClassInfo:
    qualname: str
    module: str
    name: str
    line: int
    bases: Tuple[str, ...]
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    module: str
    package: str
    path: str
    aliases: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    module_var_types: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class UnresolvedCall:
    """A dynamic call the resolver could not pin to one target."""

    caller: str
    line: int
    chain: Tuple[str, ...]
    reason: str
    candidates: Tuple[str, ...] = ()


def _chain_of(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """The callee as a name chain; ``("?", ..)`` for non-name roots."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif parts:
        parts.append("?")
    else:
        return None
    return tuple(reversed(parts))


def _class_name_of(value: ast.AST) -> Optional[str]:
    """``ClassName`` / ``mod.ClassName`` when ``value`` is a direct
    constructor-looking call (capitalised last component)."""
    if not isinstance(value, ast.Call):
        return None
    chain = _chain_of(value.func)
    if chain is None or "?" in chain:
        return None
    last = chain[-1]
    if not last[:1].isupper():
        return None
    return ".".join(chain)


def _annotation_name(annotation: Optional[ast.AST]) -> Optional[str]:
    """The dotted class name of a simple annotation (``Foo``,
    ``mod.Foo``, ``Optional[Foo]``, ``"Foo"``)."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        name = annotation.value.strip().strip('"\'')
        return name or None
    if isinstance(annotation, ast.Subscript):
        chain = _chain_of(annotation.value)
        if chain and chain[-1] in ("Optional",):
            return _annotation_name(annotation.slice)
        return None
    chain = _chain_of(annotation)
    if chain is None or "?" in chain:
        return None
    return ".".join(chain)


class _Extractor(ast.NodeVisitor):
    """One pass over a module AST building the structural summary."""

    def __init__(self, summary: ModuleSummary, lines: Sequence[str]) -> None:
        self.summary = summary
        self.lines = lines
        self._class_stack: List[ClassInfo] = []
        self._current: Optional[FunctionInfo] = None

    # -- imports -----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self.summary.aliases[alias.asname] = alias.name
            else:
                head = alias.name.partition(".")[0]
                self.summary.aliases[head] = head

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level:
            # Resolve the relative import against this module's package.
            parts = self.summary.module.split(".")
            base = parts[: len(parts) - node.level]
            module = ".".join(base + ([module] if module else []))
        for alias in node.names:
            if alias.name == "*":
                continue
            self.summary.aliases[alias.asname or alias.name] = (
                f"{module}.{alias.name}" if module else alias.name
            )

    # -- classes -----------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bases = []
        for base in node.bases:
            chain = _chain_of(base)
            if chain and "?" not in chain:
                bases.append(".".join(chain))
        info = ClassInfo(
            qualname=f"{self.summary.module}.{node.name}",
            module=self.summary.module,
            name=node.name,
            line=node.lineno,
            bases=tuple(bases),
        )
        self.summary.classes[node.name] = info
        self._class_stack.append(info)
        for child in node.body:
            self.visit(child)
        self._class_stack.pop()

    # -- functions ---------------------------------------------------------

    def _contract_for(self, node: ast.AST) -> Optional[str]:
        """The ``# det: pure`` justification, if the def (or the line
        right above it) carries the contract comment."""
        lineno = getattr(node, "lineno", 0)
        for number in (lineno, lineno - 1):
            if 1 <= number <= len(self.lines):
                match = _CONTRACT_RE.search(self.lines[number - 1])
                if match:
                    reason = match.group(1).strip().lstrip("—-:( ").rstrip(") ")
                    return reason
        return None

    def _visit_def(self, node: Any) -> None:
        if self._current is not None:
            # Nested def: its body is attributed to the enclosing
            # function (it runs, conservatively, whenever the outer
            # function runs). Keep walking for calls/types.
            self.generic_visit(node)
            return
        cls = self._class_stack[-1] if self._class_stack else None
        args = node.args
        all_args = (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )
        params = tuple(
            a.arg for a in all_args if a.arg not in ("self", "cls")
        )
        qual = (
            f"{self.summary.module}.{cls.name}.{node.name}"
            if cls
            else f"{self.summary.module}.{node.name}"
        )
        info = FunctionInfo(
            qualname=qual,
            module=self.summary.module,
            cls=cls.name if cls else None,
            name=node.name,
            line=node.lineno,
            end_line=getattr(node, "end_lineno", node.lineno) or node.lineno,
            params=params,
            contract=self._contract_for(node),
        )
        for arg in all_args:
            name = _annotation_name(arg.annotation)
            if name:
                info.local_types[arg.arg] = name
        if cls is not None:
            cls.methods[node.name] = info
        else:
            self.summary.functions[node.name] = info
        self._current = info
        calls: List[CallSite] = []
        self._collect_body(node, info, calls)
        info.calls = tuple(calls)
        self._current = None

    visit_FunctionDef = _visit_def
    visit_AsyncFunctionDef = _visit_def

    def _collect_body(
        self, node: ast.AST, info: FunctionInfo, calls: List[CallSite]
    ) -> None:
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                chain = _chain_of(child.func)
                if chain is not None:
                    calls.append(
                        CallSite(line=child.lineno, chain=chain)
                    )
            elif isinstance(child, ast.Assign) and len(child.targets) == 1:
                target = child.targets[0]
                cls_name = _class_name_of(child.value)
                if cls_name is None:
                    continue
                if isinstance(target, ast.Name):
                    info.local_types[target.id] = cls_name
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and self._class_stack
                ):
                    self._class_stack[-1].attr_types.setdefault(
                        target.attr, cls_name
                    )
            elif isinstance(child, ast.AnnAssign) and isinstance(
                child.target, ast.Name
            ):
                name = _annotation_name(child.annotation)
                if name:
                    info.local_types[child.target.id] = name

    # -- module level ------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        # Module-level singletons: ``_BIG_ETA = PiecewiseRoofline(...)``.
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            cls_name = _class_name_of(node.value)
            if cls_name:
                self.summary.module_var_types[node.targets[0].id] = cls_name
        self.generic_visit(node)


def _det_suppressed(line_text: str, kind: str) -> bool:
    """Does the line carry a ``# det: ignore[DET00x]`` matching the
    source kind?"""
    match = _DET_SUPPRESS_RE.search(line_text)
    if not match:
        return False
    codes = {c.strip() for c in match.group(1).split(",")}
    wanted = {
        "clock": "DET001",
        "rng": "DET002",
        "env": "DET003",
        "order": "DET004",
    }[kind]
    return wanted in codes


def extract_module(path: str, module: str) -> ModuleSummary:
    """Parse one file into a :class:`ModuleSummary`.

    Sources are detected by re-running the CSA linter with the strict
    scope forced on (``package="simcore"``), so a clock/RNG/env/order
    construct is a taint source *everywhere* — that is the whole point
    of the flow pass. CSA suppressions count: a site the linter was
    told to ignore (with its audited why-comment) is not a source;
    ``# det: ignore[DET00x]`` works the same way for flow-only sites.
    """
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    package = module.split(".")[1] if module.count(".") else ""
    summary = ModuleSummary(module=module, package=package, path=path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return summary
    lines = source.splitlines()
    _Extractor(summary, lines).visit(tree)

    # Sources via the CSA matchers, attributed to the enclosing def.
    spans: List[FunctionInfo] = list(summary.functions.values())
    for cls in summary.classes.values():
        spans.extend(cls.methods.values())
    per_kind: Dict[int, List[SourceSite]] = {}
    for finding in lint.lint_source(source, path=path, package="simcore"):
        kind = SOURCE_KIND_BY_RULE.get(finding.code)
        if kind is None:
            continue
        text = lines[finding.line - 1] if finding.line <= len(lines) else ""
        if _det_suppressed(text, kind):
            continue
        site = SourceSite(
            kind=kind,
            rule=finding.code,
            line=finding.line,
            detail=finding.message.split(";")[0],
        )
        per_kind.setdefault(finding.line, []).append(site)
    for info in spans:
        sources: List[SourceSite] = []
        for line, sites in per_kind.items():
            if info.line <= line <= info.end_line:
                sources.extend(sites)
        info.sources = tuple(
            sorted(sources, key=lambda s: (s.line, s.rule))
        )
    return summary


def iter_package_files(root: str) -> Iterable[Tuple[str, str]]:
    """Yield ``(path, dotted module name)`` for every ``.py`` under the
    package directory ``root`` (sorted — CSA008 applies to us too)."""
    root = os.path.abspath(root)
    package_name = os.path.basename(root.rstrip(os.sep))
    for directory, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            relative = os.path.relpath(path, root)
            parts = [package_name] + relative.split(os.sep)
            parts[-1] = parts[-1][:-3]
            if parts[-1] == "__init__":
                parts.pop()
            yield path, ".".join(parts)


class CallGraph:
    """Resolved nodes + edges over every extracted module."""

    def __init__(self, modules: Sequence[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {
            m.module: m for m in modules
        }
        #: qualname -> FunctionInfo
        self.functions: Dict[str, FunctionInfo] = {}
        #: class qualname -> ClassInfo
        self.classes: Dict[str, ClassInfo] = {}
        #: bare class name -> [class qualnames]
        self._class_index: Dict[str, List[str]] = {}
        #: method name -> [class qualnames defining it]
        self._method_index: Dict[str, List[str]] = {}
        #: caller qualname -> {callee qualname}
        self.edges: Dict[str, Set[str]] = {}
        self.worklist: List[UnresolvedCall] = []
        #: dotted names of calls that left the project (stdlib/numpy/…);
        #: flow.py audits these against its external contracts registry
        self.externals: Set[str] = set()
        for summary in modules:
            for fn in summary.functions.values():
                self.functions[fn.qualname] = fn
            for cls in summary.classes.values():
                self.classes[cls.qualname] = cls
                self._class_index.setdefault(cls.name, []).append(
                    cls.qualname
                )
                for method in cls.methods.values():
                    self.functions[method.qualname] = method
                    self._method_index.setdefault(
                        method.name, []
                    ).append(cls.qualname)
        self._resolve_all()

    # -- lookup helpers ----------------------------------------------------

    def _resolve_class_name(
        self, name: str, module: ModuleSummary
    ) -> Optional[ClassInfo]:
        """A raw dotted class name (as written in ``module``) to its
        :class:`ClassInfo`."""
        head, _, rest = name.partition(".")
        origin = module.aliases.get(head, head)
        dotted = f"{origin}.{rest}" if rest else origin
        if dotted in self.classes:
            return self.classes[dotted]
        # ``ClassName`` defined in the same module.
        if not rest and name in module.classes:
            return module.classes[name]
        # ``mod.ClassName`` where origin is a module we know.
        owner, _, cls_name = dotted.rpartition(".")
        owning = self.modules.get(owner)
        if owning is not None and cls_name in owning.classes:
            return owning.classes[cls_name]
        # Unique bare name anywhere in the project.
        candidates = self._class_index.get(dotted.rpartition(".")[-1], [])
        if len(candidates) == 1:
            return self.classes[candidates[0]]
        return None

    def _mro(self, cls: ClassInfo) -> List[ClassInfo]:
        """The class and its project bases, linearised breadth-first."""
        seen: List[ClassInfo] = []
        queue = [cls]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.append(current)
            module = self.modules.get(current.module)
            if module is None:
                continue
            for base in current.bases:
                resolved = self._resolve_class_name(base, module)
                if resolved is not None:
                    queue.append(resolved)
        return seen

    def _method_on(
        self, cls: ClassInfo, method: str
    ) -> Optional[FunctionInfo]:
        for candidate in self._mro(cls):
            if method in candidate.methods:
                return candidate.methods[method]
        return None

    # -- resolution --------------------------------------------------------

    def _add_edge(self, caller: FunctionInfo, callee: FunctionInfo) -> None:
        self.edges.setdefault(caller.qualname, set()).add(callee.qualname)

    def _constructor_edges(
        self, caller: FunctionInfo, cls: ClassInfo
    ) -> None:
        init = self._method_on(cls, "__init__")
        if init is not None:
            self._add_edge(caller, init)
        post = self._method_on(cls, "__post_init__")
        if post is not None:
            self._add_edge(caller, post)

    def _duck(
        self, caller: FunctionInfo, site: CallSite, method: str
    ) -> None:
        """Unknown receiver: dispatch to the method's unique project
        definition, else record the ambiguity on the worklist."""
        if method in _BUILTIN_METHODS:
            return
        owners = self._method_index.get(method, [])
        if len(owners) == 1:
            target = self.classes[owners[0]].methods[method]
            self._add_edge(caller, target)
        elif len(owners) > 1:
            self.worklist.append(
                UnresolvedCall(
                    caller=caller.qualname,
                    line=site.line,
                    chain=site.chain,
                    reason="ambiguous dynamic dispatch",
                    candidates=tuple(
                        f"{owner}.{method}" for owner in sorted(owners)
                    ),
                )
            )
        # No project class defines it: assumed external (stdlib/numpy
        # object method); sources inside externals are matched at the
        # call site by the CSA matchers, not here.

    def _resolve_call(
        self, caller: FunctionInfo, module: ModuleSummary, site: CallSite
    ) -> None:
        chain = site.chain
        head = chain[0]

        # Receiver is an expression (call result, subscript…): only the
        # trailing method name is known.
        if head == "?":
            self._duck(caller, site, chain[-1])
            return

        # self.method() / self.attr.method() / cls.method()
        if head in ("self", "cls") and caller.cls is not None:
            own = module.classes.get(caller.cls)
            if own is None:
                return
            if len(chain) == 2:
                target = self._method_on(own, chain[1])
                if target is not None:
                    self._add_edge(caller, target)
                else:
                    # Maybe a callable attribute with a known class type
                    attr_type = own.attr_types.get(chain[1])
                    if attr_type is not None:
                        cls_info = self._resolve_class_name(
                            attr_type, module
                        )
                        if cls_info is not None:
                            call = self._method_on(cls_info, "__call__")
                            if call is not None:
                                self._add_edge(caller, call)
                                return
                    self._duck(caller, site, chain[1])
                return
            if len(chain) == 3:
                attr_type = own.attr_types.get(chain[1])
                if attr_type is not None:
                    cls_info = self._resolve_class_name(attr_type, module)
                    if cls_info is not None:
                        target = self._method_on(cls_info, chain[2])
                        if target is not None:
                            self._add_edge(caller, target)
                            return
                self._duck(caller, site, chain[-1])
                return
            self._duck(caller, site, chain[-1])
            return

        # Local variable with an inferred class type.
        local_type = caller.local_types.get(head)
        if local_type is not None and len(chain) >= 2:
            cls_info = self._resolve_class_name(local_type, module)
            if cls_info is not None:
                if len(chain) == 2:
                    target = self._method_on(cls_info, chain[1])
                    if target is not None:
                        self._add_edge(caller, target)
                        return
                elif len(chain) == 3:
                    attr_type = cls_info.attr_types.get(chain[1])
                    if attr_type is not None:
                        attr_module = self.modules.get(cls_info.module)
                        attr_cls = self._resolve_class_name(
                            attr_type, attr_module or module
                        )
                        if attr_cls is not None:
                            target = self._method_on(attr_cls, chain[2])
                            if target is not None:
                                self._add_edge(caller, target)
                                return
            self._duck(caller, site, chain[-1])
            return

        # Module-level singleton (``_BIG_ETA.value``).
        var_type = module.module_var_types.get(head)
        if var_type is not None and len(chain) >= 2:
            cls_info = self._resolve_class_name(var_type, module)
            if cls_info is not None:
                target = self._method_on(cls_info, chain[-1])
                if target is not None:
                    self._add_edge(caller, target)
                    return
            self._duck(caller, site, chain[-1])
            return

        # Resolve the full dotted chain through the import aliases.
        origin = module.aliases.get(head)
        if origin is None and len(chain) >= 2:
            # The receiver is a plain object we know nothing about (an
            # untyped parameter, a value plucked from a container…):
            # dynamic dispatch on the method name.
            self._duck(caller, site, chain[-1])
            return
        dotted = (
            f"{origin}.{'.'.join(chain[1:])}" if origin and len(chain) > 1
            else origin if origin
            else ".".join(chain)
        )

        # Bare name: same-module function or class, or imported symbol.
        if len(chain) == 1:
            if head in module.functions:
                self._add_edge(caller, module.functions[head])
                return
            if head in module.classes:
                self._constructor_edges(caller, module.classes[head])
                return
            if origin is not None:
                self._resolve_dotted(caller, site, origin)
                return
            if head in caller.local_types or head in caller.params:
                self.worklist.append(
                    UnresolvedCall(
                        caller=caller.qualname,
                        line=site.line,
                        chain=chain,
                        reason="call of a local callable value",
                    )
                )
            else:
                self.externals.add(head)  # builtin / module global
            return

        self._resolve_dotted(caller, site, dotted)

    def _resolve_dotted(
        self, caller: FunctionInfo, site: CallSite, dotted: str
    ) -> None:
        """``pkg.mod.symbol[.method]`` to a project function/class."""
        # Direct function qualname.
        if dotted in self.functions:
            self._add_edge(caller, self.functions[dotted])
            return
        if dotted in self.classes:
            self._constructor_edges(caller, self.classes[dotted])
            return
        owner, _, last = dotted.rpartition(".")
        # ``module.func`` / ``module.Class``.
        owning = self.modules.get(owner)
        if owning is not None:
            if last in owning.functions:
                self._add_edge(caller, owning.functions[last])
                return
            if last in owning.classes:
                self._constructor_edges(caller, owning.classes[last])
                return
            # Module attribute we do not know (re-export, constant).
            self.worklist.append(
                UnresolvedCall(
                    caller=caller.qualname,
                    line=site.line,
                    chain=site.chain,
                    reason=f"unknown attribute {last!r} of module {owner}",
                )
            )
            return
        # ``module.Class.method`` or ``alias_of_class.method``.
        if owner in self.classes:
            target = self._method_on(self.classes[owner], last)
            if target is not None:
                self._add_edge(caller, target)
                return
        cls_owner, _, cls_name = owner.rpartition(".")
        owning = self.modules.get(cls_owner)
        if owning is not None and cls_name in owning.classes:
            target = self._method_on(owning.classes[cls_name], last)
            if target is not None:
                self._add_edge(caller, target)
            else:
                self._duck(caller, site, last)
            return
        # ``module.SINGLETON.method`` — a module-level instance imported
        # from elsewhere (``from repro.simcore.boards import _BIG_ETA``).
        if owning is not None and cls_name in owning.module_var_types:
            cls_info = self._resolve_class_name(
                owning.module_var_types[cls_name], owning
            )
            if cls_info is not None:
                target = self._method_on(cls_info, last)
                if target is not None:
                    self._add_edge(caller, target)
                    return
            self._duck(caller, site, last)
            return
        head = dotted.split(".")[0]
        if head in self.modules or any(
            m.startswith(head + ".") for m in self.modules
        ):
            # Rooted in the project but unresolvable — keep it visible.
            self.worklist.append(
                UnresolvedCall(
                    caller=caller.qualname,
                    line=site.line,
                    chain=site.chain,
                    reason=f"unresolved project reference {dotted!r}",
                )
            )
            return
        # Fully external (stdlib/numpy/…): sources are matched at the
        # call site by the CSA matchers; everything else is assumed
        # pure per the external contracts registry in repro.analysis.flow,
        # which audits this recorded set.
        self.externals.add(dotted)

    def _resolve_all(self) -> None:
        for summary in self.modules.values():
            fns = list(summary.functions.values())
            for cls in summary.classes.values():
                fns.extend(cls.methods.values())
            for fn in fns:
                for site in fn.calls:
                    self._resolve_call(fn, summary, site)

    # -- queries -----------------------------------------------------------

    def callees(self, qualname: str) -> Set[str]:
        return self.edges.get(qualname, set())

    def match(
        self, module_prefix: str, cls: Optional[str], method_pattern: Any
    ) -> List[FunctionInfo]:
        """Functions matching (module prefix, class selector, compiled
        method-name pattern). ``cls`` is a class name, ``"*"`` for any
        class, or None for module-level functions."""
        hits = []
        for fn in self.functions.values():
            if not fn.module.startswith(module_prefix):
                continue
            if cls is None and fn.cls is not None:
                continue
            if cls is not None and cls != "*" and fn.cls != cls:
                continue
            if cls == "*" and fn.cls is None:
                continue
            if method_pattern.fullmatch(fn.name):
                hits.append(fn)
        return sorted(hits, key=lambda f: f.qualname)


def build_graph(root: str) -> CallGraph:
    """Extract every module under ``root`` and resolve the graph."""
    summaries = [
        extract_module(path, module)
        for path, module in iter_package_files(root)
    ]
    return CallGraph(summaries)
