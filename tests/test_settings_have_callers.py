"""A setting nothing sets is a constant.

Every defaulted field of a ``*Config``, ``*Spec`` or ``*Policy``
dataclass in ``src/repro`` must be passed by keyword to its class (or to
one of the class's constructors, ``WorkloadSpec.of``), or to
``dataclasses.replace``, somewhere in ``src/``, ``benchmarks/`` or
``examples/``. A field only tests set belongs in the module that reads
it, as a constant. The check reads the source alone (AST, no imports),
like ``test_reach_expected.py``; :data:`ALLOWED` names the few fields
kept settable on purpose, each with its reason.
"""

import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "examples")
SUFFIXES = ("Config", "Spec", "Policy")

#: ``Class.field`` -> why it stays a field though no caller sets it
ALLOWED = {
    "ExecutionConfig.noise_sigma": (
        "test-only: the DES property tests switch measurement noise off"
    ),
    "ExecutionConfig.overload_penalty": (
        "test-only: the executor oracle prices overruns without it"
    ),
    "ExecutionConfig.governor": "set through Harness.run(**config_overrides)",
    "ExecutionConfig.shared_state": (
        "set through Harness.run(**config_overrides)"
    ),
    "BoardSpec.core_by_id": "lookup table derived in __post_init__",
    "BoardSpec.cluster_by_id": "lookup table derived in __post_init__",
    "BoardSpec.core_cluster": "lookup table derived in __post_init__",
    "WorkloadSpec.codec_options": (
        "never set, but part of the persistent cache key"
    ),
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(
            target, "id", None
        )
        if name == "dataclass":
            return True
    return False


def _is_class_var(annotation: ast.expr) -> bool:
    return "ClassVar" in ast.unparse(annotation)


def settings() -> Dict[str, Set[str]]:
    """Class name -> its defaulted dataclass fields, over ``src/repro``."""
    found: Dict[str, Set[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if not (
                isinstance(node, ast.ClassDef)
                and node.name.endswith(SUFFIXES)
                and _is_dataclass(node)
            ):
                continue
            found[node.name] = {
                item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and item.value is not None
                and not _is_class_var(item.annotation)
            }
    return found


def _callee(func: ast.expr) -> Tuple[str, ...]:
    """The dotted names a call's target ends in: ``C`` for ``C(...)``
    and ``m.C(...)``; ``C`` and ``of`` for ``C.of(...)``."""
    if isinstance(func, ast.Name):
        return (func.id,)
    if isinstance(func, ast.Attribute):
        owner = func.value
        owner_name = (
            owner.id if isinstance(owner, ast.Name)
            else owner.attr if isinstance(owner, ast.Attribute)
            else None
        )
        return (func.attr,) if owner_name is None else (owner_name, func.attr)
    return ()


def keyword_uses() -> Iterator[Tuple[str, str]]:
    """``(target, keyword)`` for every keyword argument of every call in
    the caller directories; ``target`` is the called class (also for
    ``Class.constructor(...)``) or ``replace``."""
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                names = _callee(node.func)
                for keyword in node.keywords:
                    if keyword.arg is None:
                        continue
                    for name in names:
                        yield name, keyword.arg


def unset_settings() -> Set[str]:
    """``Class.field`` for every defaulted field no caller sets."""
    set_by: Dict[str, Set[str]] = {}
    for target, keyword in keyword_uses():
        set_by.setdefault(target, set()).add(keyword)
    replaced = set_by.get("replace", set())
    return {
        f"{cls}.{name}"
        for cls, fields in settings().items()
        for name in fields
        if name not in set_by.get(cls, set()) and name not in replaced
    }


def test_every_setting_has_a_caller():
    unexpected = sorted(unset_settings() - set(ALLOWED))
    assert unexpected == [], (
        "defaulted fields no command, experiment, example or benchmark "
        f"sets; make them module constants: {unexpected}"
    )


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowlist_entry_is_still_unset(name):
    assert name in unset_settings(), (
        f"{name} now has a caller; drop it from ALLOWED"
    )


def test_the_scan_sees_the_settings_it_checks():
    found = settings()
    assert "latency_constraint_us_per_byte" not in found["ExecutionConfig"]
    assert {"noise_sigma", "fault_plan"} <= found["ExecutionConfig"]
    assert "drift_detector" in found["ControllerConfig"]
    assert "ControllerConfig.horizon_windows" not in unset_settings()


def test_an_unset_field_is_flagged(tmp_path, monkeypatch):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "knobs.py").write_text(
        "from dataclasses import dataclass, field, replace\n"
        "@dataclass(frozen=True)\n"
        "class KnobConfig:\n"
        "    required: int\n"
        "    used: int = 1\n"
        "    replaced: int = 2\n"
        "    unused: float = field(default=0.5)\n"
        "def build():\n"
        "    return KnobConfig(used=3)\n"
        "def shift(config):\n"
        "    return replace(config, replaced=4)\n"
    )
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "PACKAGE", package)
    assert unset_settings() == {"KnobConfig.unused"}
