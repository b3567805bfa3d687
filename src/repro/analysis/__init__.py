"""Static analysis for the CStream reproduction.

Two complementary tools keep the simulator's determinism contract
honest:

* :mod:`repro.analysis.lint` — an AST-based determinism and unit linter
  (``CSA001``-``CSA010``, ``CSU001``-``CSU003``): wall clocks, unseeded
  RNGs, set-order iteration, mutable defaults, unordered float
  accumulation, unguarded trace and telemetry hooks, environment reads,
  unsorted filesystem listings, imports of driver packages, and unit
  mismatches over the repo's ``*_us``/``*_mhz``/``*_uj`` naming
  conventions. Every module outside the driver packages gets the strict
  rules.
* :mod:`repro.analysis.verify` — a plan/trace invariant verifier
  (``PLN001``-``PLN005``, ``TRC001``-``TRC007``): DAG acyclicity, step
  coverage, core-id validity, double-booking, L_set feasibility for
  :class:`~repro.core.plan.SchedulingPlan` objects; monotone simulated
  time, monotone energy counters, non-overlapping spans and
  same-timestamp race hazards for exported trace streams.

Both are importable as libraries (``lint_source``/``verify_plan``/
``verify_trace_events``) and runnable as CLIs; ``cstream analyze``
fronts both.

Attribute access is lazy (PEP 562) so ``python -m repro.analysis.lint``
does not re-import its own module through the package and the package
import stays free of side effects.
"""

from typing import Any

_LINT_EXPORTS = frozenset({
    "RULES", "DRIVER_PACKAGES", "LintFinding", "lint_source", "lint_file",
    "lint_paths", "parse_unit", "format_unit",
})
_VERIFY_EXPORTS = frozenset({
    "INVARIANTS", "VerifyFinding", "verify_plan", "verify_trace_events",
    "verify_chrome_payload", "iter_chrome_events", "iter_recorder_events",
})

__all__ = sorted(_LINT_EXPORTS | _VERIFY_EXPORTS)


def __getattr__(name: str) -> Any:
    if name in _LINT_EXPORTS:
        from repro.analysis import lint

        return getattr(lint, name)
    if name in _VERIFY_EXPORTS:
        from repro.analysis import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
