"""Common experiment-result structure and registry plumbing.

Every experiment function takes an optional :class:`Harness` plus
experiment-specific knobs and returns an :class:`ExperimentResult` whose
rows mirror the corresponding table/figure of the paper. The module
:mod:`repro.bench` assembles the id → function registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bench.harness import format_table

__all__ = ["ExperimentResult", "prefetch_grid"]


def prefetch_grid(
    harness,
    specs: Sequence,
    mechanisms: Sequence[str],
    repetitions: Optional[int] = None,
    **config_overrides,
):
    """Warm the harness caches for a (workload × mechanism) grid.

    Grid-shaped experiments call this before their per-cell read-out
    loops: it routes the whole grid through :meth:`Harness.grid`, so a
    parallel harness (``REPRO_PARALLEL`` / ``--jobs``) computes the
    cells across worker processes and the subsequent ``harness.run``
    reads are in-memory cache hits. On a serial harness this is exactly
    the old cell-by-cell loop.
    """
    if repetitions is not None:
        config_overrides["repetitions"] = repetitions
    return harness.grid(list(specs), list(mechanisms), **config_overrides)


@dataclass
class ExperimentResult:
    """Rows regenerating one table or figure of the paper."""

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence]
    note: str = ""
    #: free-form extras (fitted params, plan strings, ...) for tests
    extras: Dict = field(default_factory=dict)

    def render(self) -> str:
        return format_table(
            f"{self.experiment_id}: {self.title}",
            self.headers,
            self.rows,
            note=self.note,
        )
