"""Markdown report generation: every experiment, one document.

``python -m repro.bench report [path]`` regenerates all registered
experiments (paper figures/tables plus this reproduction's ablations)
and writes a self-contained markdown report with the configuration used,
per-experiment tables and timing. This is the artifact a downstream user
attaches to a reproduction claim.
"""

from __future__ import annotations

import platform
import time
from typing import List, Optional

from repro.bench.harness import (
    DEFAULT_BATCH_BYTES,
    Harness,
)

__all__ = ["generate_report"]


def _as_markdown_table(headers, rows) -> str:
    lines = ["| " + " | ".join(str(h) for h in headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def generate_report(
    path: str,
    harness: Optional[Harness] = None,
    experiment_ids: Optional[List[str]] = None,
) -> str:
    """Run experiments and write the markdown report to ``path``.

    Returns the rendered report text. ``experiment_ids`` defaults to the
    full registry in its canonical order.
    """
    from repro.bench import EXPERIMENTS  # late import: avoids a cycle

    harness = harness or Harness()
    ids = experiment_ids or list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}")

    sections: List[str] = []
    total_started = time.time()
    for experiment_id in ids:
        experiment = EXPERIMENTS[experiment_id]
        started = time.time()
        result = experiment(harness)
        elapsed = time.time() - started
        sections.append(
            "\n".join(
                [
                    f"## {result.experiment_id}: {result.title}",
                    "",
                    _as_markdown_table(result.headers, result.rows),
                    "",
                    f"*{result.note}*" if result.note else "",
                    "",
                    f"_regenerated in {elapsed:.1f}s_",
                ]
            )
        )

    header = "\n".join(
        [
            "# CStream reproduction report",
            "",
            "Regenerated tables and figures of *Parallelizing Stream",
            "Compression for IoT Applications on Asymmetric Multicores*",
            "(ICDE 2023), plus this reproduction's ablations.",
            "",
            "| configuration | value |",
            "|---|---|",
            f"| board | {harness.board.name} |",
            f"| repetitions per cell | {harness.repetitions} |",
            f"| batch size | {DEFAULT_BATCH_BYTES} bytes |",
            f"| seed | {harness.seed} |",
            f"| python | {platform.python_version()} |",
            f"| generated | in {time.time() - total_started:.0f}s |",
            "",
        ]
    )
    text = header + "\n" + "\n\n".join(sections) + "\n"
    with open(path, "w") as sink:
        sink.write(text)
    return text
