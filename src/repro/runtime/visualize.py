"""Text rendering of scheduling plans and measurements.

Terminal-friendly views for debugging and the examples: a per-core
occupancy chart of a plan estimate (who runs where, how close each core
is to the latency budget) and a Gantt chart of a traced run.
"""

from __future__ import annotations

from typing import List

from repro.core.plan import PlanEstimate
from repro.simcore.boards import BoardSpec

__all__ = ["render_plan", "render_gantt"]

_BAR_WIDTH = 36


def render_plan(estimate: PlanEstimate, board: BoardSpec) -> str:
    """Per-core occupancy chart of a plan against its latency budget.

    >>> print(render_plan(estimate, board))      # doctest: +SKIP
    core 4 A72 (big)    |t0######----------| 13.9 µs/B
    core 0 A53 (little) |t1################| 24.9 µs/B  <- bottleneck
    """
    budget = max(
        (task.l_us_per_byte for task in estimate.task_estimates),
        default=1.0,
    )
    budget = max(budget, max(estimate.core_load_us_per_byte.values(), default=0))
    bottleneck = estimate.bottleneck()

    by_core = {}
    for task in estimate.task_estimates:
        by_core.setdefault(task.core_id, []).append(task)

    lines: List[str] = []
    for core in board.cores:
        tasks = by_core.get(core.core_id, [])
        kind = "big" if core.is_big else "little"
        label = f"core {core.core_id} {core.model} ({kind})"
        if not tasks:
            lines.append(f"{label:28s} |{'-' * _BAR_WIDTH}| idle")
            continue
        bar = ""
        total = 0.0
        for task in tasks:
            stage = estimate.plan.graph.tasks[task.stage_index].name
            width = max(
                1, round(task.l_comp_us_per_byte / budget * _BAR_WIDTH)
            )
            cell = (stage + "#" * _BAR_WIDTH)[:width]
            bar += cell
            total += task.l_comp_us_per_byte
        bar = (bar + "-" * _BAR_WIDTH)[:_BAR_WIDTH]
        marker = ""
        if any(
            t.stage_index == bottleneck.stage_index
            and t.replica_index == bottleneck.replica_index
            for t in tasks
        ):
            marker = "  <- bottleneck"
        lines.append(f"{label:28s} |{bar}| {total:5.1f} µs/B{marker}")
    lines.append(
        f"{'':28s}  L_est={estimate.latency_us_per_byte:.2f} µs/B, "
        f"E_est={estimate.energy_uj_per_byte:.3f} µJ/B"
    )
    return "\n".join(lines)


def render_gantt(
    recorder,
    board: BoardSpec,
    width: int = 72,
) -> str:
    """ASCII Gantt chart of a traced run's final repetition.

    ``recorder`` is the :class:`repro.obs.TraceRecorder` the run wrote
    its events to; the task spans of its last repetition are drawn.
    Each core is one row; busy spans print the digit of the batch they
    served (task boundaries show as transitions), idle time prints ``.``.
    """
    tasks = [
        event for event in recorder.events
        if event.phase == "X" and event.category == "task"
        and event.name != "ctx-switch"
    ]
    last_rep = max((event.pid for event in tasks), default=None)
    trace: dict = {}
    for event in tasks:
        if event.pid == last_rep:
            trace.setdefault(event.tid, []).append((
                dict(event.args).get("batch", 0),
                event.ts_us,
                event.ts_us + event.dur_us,
            ))
    end_time = max(
        (span[2] for spans in trace.values() for span in spans),
        default=0.0,
    )
    if end_time <= 0:
        return "(empty trace)"
    scale = width / end_time
    lines: List[str] = []
    for core in board.cores:
        row = ["."] * width
        for batch, start, end in trace.get(core.core_id, ()):
            first = min(int(start * scale), width - 1)
            last = min(int(end * scale), width - 1)
            glyph = str(batch % 10)
            for column in range(first, max(last, first) + 1):
                row[column] = glyph
        kind = "big" if core.is_big else "little"
        lines.append(
            f"core {core.core_id} ({kind:6s}) |{''.join(row)}|"
        )
    lines.append(
        f"{'':16s} 0 {'·' * (width - 12)} {end_time / 1000:.1f} ms"
    )
    return "\n".join(lines)
