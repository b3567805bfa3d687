"""Plan execution and measurement on the simulated board."""

from repro.runtime.executor import (
    ExecutionConfig,
    MechanismDynamics,
    PipelineExecutor,
)
from repro.runtime.metrics import BatchMetrics, RepetitionResult, RunResult
from repro.runtime.visualize import render_gantt, render_plan

__all__ = [
    "BatchMetrics",
    "ExecutionConfig",
    "MechanismDynamics",
    "PipelineExecutor",
    "RepetitionResult",
    "RunResult",
    "render_gantt",
    "render_plan",
]
