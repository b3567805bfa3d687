"""CStream's core: decomposition, cost model, scheduling, adaptation."""

from repro.core.adaptive import FeedbackRegulator, IncrementalPID
from repro.core.baselines import (
    MECHANISM_NAMES,
    Mechanism,
    MechanismOutcome,
    WorkloadContext,
    get_mechanism,
)
from repro.core.cost_model import CostModel, calibrate_curves
from repro.core.decomposition import decompose
from repro.core.framework import CStream
from repro.core.plan import PlanEstimate, SchedulingPlan, TaskEstimate
from repro.core.profiler import (
    CommunicationTable,
    WorkloadProfile,
    measure_communication,
    profile_roofline,
    profile_workload,
)
from repro.core.roofline import FittedPiecewise, fit_piecewise
from repro.core.scheduler import ScheduleResult, Scheduler
from repro.core.statistics_regulator import StatisticsAwareRegulator
from repro.core.task import Task, TaskGraph

__all__ = [
    "CStream",
    "CommunicationTable",
    "CostModel",
    "FeedbackRegulator",
    "FittedPiecewise",
    "IncrementalPID",
    "MECHANISM_NAMES",
    "Mechanism",
    "MechanismOutcome",
    "PlanEstimate",
    "ScheduleResult",
    "Scheduler",
    "SchedulingPlan",
    "StatisticsAwareRegulator",
    "Task",
    "TaskEstimate",
    "TaskGraph",
    "WorkloadContext",
    "WorkloadProfile",
    "calibrate_curves",
    "decompose",
    "fit_piecewise",
    "get_mechanism",
    "measure_communication",
    "profile_roofline",
    "profile_workload",
]
