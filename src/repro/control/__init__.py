"""Online session control: the adaptive plan lifecycle.

The paper schedules once per workload; this package closes the loop the
way §V-D's future-work paragraph sketches. A
:class:`~repro.control.controller.SessionController` detects drift with
one of §V-D's regulators (the statistics watcher by default, or Eq 8's
PID), replans incrementally with a warm-started
branch-and-bound when the stream drifts, and only migrates to the new
plan when the modeled energy savings over a configurable horizon exceed
the modeled cost of moving replica state between cores.

Layering: this package imports :mod:`repro.core` and
:mod:`repro.runtime`; the runtime never imports it back — the executor
sees the controller only as a duck-typed ``on_window`` callback.
"""

from repro.control.controller import (
    ControlEvent,
    ControllerConfig,
    FailoverEvent,
    SessionController,
)
from repro.control.session import (
    SessionComparison,
    SessionSpec,
    build_drift_stream,
    run_adaptive_session,
)

__all__ = [
    "ControlEvent",
    "ControllerConfig",
    "FailoverEvent",
    "SessionController",
    "SessionComparison",
    "SessionSpec",
    "build_drift_stream",
    "run_adaptive_session",
]
