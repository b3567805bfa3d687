"""Per-window residual ledger: model-vs-measured, attributed.

CStream's premise is that a calibrated cost model predicts each task's
latency and energy on asymmetric cores (Eqs 1-7). That makes the
*residual* — measured minus predicted — a sensor in its own right: a
fault that emits no heartbeat (a degraded interconnect path, a
corrupt-retry storm at the sink) still bends the measurement away from
the model, and the *shape* of the bend says which component is at
fault. This module turns one windowed session into that sensor:

* :class:`TelemetryCollector` — the executor-side observer. Two gated
  hooks (``comm``/``retry``) accumulate per-path communication time and
  per-batch retry time while the DES runs; at each window boundary
  :meth:`TelemetryCollector.collect_window` slices the core servers'
  service spans and per-batch energy into a :class:`WindowTelemetry`.
  Like the trace recorder, the collector is strictly read-only: it
  consumes no RNG draws and schedules no events, and every hook site is
  behind an ``if telemetry is not None`` guard (lint rule CSA009), so a
  session without telemetry is byte-identical to one before this module
  existed.
* :func:`predicted_breakdown` — the model's side of the ledger: the
  plan's predicted compute occupancy per core, communication time per
  interconnect path and energy per core, from the same
  :class:`~repro.core.plan.PlanEstimate` the scheduler optimizes.
* :class:`ResidualLedger` — per window, decomposes the latency residual
  into **core**, **path** and **retry** components (plus an explicit
  unattributed remainder, so the parts always sum to the whole —
  invariant HLT001), tracks an EWMA baseline and dispersion per
  component, and scores each window's components against that baseline.
  Scoring is deterministic and seeded: the only randomness is a
  vanishingly small per-component tie-break epsilon drawn once from
  ``numpy.random.default_rng(seed)`` in first-seen order.

The ledger's units are µs/byte (latency) and µJ/byte (energy),
normalized by the window's bytes, so residuals are comparable across
windows and batch sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Literal, Mapping, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.numerics import ordered_sum

__all__ = [
    "WindowTelemetry",
    "TelemetryCollector",
    "ResidualComponent",
    "WindowResidual",
    "LedgerConfig",
    "ResidualLedger",
    "predicted_breakdown",
]

#: component kinds the ledger attributes residuals to
ComponentKind = Literal["core", "path", "retry"]


@dataclass(frozen=True)
class WindowTelemetry:
    """Measured per-window telemetry sliced out of one session window.

    All times are µs over the whole window, energies µJ; the ledger
    normalizes by ``window_bytes``. Mappings are stored as sorted
    tuples so the telemetry is hashable and deterministic to iterate.
    """

    window_index: int
    batch_start: int
    batch_count: int
    batch_bytes: int
    #: service-span occupancy per (stage_index, core_id), µs
    busy_us: Tuple[Tuple[Tuple[int, int], float], ...]
    #: dynamic (busy) energy per core, µJ
    energy_uj: Tuple[Tuple[int, float], ...]
    #: communication time per interconnect path class name, µs
    comm_us: Tuple[Tuple[str, float], ...]
    #: decode-verification retry time per stage index, µs
    retry_us: Tuple[Tuple[int, float], ...]
    #: (batch_index, retry attempts) for every retried batch
    retries: Tuple[Tuple[int, int], ...]

    @property
    def window_bytes(self) -> float:
        return float(self.batch_count * self.batch_bytes)


class TelemetryCollector:
    """Executor-side telemetry observer for one windowed session.

    The executor calls :meth:`comm` and :meth:`retry` from inside the
    DES (both behind ``if telemetry is not None`` guards) and
    :meth:`collect_window` at each drained window boundary. The
    collector never touches the simulation: it only reads the servers'
    span/energy records the executor keeps anyway.
    """

    def __init__(self) -> None:
        self._comm_us: Dict[str, float] = {}
        self._retry_us: Dict[int, float] = {}
        self._retries: List[Tuple[int, int]] = []
        #: spans already consumed per core (spans lists only grow)
        self._span_seen: Dict[int, int] = {}
        self.windows: List[WindowTelemetry] = []

    # -- DES hooks (gated by the executor) ---------------------------------

    def comm(self, path: str, us: float, batch_index: int) -> None:
        """One upstream fetch took ``us`` µs over path class ``path``."""
        self._comm_us[path] = self._comm_us.get(path, 0.0) + us

    def retry(
        self, batch_index: int, stage_index: int, us: float, attempts: int
    ) -> None:
        """Decode verification re-ran ``stage_index`` for ``us`` µs."""
        self._retry_us[stage_index] = (
            self._retry_us.get(stage_index, 0.0) + us
        )
        self._retries.append((batch_index, attempts))

    # -- window boundary ----------------------------------------------------

    def collect_window(
        self,
        window_index: int,
        batch_start: int,
        batch_count: int,
        batch_bytes: int,
        servers: Mapping[int, object],
    ) -> WindowTelemetry:
        """Slice the window's telemetry; drains the hook accumulators.

        ``servers`` is the executor's ``{core_id: _CoreServer}`` map —
        duck-typed on ``.spans`` (``(task, batch, start, end)`` tuples)
        and ``.energy_by_batch`` so this package never imports the
        runtime.
        """
        busy: Dict[Tuple[int, int], float] = {}
        energy: Dict[int, float] = {}
        batch_end = batch_start + batch_count
        for core_id in sorted(servers):
            server = servers[core_id]
            spans = server.spans
            start_at = self._span_seen.get(core_id, 0)
            for task_name, _batch, start_us, end_us in spans[start_at:]:
                stage = _stage_of(task_name)
                key = (stage, core_id)
                busy[key] = busy.get(key, 0.0) + (end_us - start_us)
            self._span_seen[core_id] = len(spans)
            for batch_index, uj in server.energy_by_batch.items():
                if batch_start <= batch_index < batch_end:
                    energy[core_id] = energy.get(core_id, 0.0) + uj
        telemetry = WindowTelemetry(
            window_index=window_index,
            batch_start=batch_start,
            batch_count=batch_count,
            batch_bytes=batch_bytes,
            busy_us=tuple(sorted(busy.items())),
            energy_uj=tuple(sorted(energy.items())),
            comm_us=tuple(sorted(self._comm_us.items())),
            retry_us=tuple(sorted(self._retry_us.items())),
            retries=tuple(self._retries),
        )
        self._comm_us = {}
        self._retry_us = {}
        self._retries = []
        self.windows.append(telemetry)
        return telemetry


def _stage_of(task_name: str) -> int:
    """Stage index from a service-span label like ``s2r1``."""
    body = task_name[1:] if task_name.startswith("s") else task_name
    digits = []
    for char in body:
        if not char.isdigit():
            break
        digits.append(char)
    return int("".join(digits)) if digits else -1


def predicted_breakdown(
    plan, estimate, model
) -> Tuple[Dict[int, float], Dict[str, float], Dict[int, float]]:
    """The model's prediction, shaped like the measured telemetry.

    Returns ``(comp_us_per_byte_by_core, comm_us_per_byte_by_path,
    energy_uj_per_byte_by_core)`` for ``plan`` under ``model`` (both
    duck-typed; ``estimate`` is the model's
    :class:`~repro.core.plan.PlanEstimate` for the plan). Communication
    is re-derived per path class from the plan's topology with the same
    Eq 7 table the estimate's ``l_comm`` terms were priced with.
    """
    comp: Dict[int, float] = {}
    energy: Dict[int, float] = {}
    for task in estimate.task_estimates:
        comp[task.core_id] = (
            comp.get(task.core_id, 0.0) + task.l_comp_us_per_byte
        )
        energy[task.core_id] = (
            energy.get(task.core_id, 0.0) + task.energy_uj_per_byte
        )
    comm: Dict[str, float] = {}
    batch_bytes = float(model.profile.batch_size_bytes)
    board = model.board
    table = model.communication
    for stage_index in range(1, len(plan.assignments)):
        upstream = plan.assignments[stage_index - 1]
        consumers = plan.assignments[stage_index]
        share = (
            model.stage_output_bytes(stage_index - 1)
            / len(consumers)
            / len(upstream)
        )
        for core_id in consumers:
            for producer in upstream:
                path = board.path_between(producer, core_id)
                hop_us = share * table.unit_cost(path) + table.overhead(path)
                name = path.value
                comm[name] = comm.get(name, 0.0) + hop_us / batch_bytes
    return comp, comm, energy


@dataclass(frozen=True)
class ResidualComponent:
    """One attributed slice of a window's latency residual."""

    kind: ComponentKind
    #: core id ("4"), path class ("c1") or retried stage index ("2")
    key: str
    measured_us_per_byte: float
    predicted_us_per_byte: float
    #: anomaly score vs the component's EWMA baseline (unitless)
    score: float

    @property
    def residual_us_per_byte(self) -> float:
        return self.measured_us_per_byte - self.predicted_us_per_byte


@dataclass(frozen=True)
class WindowResidual:
    """One window's full model-vs-measured decomposition."""

    window_index: int
    measured_latency_us_per_byte: float
    predicted_latency_us_per_byte: float
    measured_energy_uj_per_byte: float
    predicted_energy_uj_per_byte: float
    components: Tuple[ResidualComponent, ...]
    #: the residual slice no component explains; keeps HLT001 exact
    unattributed_us_per_byte: float

    @property
    def latency_residual_us_per_byte(self) -> float:
        return (
            self.measured_latency_us_per_byte
            - self.predicted_latency_us_per_byte
        )

    @property
    def energy_residual_uj_per_byte(self) -> float:
        return (
            self.measured_energy_uj_per_byte
            - self.predicted_energy_uj_per_byte
        )


@dataclass(frozen=True)
class LedgerConfig:
    """Knobs of the residual ledger's baselines and scoring."""

    #: EWMA factor on per-component residual baselines (0 = frozen)
    smoothing: float = 0.35
    #: score scale floor, as a fraction of the predicted window latency
    scale_floor_fraction: float = 0.02
    #: windows observed before any component may score as anomalous
    warmup_windows: int = 1
    #: tie-break epsilon stream (determinism, not randomness)
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.smoothing <= 1.0:
            raise ConfigurationError("smoothing must be in [0, 1]")
        if self.scale_floor_fraction <= 0.0:
            raise ConfigurationError("scale floor must be positive")
        if self.warmup_windows < 0:
            raise ConfigurationError("warmup_windows must be >= 0")


class ResidualLedger:
    """EWMA-baselined residual decomposition across a session's windows.

    Feed one :meth:`observe` per window boundary; read back the
    :class:`WindowResidual` stream in :attr:`windows`. Scores measure
    how far a component's residual sits above its own running baseline,
    in units of its running mean absolute deviation (floored at
    ``scale_floor_fraction`` of the predicted window latency so a
    near-zero baseline cannot make noise look infinitely anomalous).
    """

    def __init__(self, config: LedgerConfig = LedgerConfig()) -> None:
        self.config = config
        self.windows: List[WindowResidual] = []
        #: component key -> [ewma_residual, ewma_absdev]
        self._baseline: Dict[Tuple[str, str], List[float]] = {}
        #: deterministic per-component tie-break epsilons
        self._epsilon: Dict[Tuple[str, str], float] = {}
        self._rng = np.random.default_rng(config.seed)

    # -- internals ----------------------------------------------------------

    def _epsilon_for(self, key: Tuple[str, str]) -> float:
        epsilon = self._epsilon.get(key)
        if epsilon is None:
            # First-seen order is deterministic (sorted telemetry), so
            # the draw sequence — and with it every score — is too.
            epsilon = float(self._rng.random()) * 1e-9
            self._epsilon[key] = epsilon
        return epsilon

    def _score(
        self, key: Tuple[str, str], residual: float, scale_floor: float
    ) -> float:
        warmed = len(self.windows) >= self.config.warmup_windows
        if not warmed:
            return 0.0
        baseline = self._baseline.get(key)
        if baseline is None:
            # A component that did not exist in any prior window (e.g.
            # retry time appearing mid-session) is scored against a zero
            # baseline: its whole residual is anomalous by definition.
            mean, absdev = 0.0, 0.0
        else:
            mean, absdev = baseline
        scale = max(absdev, scale_floor)
        if scale <= 0.0:
            return 0.0
        return (residual - mean) / scale + self._epsilon_for(key)

    def _update(self, key: Tuple[str, str], residual: float) -> None:
        alpha = self.config.smoothing
        baseline = self._baseline.get(key)
        if baseline is None:
            self._baseline[key] = [residual, abs(residual)]
            return
        mean, absdev = baseline
        mean += alpha * (residual - mean)
        absdev += alpha * (abs(residual - mean) - absdev)
        baseline[0] = mean
        baseline[1] = absdev

    # -- public API ---------------------------------------------------------

    def observe(
        self,
        telemetry: WindowTelemetry,
        measured_latency_us_per_byte: float,
        plan,
        estimate,
        model,
    ) -> WindowResidual:
        """Decompose one window's residual and update the baselines."""
        window_bytes = telemetry.window_bytes
        if window_bytes <= 0:
            raise ConfigurationError("window telemetry covers zero bytes")
        predicted_comp, predicted_comm, predicted_energy = (
            predicted_breakdown(plan, estimate, model)
        )
        scale_floor = (
            self.config.scale_floor_fraction
            * max(estimate.latency_us_per_byte, 1e-12)
        )

        components: List[ResidualComponent] = []
        updates: List[Tuple[Tuple[str, str], float]] = []

        # Core components: per-core service occupancy vs predicted
        # per-core l_comp (both µs per window byte).
        measured_by_core: Dict[int, float] = {}
        for (stage, core_id), us in telemetry.busy_us:
            measured_by_core[core_id] = (
                measured_by_core.get(core_id, 0.0) + us
            )
        for core_id in sorted(set(measured_by_core) | set(predicted_comp)):
            measured = measured_by_core.get(core_id, 0.0) / window_bytes
            predicted = predicted_comp.get(core_id, 0.0)
            key = ("core", str(core_id))
            residual = measured - predicted
            components.append(ResidualComponent(
                kind="core",
                key=str(core_id),
                measured_us_per_byte=measured,
                predicted_us_per_byte=predicted,
                score=self._score(key, residual, scale_floor),
            ))
            updates.append((key, residual))

        # Path components: per path class, measured transfer time vs the
        # plan's Eq 7 prediction.
        measured_by_path = dict(telemetry.comm_us)
        for path in sorted(set(measured_by_path) | set(predicted_comm)):
            measured = measured_by_path.get(path, 0.0) / window_bytes
            predicted = predicted_comm.get(path, 0.0)
            key = ("path", path)
            residual = measured - predicted
            components.append(ResidualComponent(
                kind="path",
                key=path,
                measured_us_per_byte=measured,
                predicted_us_per_byte=predicted,
                score=self._score(key, residual, scale_floor),
            ))
            updates.append((key, residual))

        # Retry components: the model predicts zero retries, so any
        # retry time is residual by definition.
        for stage_index, us in telemetry.retry_us:
            measured = us / window_bytes
            key = ("retry", str(stage_index))
            components.append(ResidualComponent(
                kind="retry",
                key=str(stage_index),
                measured_us_per_byte=measured,
                predicted_us_per_byte=0.0,
                score=self._score(key, measured, scale_floor),
            ))
            updates.append((key, measured))

        measured_energy = ordered_sum(
            uj for _core, uj in telemetry.energy_uj
        ) / window_bytes
        predicted_energy_total = math.fsum(predicted_energy.values())

        attributed = math.fsum(
            c.residual_us_per_byte for c in components
        )
        total_residual = (
            measured_latency_us_per_byte - estimate.latency_us_per_byte
        )
        window = WindowResidual(
            window_index=telemetry.window_index,
            measured_latency_us_per_byte=measured_latency_us_per_byte,
            predicted_latency_us_per_byte=estimate.latency_us_per_byte,
            measured_energy_uj_per_byte=measured_energy,
            predicted_energy_uj_per_byte=predicted_energy_total,
            components=tuple(components),
            unattributed_us_per_byte=total_residual - attributed,
        )
        # Baselines update after scoring so a window's own anomaly
        # cannot absorb itself.
        for key, residual in updates:
            self._update(key, residual)
        self.windows.append(window)
        return window
