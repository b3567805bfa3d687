"""Session and fleet health reports.

A :class:`SessionHealth` (schema v1) is the operator-facing summary of
one windowed session: per window, the measured-vs-predicted latency and
energy, the attributed residual, and — when a component's anomaly score
clears the threshold — a named culprit (:class:`Attribution`): a
degraded interconnect path, a retry-heavy stage, or an underperforming
core.

A :class:`FleetHealth` (schema v2) is the fleet gateway's analogue: per
window, the state of every board (liveness, breaker state, core load)
and every tenant (placement, SLO compliance, energy), plus the ordered
event log (admissions, rejections, sheds, failovers, breaker
transitions, board faults) that makes the run replayable.

The frozen dataclasses below *are* the health schema. Everything else
is derived from their field tables (names in declaration order, types
from the annotations): the JSON codec (:func:`to_record`,
:func:`from_record`, and the reports' ``to_json``) and
the structural checker :func:`schema_problems`. :mod:`repro.obs.live`
streams the reports (a session as an NDJSON :class:`Tail`: a
:class:`TailHeader` line, then one line per window);
:func:`read_artifact` reads any of them (or a trace) back and names its
kind; :mod:`repro.analysis.verify` checks
them — the schema first (HLT003), then the invariants (HLT001-002 for
v1, FLT001-005 for v2).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache
from typing import (
    Any,
    List,
    Literal,
    NamedTuple,
    Optional,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.errors import ArtifactError
from repro.obs.residuals import ComponentKind, WindowResidual

__all__ = [
    "HEALTH_SCHEMA_VERSION",
    "FLEET_HEALTH_SCHEMA_VERSION",
    "Attribution",
    "Component",
    "WindowHealth",
    "SessionHealth",
    "TailHeader",
    "Tail",
    "build_window_health",
    "FleetBoardHealth",
    "FleetTenantHealth",
    "FleetEvent",
    "FleetWindowHealth",
    "FleetHealth",
    "to_record",
    "from_record",
    "schema_problems",
    "ArtifactKind",
    "read_artifact",
]

HEALTH_SCHEMA_VERSION = 1
FLEET_HEALTH_SCHEMA_VERSION = 2

#: anomaly score above which a window's top component is named
DEFAULT_ANOMALY_THRESHOLD = 3.0

BreakerState = Literal["closed", "open", "half-open"]
#: "running", "queued" (awaiting admission/re-admission), "stranded"
#: (board dead, no failover arm), "rejected" (final), or "pending"
#: (not yet considered)
TenantState = Literal["pending", "queued", "running", "stranded", "rejected"]
#: what :func:`read_artifact` finds in a file
ArtifactKind = Literal["trace", "session", "tail", "fleet"]
EventKind = Literal[
    "admit", "reject", "queue", "retry", "shed", "failover", "breaker",
    "board-crash", "board-reboot", "board-throttle", "rpc-failure",
]


@dataclass(frozen=True)
class Attribution:
    """The component a window's residual is pinned on."""

    #: "path" (degraded link), "retry" (retry-heavy stage), "core"
    kind: ComponentKind
    #: path class ("c1"), stage index ("2"), or core id ("4")
    key: str
    score: float
    #: residual the component carries, µs/byte
    residual_us_per_byte: float
    #: score separation from the runner-up, in (0, 1]
    confidence: float

    def describe(self) -> str:
        if self.kind == "path":
            return f"degraded link {self.key}"
        if self.kind == "retry":
            return f"retry-heavy stage s{self.key}"
        return f"underperforming core {self.key}"


class Component(NamedTuple):
    """One per-component residual slice of a window."""

    kind: ComponentKind
    key: str
    residual_us_per_byte: float
    score: float


@dataclass(frozen=True)
class WindowHealth:
    """One window's health record (one NDJSON line when streamed)."""

    window_index: int
    measured_latency_us_per_byte: float
    predicted_latency_us_per_byte: float
    latency_residual_us_per_byte: float
    measured_energy_uj_per_byte: float
    predicted_energy_uj_per_byte: float
    energy_residual_uj_per_byte: float
    components: Tuple[Component, ...]
    unattributed_us_per_byte: float
    #: window violated the latency SLO on a steady batch
    violated: bool
    anomalous: bool
    attribution: Optional[Attribution]


def build_window_health(
    residual: WindowResidual,
    violated: bool,
    threshold: float = DEFAULT_ANOMALY_THRESHOLD,
) -> WindowHealth:
    """Fold one ledger window into a health record.

    The window is *anomalous* when its top-scoring component clears
    ``threshold``; the attribution's confidence is the relative score
    gap to the runner-up (1.0 when there is none), so two components
    racing each other read as low-confidence.
    """
    ranked = sorted(
        residual.components, key=lambda c: c.score, reverse=True
    )
    attribution = None
    anomalous = bool(ranked) and ranked[0].score >= threshold
    if anomalous:
        top = ranked[0]
        runner_up = ranked[1].score if len(ranked) > 1 else 0.0
        confidence = 1.0 - max(runner_up, 0.0) / top.score
        attribution = Attribution(
            kind=top.kind,
            key=top.key,
            score=top.score,
            residual_us_per_byte=top.residual_us_per_byte,
            confidence=max(min(confidence, 1.0), 0.0),
        )
    return WindowHealth(
        window_index=residual.window_index,
        measured_latency_us_per_byte=residual.measured_latency_us_per_byte,
        predicted_latency_us_per_byte=residual.predicted_latency_us_per_byte,
        latency_residual_us_per_byte=residual.latency_residual_us_per_byte,
        measured_energy_uj_per_byte=residual.measured_energy_uj_per_byte,
        predicted_energy_uj_per_byte=residual.predicted_energy_uj_per_byte,
        energy_residual_uj_per_byte=residual.energy_residual_uj_per_byte,
        components=tuple(
            Component(c.kind, c.key, c.residual_us_per_byte, c.score)
            for c in residual.components
        ),
        unattributed_us_per_byte=residual.unattributed_us_per_byte,
        violated=violated,
        anomalous=anomalous,
        attribution=attribution,
    )


@dataclass(frozen=True)
class SessionHealth:
    """Whole-session health report: the windows plus identity."""

    label: str
    board: str
    latency_constraint_us_per_byte: float
    windows: Tuple[WindowHealth, ...]
    schema_version: int = HEALTH_SCHEMA_VERSION

    def dominant(self) -> Optional[Attribution]:
        """The highest-scoring attribution across all windows."""
        best: Optional[Attribution] = None
        for window in self.windows:
            a = window.attribution
            if a is not None and (best is None or a.score > best.score):
                best = a
        return best

    def anomalous_windows(self) -> Tuple[WindowHealth, ...]:
        return tuple(w for w in self.windows if w.anomalous)

    def to_json(self) -> str:
        return json.dumps(to_record(self), indent=2, sort_keys=True)

    def header(self) -> "TailHeader":
        return TailHeader(
            label=self.label,
            board=self.board,
            latency_constraint_us_per_byte=self.latency_constraint_us_per_byte,
        )


@dataclass(frozen=True)
class TailHeader:
    """The first line of a session's NDJSON tail: the identity its
    window lines leave out, so a reader of the tail alone can label the
    session and judge its windows against ``L_set``."""

    label: str
    board: str
    latency_constraint_us_per_byte: float


class Tail(NamedTuple):
    """An NDJSON tail as :func:`read_artifact` returns it (raw records).

    ``header`` is None for a tail without its header line (one cut
    from a longer stream, or written window by window)."""

    header: Optional[dict]
    windows: List[dict]


# -- fleet health (schema v2) -------------------------------------------------


@dataclass(frozen=True)
class FleetBoardHealth:
    """One board's state at the end of one gateway window."""

    board_index: int
    name: str
    kind: str
    alive: bool
    breaker_state: BreakerState
    consecutive_failures: int
    #: sustained DVFS cap in force, or None at nominal frequency
    throttled_mhz: Optional[float]
    #: utilization of the most-loaded core (busy-µs / window period)
    max_core_load: float
    tenants_running: int
    #: window RPCs against this board that failed (after retries)
    rpc_failures: int


@dataclass(frozen=True)
class FleetTenantHealth:
    """One tenant's state at the end of one gateway window."""

    tenant_id: int
    name: str
    priority: int
    state: TenantState
    #: hosting board while running/stranded, else None
    board_index: Optional[int]
    l_set_us_per_byte: float
    modeled_latency_us_per_byte: float
    #: synthesized measurement (0.0 while not running)
    measured_latency_us_per_byte: float
    modeled_energy_uj_per_byte: float
    violated: bool


@dataclass(frozen=True)
class FleetEvent:
    """One entry of the gateway's ordered event log."""

    #: running sequence number — total order across the whole run
    sequence: int
    window_index: int
    kind: EventKind
    tenant_id: Optional[int]
    board_index: Optional[int]
    detail: str


@dataclass(frozen=True)
class FleetWindowHealth:
    """One gateway window: every board and tenant, plus aggregates."""

    window_index: int
    boards: Tuple[FleetBoardHealth, ...]
    tenants: Tuple[FleetTenantHealth, ...]
    #: tenants whose measured latency breached their l_set (stranded
    #: tenants count — their stream is down, the SLO is being violated)
    violations: int
    #: modeled fleet energy spent this window, µJ
    energy_uj: float


@dataclass(frozen=True)
class FleetHealth:
    """Whole-run fleet health report (schema v2)."""

    label: str
    #: scenario arm: "static", "shed", or "shed-failover"
    arm: str
    seed: int
    board_count: int
    tenant_count: int
    #: fleet-wide energy budget the admission controller enforced, µJ
    #: per window
    energy_budget_uj_per_window: float
    windows: Tuple[FleetWindowHealth, ...]
    events: Tuple[FleetEvent, ...]
    schema_version: int = FLEET_HEALTH_SCHEMA_VERSION

    # -- aggregates ----------------------------------------------------------

    def total_violations(self) -> int:
        return sum(w.violations for w in self.windows)

    def violations_after(self, window_index: int) -> int:
        """SLO violations in windows ``>= window_index`` (steady state
        after warmup, or post-fault accounting)."""
        return sum(
            w.violations for w in self.windows
            if w.window_index >= window_index
        )

    def admitted_tenants(self) -> Tuple[int, ...]:
        """Tenant ids that were admitted at least once, in id order."""
        admitted = {
            e.tenant_id for e in self.events
            if e.kind == "admit" and e.tenant_id is not None
        }
        return tuple(sorted(admitted))

    def events_of(self, kind: str) -> Tuple[FleetEvent, ...]:
        return tuple(e for e in self.events if e.kind == kind)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(to_record(self), indent=2, sort_keys=True)


# -- the schema, derived from the dataclasses ---------------------------------


@lru_cache(maxsize=None)
def _field_table(cls: Any) -> Tuple[Tuple[str, Any], ...]:
    """``(name, type)`` per field of a record class, in declaration
    order; empty for anything that is not a dataclass or NamedTuple."""
    if is_dataclass(cls):
        names = [f.name for f in fields(cls)]
    elif isinstance(cls, type) and issubclass(cls, tuple) and hasattr(
        cls, "_fields"
    ):
        names = list(cls._fields)
    else:
        return ()
    hints = get_type_hints(cls)
    return tuple((name, hints[name]) for name in names)


def to_record(value: Any) -> Any:
    """JSON-ready form of a health value: records become objects keyed
    by field name, tuples become arrays, leaves pass through."""
    table = _field_table(type(value))
    if table:
        return {name: to_record(getattr(value, name)) for name, _ in table}
    if isinstance(value, tuple):
        return [to_record(item) for item in value]
    return value


def from_record(hint: Any, record: Any) -> Any:
    """Rebuild a value of type ``hint`` from its :func:`to_record` form."""
    table = _field_table(hint)
    if table:
        return hint(**{
            name: from_record(field_type, record[name])
            for name, field_type in table
        })
    origin = get_origin(hint)
    if origin is Union:
        if record is None:
            return None
        return from_record(get_args(hint)[0], record)
    if origin is tuple:
        item_type = get_args(hint)[0]
        return tuple(from_record(item_type, item) for item in record)
    if origin is Literal:
        return str(record)
    return hint(record)


def schema_problems(hint: Any, payload: Any, where: str = "") -> List[str]:
    """Every way ``payload`` departs from :func:`to_record`'s form of
    ``hint`` (empty = well-formed). ``where`` prefixes the field paths.

    Records must carry exactly their fields; ``int`` leaves are
    integers (not bools), ``bool`` leaves booleans, ``float`` leaves
    finite numbers, ``str`` leaves non-empty strings, ``Literal`` leaves
    a member of their set; ``Optional`` admits null and
    ``Tuple[X, ...]`` is an array of X.
    """
    problems: List[str] = []
    _walk(hint, payload, where, problems)
    return problems


def _walk(hint: Any, value: Any, where: str, problems: List[str]) -> None:
    table = _field_table(hint)
    if table:
        at = where or "top level"
        if not isinstance(value, dict):
            problems.append(f"{at}: not an object")
            return
        names = [name for name, _ in table]
        for name in names:
            if name not in value:
                problems.append(f"{at}: missing field {name!r}")
        for name in sorted(value.keys() - set(names)):
            problems.append(f"{at}: unexpected field {name!r}")
        prefix = f"{where}." if where else ""
        for name, field_type in table:
            if name in value:
                _walk(field_type, value[name], prefix + name, problems)
        return
    origin = get_origin(hint)
    if origin is Union:
        if value is not None:
            _walk(get_args(hint)[0], value, where, problems)
        return
    if origin is tuple:
        if not isinstance(value, list):
            problems.append(f"{where}: must be an array")
            return
        item_type = get_args(hint)[0]
        for index, item in enumerate(value):
            _walk(item_type, item, f"{where}[{index}]", problems)
        return
    if origin is Literal:
        allowed = get_args(hint)
        if value not in allowed:
            problems.append(
                f"{where}: unknown value {value!r}, expected one of "
                f"{', '.join(allowed)}")
        return
    if hint is bool:
        ok, expected = isinstance(value, bool), "a boolean"
    elif hint is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
        expected = "an integer"
    elif hint is float:
        ok = (
            isinstance(value, numbers.Real)
            and not isinstance(value, bool)
            and math.isfinite(value)
        )
        expected = "a finite number"
    elif hint is str:
        ok = isinstance(value, str) and bool(value)
        expected = "a non-empty string"
    else:
        raise TypeError(f"no schema rule for field type {hint!r}")
    if not ok:
        problems.append(f"{where}: must be {expected}, got {value!r}")


def read_artifact(path: str) -> Tuple[ArtifactKind, Any]:
    """Parse a trace or health file and say which kind it is.

    The file is one JSON document, or failing that an NDJSON tail (one
    JSON object per line, blank lines skipped). The kind is read from
    the content: a ``schema_version`` 2 document is a ``"fleet"``
    report, one with ``windows`` a ``"session"`` report, and a
    per-window record stream a ``"tail"`` — returned as a :class:`Tail`,
    its header being the first record when that one carries
    ``latency_constraint_us_per_byte`` (a header-only or one-line tail
    included). Anything else is a ``"trace"`` (checked as a Chrome
    trace-event object).

    Raises :class:`OSError` when the file is unreadable and
    :class:`~repro.errors.ArtifactError`, naming the path, when it is
    not UTF-8 text or neither form.
    """
    with open(path, "r", encoding="utf-8") as source:
        try:
            text = source.read()
        except UnicodeDecodeError as error:
            raise ArtifactError(path, f"not UTF-8 text: {error}") from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        unreadable = ArtifactError(
            path, f"neither JSON nor NDJSON: {error}"
        )
        try:
            records = [
                json.loads(line) for line in text.splitlines() if line.strip()
            ]
        except json.JSONDecodeError:
            raise unreadable from None
        if not records or not all(isinstance(r, dict) for r in records):
            raise unreadable from None
        return "tail", _tail(records)
    if isinstance(payload, list):
        return "tail", _tail(payload)
    if isinstance(payload, dict) and "traceEvents" not in payload:
        if payload.get("schema_version") == FLEET_HEALTH_SCHEMA_VERSION:
            return "fleet", payload
        if "windows" in payload:
            return "session", payload
        if (
            "window_index" in payload
            or "latency_constraint_us_per_byte" in payload
        ):
            return "tail", _tail([payload])
    return "trace", payload


def _tail(records: List[Any]) -> Tail:
    first = records[0] if records else None
    if isinstance(first, dict) and "latency_constraint_us_per_byte" in first:
        return Tail(first, records[1:])
    return Tail(None, records)
