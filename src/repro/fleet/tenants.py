"""Tenant catalogue: per-stream workloads, priorities and SLOs.

A *tenant* is one IoT stream session a customer wants served: a codec,
a data regime (Micro ``dynamic_range``), a window shape, a priority
class, and a latency SLO. The SLO is derived, not configured: each
tenant's ``L_set`` is its modeled CStream latency on the *reference
board* (the paper's rk3399) times a priority-dependent margin — so SLOs
are board-independent, deterministic, and achievable by construction on
at least one board kind.

:func:`build_tenant_catalog` synthesizes ``count`` tenants by cycling
codecs, data regimes and priorities — deterministic in ``seed`` and
``count`` only, so the same catalogue reappears across runs, arms and
job counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.baselines import WorkloadContext
from repro.core.profiler import WorkloadProfile, profile_named
from repro.errors import ConfigurationError
from repro.simcore.boards import rk3399

__all__ = [
    "TenantSpec",
    "TenantWorkload",
    "build_tenant_catalog",
    "build_tenant_workloads",
]

#: bootstrap constraint used only to profile the reference plan the SLO
#: is derived from — loose enough that every catalogue codec schedules
#: feasibly on the reference board
_BOOTSTRAP_L_SET = 100.0

#: (codec, dynamic_range) regimes the catalogue cycles through
_CATALOG_REGIMES = (
    ("tcomp32", 500),
    ("tdic32", 2_000),
    ("tcomp32", 50_000),
    ("tdic32", 200),
)

#: priority classes cycled across tenants (higher = more important;
#: load shedding evicts the lowest first)
_CATALOG_PRIORITIES = (2, 0, 1)

#: SLO margin by priority class — premium tenants buy tighter SLOs,
#: but every class keeps enough slack that congestion noise alone
#: (a few percent) cannot breach it
_SLO_MARGIN_BY_PRIORITY = {0: 1.8, 1: 1.5, 2: 1.3}


@dataclass(frozen=True)
class TenantSpec:
    """Everything static about one tenant's stream session."""

    tenant_id: int
    name: str
    codec: str
    dynamic_range: int
    #: bytes per batch
    batch_bytes: int
    batches_per_window: int
    #: priority class: 0 (best effort) .. 2 (premium)
    priority: int
    #: L_set = slo_margin x modeled reference-board latency
    slo_margin: float
    #: gateway window the tenant first requests admission in
    arrival_window: int

    def __post_init__(self) -> None:
        if self.batch_bytes < 1:
            raise ConfigurationError("batch_bytes must be positive")
        if self.batches_per_window < 1:
            raise ConfigurationError("batches_per_window must be positive")
        if self.slo_margin <= 1.0:
            raise ConfigurationError(
                "slo_margin must exceed 1.0 (an SLO at exactly the "
                "modeled latency is unservable under any noise)"
            )
        if self.arrival_window < 0:
            raise ConfigurationError("arrival_window must be >= 0")

    @property
    def window_bytes(self) -> int:
        """Bytes the tenant streams per gateway window."""
        return self.batch_bytes * self.batches_per_window


@dataclass(frozen=True)
class TenantWorkload:
    """A tenant plus its profiled workload and derived SLO."""

    spec: TenantSpec
    profile: WorkloadProfile
    #: modeled CStream latency on the reference rk3399, µs/byte
    reference_latency_us_per_byte: float
    #: the SLO the admission controller enforces, µs/byte
    l_set_us_per_byte: float

    @property
    def tenant_id(self) -> int:
        return self.spec.tenant_id


def build_tenant_catalog(
    count: int,
    seed: int = 0,
    batch_bytes: int = 2048,
    batches_per_window: int = 3,
    arrival_stride: int = 2,
) -> Tuple[TenantSpec, ...]:
    """``count`` tenant specs, cycling regimes and priorities.

    ``arrival_stride`` staggers admission requests: ``arrival_stride``
    tenants arrive per window, so the admission controller fills the
    fleet gradually instead of in one burst.
    """
    if count < 1:
        raise ConfigurationError("a catalogue needs at least one tenant")
    if arrival_stride < 1:
        raise ConfigurationError("arrival_stride must be positive")
    specs = []
    for tenant_id in range(count):
        codec, dynamic_range = _CATALOG_REGIMES[
            tenant_id % len(_CATALOG_REGIMES)
        ]
        priority = _CATALOG_PRIORITIES[tenant_id % len(_CATALOG_PRIORITIES)]
        specs.append(
            TenantSpec(
                tenant_id=tenant_id,
                name=f"tenant-{tenant_id}-{codec}",
                codec=codec,
                dynamic_range=dynamic_range,
                batch_bytes=batch_bytes,
                batches_per_window=batches_per_window,
                priority=priority,
                slo_margin=_SLO_MARGIN_BY_PRIORITY[priority],
                arrival_window=tenant_id // arrival_stride,
            )
        )
    return tuple(specs)


def profile_tenant(spec: TenantSpec, seed: int = 0) -> WorkloadProfile:
    """Profile one tenant's codec on its data regime.

    The profiling seed is derived from (seed, tenant_id) so profiles
    are independent of catalogue order and of which tenants share a
    run.
    """
    return profile_named(
        spec.codec,
        "micro",
        spec.batch_bytes,
        batches=2,
        seed=seed * 1_000 + spec.tenant_id + 1,
        dataset_options={"dynamic_range": spec.dynamic_range},
    )


def build_tenant_workloads(
    specs: Tuple[TenantSpec, ...], seed: int = 0
) -> Tuple[TenantWorkload, ...]:
    """Profile every tenant and derive its SLO on the reference board.

    One reference rk3399 context per distinct profile; the modeled
    latency of the best-effort CStream plan under the bootstrap
    constraint anchors ``l_set = slo_margin x reference latency``.
    """
    reference = rk3399()
    workloads = []
    for spec in specs:
        profile = profile_tenant(spec, seed=seed)
        context = WorkloadContext.build(
            reference, profile, _BOOTSTRAP_L_SET, seed=seed
        )
        reference_latency = context.plan(
            context.fine_graph
        ).estimate.latency_us_per_byte
        workloads.append(
            TenantWorkload(
                spec=spec,
                profile=profile,
                reference_latency_us_per_byte=reference_latency,
                l_set_us_per_byte=spec.slo_margin * reference_latency,
            )
        )
    return tuple(workloads)
