"""The process-wide dry-run memo (:func:`repro.core.profiler.profile_named`).

Every registry-named workload is profiled through one memo keyed on
exactly the arguments of :func:`profile_workload`. These tests pin the
key (no latency constraint in it), the least-recently-used bound, the
identity of each migrated call site with the direct dry run it
replaced, and that no session mutates a shared profile.
"""

from __future__ import annotations

import ast
import hashlib
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.bench.exp_ablations import abl_regulator
from repro.bench.exp_endtoend import fig09_adaptivity
from repro.bench.harness import Harness, WorkloadSpec
from repro.compression import get_codec
from repro.control.session import SessionSpec, build_drift_stream, run_adaptive_session
from repro.core import profiler
from repro.core.profiler import profile_named, profile_workload
from repro.datasets import MicroDataset, drift_schedule
from repro.faults.chaos import ChaosSpec, run_chaos_session
from repro.fleet.tenants import build_tenant_catalog, build_tenant_workloads
from repro.simcore.boards import jetson_tx2_like, rk3399


def small_harness(board=None, seed=0):
    return Harness(
        board=board,
        repetitions=1,
        batches_per_repetition=3,
        profile_batches=3,
        seed=seed,
        cache=None,
    )


@pytest.fixture
def dry_runs(monkeypatch):
    """Start from an empty memo and record every dry run behind it."""
    monkeypatch.setattr(profiler, "_NAMED_PROFILES", OrderedDict())
    calls = []

    def recording(*args, **kwargs):
        profile = profile_workload(*args, **kwargs)
        calls.append((profile, profile.fingerprint()))
        return profile

    monkeypatch.setattr(profiler, "profile_workload", recording)
    return calls


def assert_memoized(dry_runs, direct, codec, batch_size, batches, seed, dynamic_range):
    """The call site left this entry in the memo, and it is the profile
    the direct dry run with the same arguments measures."""
    before = len(dry_runs)
    memoized = profile_named(
        codec, "micro", batch_size, batches=batches, seed=seed,
        dataset_options={"dynamic_range": dynamic_range},
    )
    assert len(dry_runs) == before
    assert memoized == direct
    assert memoized.fingerprint() == direct.fingerprint()


class TestKey:
    def test_latency_constraint_shares_one_dry_run(self, dry_runs):
        spec = WorkloadSpec.of("tcomp32", "rovio", batch_size=8192)
        first = small_harness().profile(replace(spec, latency_constraint=20.0))
        second = small_harness().profile(replace(spec, latency_constraint=26.0))
        assert len(dry_runs) == 1
        assert second is first

    def test_options_order_does_not_split_entries(self, dry_runs):
        by_mapping = profile_named(
            "tcomp32", "micro", 4096, batches=1,
            dataset_options={"dynamic_range": 500},
        )
        by_pairs = profile_named(
            "tcomp32", "micro", 4096, batches=1,
            dataset_options=(("dynamic_range", 500),),
        )
        assert by_pairs is by_mapping
        assert len(dry_runs) == 1


class TestBound:
    def test_least_recently_used_entry_is_evicted(self, monkeypatch):
        monkeypatch.setattr(profiler, "_NAMED_PROFILES", OrderedDict())
        calls = []
        monkeypatch.setattr(
            profiler,
            "profile_workload",
            lambda *args, **kwargs: calls.append(args) or object(),
        )
        size = profiler._NAMED_PROFILES_MAX

        def named(seed):
            return profile_named("tcomp32", "micro", 1024, batches=1, seed=seed)

        oldest = named(0)
        for seed in range(1, size):
            named(seed)
        assert named(0) is oldest  # read: seed 0 is now the newest entry
        named(size)  # one past the bound evicts seed 1
        assert len(profiler._NAMED_PROFILES) == size
        assert len(calls) == size + 1
        assert named(0) is oldest
        assert len(calls) == size + 1
        named(1)
        assert len(calls) == size + 2


class TestCallSites:
    def test_drift_stream_is_shared_across_boards(self, dry_runs):
        spec = SessionSpec(scenario="phase-shift")
        build_drift_stream(small_harness(rk3399(), seed=1), spec)
        first = len(dry_runs)
        assert first > 0
        build_drift_stream(small_harness(jetson_tx2_like(), seed=1), spec)
        assert len(dry_runs) == first

        batch_size = WorkloadSpec.of(spec.codec, "micro").batch_size
        ranges = drift_schedule(
            spec.scenario, spec.batches, low=spec.low_range, high=spec.high_range
        )
        for index, value in enumerate(sorted(set(ranges))):
            direct = profile_workload(
                get_codec(spec.codec),
                MicroDataset(dynamic_range=value),
                batch_size,
                batches=3,
                seed=1 + 1 + index,
            )
            assert_memoized(
                dry_runs, direct, spec.codec, batch_size, 3, 1 + 1 + index, value
            )

    def test_tenant_profiles_are_shared(self, dry_runs):
        specs = build_tenant_catalog(3)
        first = build_tenant_workloads(specs, seed=0)
        assert len(dry_runs) == len(specs)
        second = build_tenant_workloads(specs, seed=0)
        assert len(dry_runs) == len(specs)
        for before, after in zip(first, second):
            assert after.profile is before.profile
        for tenant in specs:
            direct = profile_workload(
                get_codec(tenant.codec),
                MicroDataset(dynamic_range=tenant.dynamic_range),
                tenant.batch_bytes,
                batches=2,
                seed=tenant.tenant_id + 1,
            )
            assert_memoized(
                dry_runs, direct, tenant.codec, tenant.batch_bytes, 2,
                tenant.tenant_id + 1, tenant.dynamic_range,
            )

    @pytest.mark.parametrize(
        "experiment", [fig09_adaptivity, abl_regulator],
        ids=["fig9", "abl_regulator"],
    )
    def test_high_range_profile(self, dry_runs, experiment):
        """Both run phase-shift sessions: the high range is the second of
        the drift stream's two profiles (see build_drift_stream)."""
        harness = small_harness()
        experiment(harness)
        batch_size = WorkloadSpec.of("tcomp32", "micro").batch_size
        direct = profile_workload(
            get_codec("tcomp32"),
            MicroDataset(dynamic_range=50_000),
            batch_size,
            batches=3,
            seed=harness.seed + 2,
        )
        assert_memoized(
            dry_runs, direct, "tcomp32", batch_size, 3,
            harness.seed + 2, 50_000,
        )


def test_sessions_leave_shared_profiles_unchanged(dry_runs):
    run_adaptive_session(small_harness(), SessionSpec(scenario="phase-shift"))
    run_chaos_session(
        Harness(
            board=rk3399(),
            repetitions=1,
            batches_per_repetition=18,
            profile_batches=3,
            cache=None,
        ),
        ChaosSpec(scenario="core-failure", batch_bytes=8192),
    )
    measured = {id(profile): fingerprint for profile, fingerprint in dry_runs}
    assert len(profiler._NAMED_PROFILES) == len(dry_runs)
    for profile in profiler._NAMED_PROFILES.values():
        # re-digest: fingerprint() is computed once per profile
        digest = hashlib.sha256(repr(profile).encode("utf-8")).hexdigest()
        assert digest[:16] == measured[id(profile)]


def test_only_the_profiler_and_framework_call_profile_workload():
    """Every other module profiles through the memo."""
    root = Path(repro.__file__).parent
    callers = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name == "profile_workload":
                callers.add(path.relative_to(root).as_posix())
    assert callers == {"core/profiler.py", "core/framework.py"}
