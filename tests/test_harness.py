"""Experiment harness: specs, caching, tables."""


from repro.bench.harness import (
    PAPER_BATCH_BYTES,
    PAPER_LATENCY_CONSTRAINT,
    Harness,
    WorkloadSpec,
    format_table,
)
from repro.compression import get_codec


class TestWorkloadSpec:
    def test_label(self):
        assert WorkloadSpec.of("lz4", "stock").label == "lz4-stock"

    def test_defaults_match_paper(self):
        spec = WorkloadSpec.of("tcomp32", "rovio")
        assert spec.latency_constraint == PAPER_LATENCY_CONSTRAINT == 26.0
        assert PAPER_BATCH_BYTES == 932_800

    def test_options_frozen_and_hashable(self):
        spec = WorkloadSpec.of(
            "tdic32", "micro",
            codec_options={"index_bits": 10},
            dataset_options={"dynamic_range": 100},
        )
        hash(spec)  # usable as cache key
        assert get_codec(spec.codec, **dict(spec.codec_options)).index_bits == 10
        assert spec.make_dataset().dynamic_range == 100

    def test_equal_specs_are_equal(self):
        a = WorkloadSpec.of("lz4", "stock", dataset_options={"instrument_count": 8})
        b = WorkloadSpec.of("lz4", "stock", dataset_options={"instrument_count": 8})
        assert a == b


class TestHarnessCaching:
    def test_profile_cached(self, small_harness, tcomp32_rovio_spec):
        first = small_harness.profile(tcomp32_rovio_spec)
        second = small_harness.profile(tcomp32_rovio_spec)
        assert first is second

    def test_context_cached(self, small_harness, tcomp32_rovio_spec):
        assert small_harness.context(tcomp32_rovio_spec) is (
            small_harness.context(tcomp32_rovio_spec)
        )

    def test_run_cached(self, small_harness, tcomp32_rovio_spec):
        first = small_harness.run(tcomp32_rovio_spec, "CStream", repetitions=2)
        second = small_harness.run(tcomp32_rovio_spec, "CStream", repetitions=2)
        assert first is second

    def test_different_overrides_not_conflated(
        self, small_harness, tcomp32_rovio_spec
    ):
        a = small_harness.run(tcomp32_rovio_spec, "CStream", repetitions=2)
        b = small_harness.run(
            tcomp32_rovio_spec, "CStream", repetitions=2, noise_sigma=0.0
        )
        assert a is not b

    def test_grid_covers_all_cells(self, small_harness, tcomp32_rovio_spec):
        grid = small_harness.grid(
            [tcomp32_rovio_spec], ["CStream", "RR"], repetitions=2
        )
        assert set(grid) == {
            ("tcomp32-rovio", "CStream"),
            ("tcomp32-rovio", "RR"),
        }

    def test_grid_jobs_one_matches_serial_cache(
        self, small_harness, tcomp32_rovio_spec
    ):
        # jobs=1 is the plain serial loop: cells come from (and land in)
        # the same in-memory cache as direct run() calls.
        direct = small_harness.run(tcomp32_rovio_spec, "RR", repetitions=2)
        grid = small_harness.grid(
            [tcomp32_rovio_spec], ["RR"], jobs=1, repetitions=2
        )
        assert grid[("tcomp32-rovio", "RR")] is direct


class TestFormatTable:
    def test_aligned_columns(self):
        text = format_table(
            "demo", ("name", "value"), [("a", 1), ("long-name", 22)]
        )
        lines = text.splitlines()
        assert lines[0] == "== demo =="
        assert "long-name" in lines[4]
        # Header separator row present.
        assert set(lines[2].replace("  ", "")) == {"-"}

    def test_note_rendered(self):
        text = format_table("t", ("a",), [(1,)], note="hello")
        assert text.endswith("note: hello")
