"""Dry-run profiling of workloads, rooflines and communication."""

import pytest

from repro.compression import get_codec
from repro.core.profiler import (
    measure_communication,
    profile_roofline,
    profile_workload,
)
from repro.datasets import get_dataset
from repro.errors import ProfilingError
from repro.simcore.boards import rk3399
from repro.simcore.interconnect import Path


class TestProfileWorkload:
    def test_basic_profile(self):
        profile = profile_workload(
            get_codec("tcomp32"), get_dataset("rovio"), 8192, batches=3
        )
        assert profile.codec_name == "tcomp32"
        assert profile.dataset_name == "rovio"
        assert len(profile.per_batch_step_costs) == 3
        assert profile.step_ids == ("s0", "s1", "s2")
        assert not profile.stateful

    def test_batch_size_rounded_to_tuples(self):
        profile = profile_workload(
            get_codec("tcomp32"), get_dataset("rovio"), 8190, batches=2
        )
        assert profile.batch_size_bytes == 8190 - 8190 % 16

    def test_mean_costs_average_batches(self):
        profile = profile_workload(
            get_codec("tdic32"), get_dataset("rovio"), 8192, batches=4
        )
        for step_id in profile.step_ids:
            instructions = [
                costs[step_id].instructions
                for costs in profile.per_batch_step_costs
            ]
            mean = sum(instructions) / len(instructions)
            assert profile.mean_step_costs[step_id].instructions == (
                pytest.approx(mean)
            )

    def test_warmup_excluded(self):
        """The first (cold-dictionary) batch must not skew the mean."""
        with_warmup = profile_workload(
            get_codec("lz4"), get_dataset("rovio"), 8192, batches=3,
            warmup_batches=1,
        )
        without = profile_workload(
            get_codec("lz4"), get_dataset("rovio"), 8192, batches=3,
            warmup_batches=0,
        )
        # The cold batch has fewer matches -> lower s3 cost.
        assert (
            without.mean_step_costs["s3"].instructions
            < with_warmup.mean_step_costs["s3"].instructions
        )

    def test_compression_ratio_positive(self):
        profile = profile_workload(
            get_codec("lz4"), get_dataset("sensor"), 8192, batches=2
        )
        assert profile.compression_ratio > 1.0

    def test_step_kappa_accessor(self):
        profile = profile_workload(
            get_codec("tcomp32"), get_dataset("rovio"), 8192, batches=2
        )
        assert profile.step_kappa("s1") > profile.step_kappa("s0")

    def test_zero_batches_rejected(self):
        with pytest.raises(ProfilingError):
            profile_workload(
                get_codec("tcomp32"), get_dataset("rovio"), 8192, batches=0
            )

    def test_negative_warmup_rejected(self):
        with pytest.raises(ProfilingError):
            profile_workload(
                get_codec("tcomp32"), get_dataset("rovio"), 8192,
                batches=2, warmup_batches=-1,
            )


class TestProfileRoofline:
    def test_sample_count_matches_grid(self):
        core = rk3399().core_by_id[0]
        samples = profile_roofline(core, kappas=(10.0, 50.0, 100.0))
        assert samples.kappas == (10.0, 50.0, 100.0)
        assert len(samples.eta_values) == 3
        assert len(samples.zeta_values) == 3

    def test_noise_bounded(self):
        core = rk3399().core_by_id[4]
        samples = profile_roofline(core, noise=0.01, seed=1)
        for kappa, eta in zip(samples.kappas, samples.eta_values):
            assert eta == pytest.approx(core.eta.value(kappa), rel=0.08)

    def test_zero_noise_exact(self):
        core = rk3399().core_by_id[0]
        samples = profile_roofline(core, kappas=(25.0,), noise=0.0)
        assert samples.eta_values[0] == core.eta.value(25.0)

    def test_deterministic_per_seed(self):
        core = rk3399().core_by_id[0]
        assert profile_roofline(core, seed=5) == profile_roofline(core, seed=5)

    def test_different_cores_different_noise(self):
        board = rk3399()
        little = profile_roofline(board.core_by_id[0], kappas=(400.0,))
        other = profile_roofline(board.core_by_id[1], kappas=(400.0,))
        assert little.eta_values != other.eta_values

    def test_empty_grid_rejected(self):
        with pytest.raises(ProfilingError):
            profile_roofline(rk3399().core_by_id[0], kappas=())


class TestMeasureCommunication:
    def test_all_paths_measured(self):
        table = measure_communication(rk3399())
        for path in (Path.C0, Path.C1, Path.C2):
            assert table.unit_cost(path) > 0
            assert table.overhead(path) > 0

    def test_local_free(self):
        table = measure_communication(rk3399())
        assert table.unit_cost(Path.LOCAL) == 0.0
        assert table.overhead(Path.LOCAL) == 0.0

    def test_measured_close_to_truth(self):
        board = rk3399()
        table = measure_communication(board, noise=0.02, seed=0)
        for path in (Path.C0, Path.C1, Path.C2):
            assert table.unit_cost(path) == pytest.approx(
                board.interconnect.costs[path].unit_cost_us_per_byte, rel=0.1
            )

    def test_preserves_asymmetry(self):
        table = measure_communication(rk3399())
        assert table.unit_cost(Path.C2) > table.unit_cost(Path.C1)
