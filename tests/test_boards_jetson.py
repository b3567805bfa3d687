"""The Jetson-TX2-class board (future-work hardware) and ablations."""

import pytest

from repro.simcore.boards import jetson_tx2_like, rk3399
from repro.simcore.interconnect import Path


@pytest.fixture(scope="module")
def jetson():
    return jetson_tx2_like()


class TestTopology:
    def test_four_plus_two(self, jetson):
        assert len(jetson.little_core_ids) == 4
        assert len(jetson.big_core_ids) == 2

    def test_core_models(self, jetson):
        assert jetson.core_by_id[0].model == "Cortex-A57"
        assert jetson.core_by_id[4].model == "Denver2"

    def test_same_max_frequency_both_clusters(self, jetson):
        assert (
            jetson.core_by_id[0].max_frequency_mhz
            == jetson.core_by_id[4].max_frequency_mhz
        )


class TestMilderAsymmetry:
    def test_no_in_order_dip(self, jetson):
        """A57 is out-of-order: its η must be monotone (no κ 30-70 dip
        like the A53's)."""
        a57 = jetson.core_by_id[0].eta
        values = [a57.value(k) for k in range(5, 400, 5)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_denver_faster_everywhere(self, jetson):
        for kappa in (50, 150, 300, 450):
            assert (
                jetson.core_by_id[4].eta.value(kappa)
                > jetson.core_by_id[0].eta.value(kappa)
            )

    def test_a57_more_efficient(self, jetson):
        for kappa in (50, 150, 300):
            assert (
                jetson.core_by_id[0].zeta.value(kappa)
                > jetson.core_by_id[4].zeta.value(kappa)
            )

    def test_speed_gap_milder_than_rk3399(self, jetson):
        rk = rk3399()
        kappa = 300
        rk_gap = rk.core_by_id[4].eta.value(kappa) / rk.core_by_id[0].eta.value(
            kappa
        )
        jetson_gap = jetson.core_by_id[4].eta.value(
            kappa
        ) / jetson.core_by_id[0].eta.value(kappa)
        assert jetson_gap < rk_gap

    def test_interconnect_cheaper_than_rk3399(self, jetson):
        rk = rk3399()
        for path in (Path.C0, Path.C1, Path.C2):
            assert jetson.interconnect.costs[path].unit_cost_us_per_byte <= (
                rk.interconnect.costs[path].unit_cost_us_per_byte
            )

    def test_direction_asymmetry_still_present(self, jetson):
        costs = jetson.interconnect.costs
        assert costs[Path.C2].unit_cost_us_per_byte > (
            costs[Path.C1].unit_cost_us_per_byte
        )


class TestSchedulingOnJetson:
    def test_cstream_schedules_and_meets_constraint(self, jetson):
        from repro.bench.harness import Harness, WorkloadSpec

        harness = Harness(board=jetson, repetitions=5,
                          batches_per_repetition=4, profile_batches=3)
        spec = WorkloadSpec.of("tcomp32", "rovio", batch_size=8192)
        result = harness.run(spec, "CStream")
        assert result.clcv == 0.0

    def test_faster_board_lower_latency(self, jetson):
        from repro.bench.harness import Harness, WorkloadSpec

        spec = WorkloadSpec.of("tcomp32", "rovio", batch_size=8192)
        latencies = {}
        for board in (rk3399(), jetson):
            harness = Harness(board=board, repetitions=5,
                              batches_per_repetition=4, profile_batches=3)
            latencies[board.name] = harness.run(
                spec, "CStream"
            ).mean_latency_us_per_byte
        assert latencies[jetson.name] < latencies[rk3399().name]


class TestAblationExperiments:
    def test_guard_band_rows(self, small_harness):
        from repro.bench.exp_ablations import abl_guard_band

        result = abl_guard_band(small_harness, repetitions=5)
        assert len(result.rows) == 4
        values = result.extras["values"]
        # Tighter bands never reduce headroom.
        assert values[0.90]["headroom"] >= values[1.0]["headroom"]

    def test_fusion_ablation_orders_granularities(self, small_harness):
        from repro.bench.exp_ablations import abl_fusion

        result = abl_fusion(small_harness, repetitions=5)
        values = result.extras["values"]
        assert values["no fusion"]["stages"] > values["fusion rule"]["stages"]
        assert values["fully fused"]["stages"] == 1
        # Full fusion is the most expensive variant.
        assert values["fully fused"]["E"] > values["fusion rule"]["E"]

    def test_regulator_ablation_stats_faster(self, small_harness):
        from repro.bench.exp_ablations import abl_regulator

        result = abl_regulator(small_harness)
        pid = result.extras["pid"]
        stats = result.extras["statistics"]
        # Judged on steady batches (boundary batches pay the drain).
        assert stats["adoptions"][0][0] < pid["adoptions"][0][0]
        assert len(stats["violations"]) <= len(pid["violations"])
        assert stats["transient_energy"] <= pid["transient_energy"] * 1.001

    def test_boards_ablation_covers_both(self):
        from repro.bench.exp_ablations import abl_boards

        result = abl_boards(repetitions=4)
        boards = {row[0] for row in result.rows}
        assert len(boards) == 2
