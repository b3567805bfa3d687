"""Board specification: the simulated rk3399 matches the paper's setup."""

import pytest

from repro.errors import ConfigurationError
from repro.simcore.boards import BoardSpec, rk3399
from repro.simcore.hardware import ClusterSpec, CoreType
from repro.simcore.interconnect import Path


@pytest.fixture(scope="module")
def board():
    return rk3399()


class TestRk3399Topology:
    def test_six_cores(self, board):
        assert len(board.cores) == 6

    def test_four_little_two_big(self, board):
        assert board.little_core_ids == (0, 1, 2, 3)
        assert board.big_core_ids == (4, 5)

    def test_two_clusters(self, board):
        assert len(board.clusters) == 2
        assert board.cluster_by_id[0].core_type is CoreType.LITTLE
        assert board.cluster_by_id[1].core_type is CoreType.BIG

    def test_core_models(self, board):
        assert board.core_by_id[0].model == "Cortex-A53"
        assert board.core_by_id[4].model == "Cortex-A72"

    def test_paper_frequencies(self, board):
        assert board.core_by_id[0].max_frequency_mhz == 1416.0
        assert board.core_by_id[4].max_frequency_mhz == 1800.0

    def test_core_cluster_mapping(self, board):
        for core_id in range(4):
            assert board.core_cluster[core_id] == 0
        for core_id in (4, 5):
            assert board.core_cluster[core_id] == 1


class TestFallbackCore:
    """The emergency-routing rule the executor and controller share."""

    @pytest.mark.parametrize(
        "victim, dead, expected",
        [
            (4, {4}, 5),        # big survivor of the same cluster
            (4, {4, 5}, 0),     # big cluster gone: lowest-id survivor
            (5, {4, 5}, 0),
            (0, {0}, 1),        # little survivor of the same cluster
            (0, set(), 1),      # the victim counts as dead either way
            (2, {0, 1, 2}, 3),
        ],
    )
    def test_rk3399_table(self, board, victim, dead, expected):
        assert board.fallback_core(victim, dead) == expected

    def test_every_core_dead_rejected(self, board):
        with pytest.raises(ConfigurationError, match="every core"):
            board.fallback_core(0, set(board.core_ids))


class TestPathClassification:
    def test_same_core_local(self, board):
        assert board.path_between(0, 0) is Path.LOCAL

    def test_intra_little_cluster(self, board):
        assert board.path_between(0, 3) is Path.C0

    def test_intra_big_cluster(self, board):
        assert board.path_between(4, 5) is Path.C0

    def test_big_to_little_is_c1(self, board):
        assert board.path_between(4, 0) is Path.C1

    def test_little_to_big_is_c2(self, board):
        assert board.path_between(0, 4) is Path.C2

    def test_direction_asymmetry(self, board):
        """The paper's asymmetric communication effect."""
        costs = board.interconnect.costs
        down = costs[board.path_between(5, 1)].unit_cost_us_per_byte
        up = costs[board.path_between(1, 5)].unit_cost_us_per_byte
        assert up > down


class TestValidation:
    def test_duplicate_core_ids_rejected(self, board):
        core = board.cores[0]
        with pytest.raises(ConfigurationError):
            BoardSpec(
                name="bad",
                cores=(core, core),
                clusters=(
                    ClusterSpec(cluster_id=0, core_type=CoreType.LITTLE,
                                core_ids=(core.core_id,)),
                ),
                interconnect=board.interconnect,
                uncore_power_w=0.0,
                context_switch_instructions=1.0,
                replication_latency_overhead=0.0,
                replication_energy_overhead=0.0,
            )

    def test_unclustered_core_rejected(self, board):
        with pytest.raises(ConfigurationError):
            BoardSpec(
                name="bad",
                cores=board.cores,
                clusters=(board.clusters[0],),  # big cores orphaned
                interconnect=board.interconnect,
                uncore_power_w=0.0,
                context_switch_instructions=1.0,
                replication_latency_overhead=0.0,
                replication_energy_overhead=0.0,
            )

    def test_empty_board_rejected(self, board):
        with pytest.raises(ConfigurationError):
            BoardSpec(
                name="empty",
                cores=(),
                clusters=(),
                interconnect=board.interconnect,
                uncore_power_w=0.0,
                context_switch_instructions=1.0,
                replication_latency_overhead=0.0,
                replication_energy_overhead=0.0,
            )


class TestCalibrationAnchors:
    """The board reproduces the paper's Table IV operating points for
    tcomp32-Rovio's decomposed tasks (within calibration tolerance)."""

    def test_t0_latency_anchor(self, board):
        # t0: κ≈318, ~270 instructions/byte.
        big, little = board.core_by_id[4], board.core_by_id[0]
        instructions_per_byte = 270.0
        l_big = instructions_per_byte / big.eta.value(318)
        l_little = instructions_per_byte / little.eta.value(318)
        assert l_big == pytest.approx(15.0, rel=0.15)
        assert l_little == pytest.approx(32.6, rel=0.15)

    def test_t1_latency_anchor(self, board):
        big, little = board.core_by_id[4], board.core_by_id[0]
        instructions_per_byte = 118.0
        assert instructions_per_byte / big.eta.value(102) == pytest.approx(
            13.5, rel=0.15
        )
        assert instructions_per_byte / little.eta.value(102) == pytest.approx(
            21.7, rel=0.15
        )

    def test_t1_energy_strongly_favours_little(self, board):
        # Table IV: t1 is ~3x cheaper on a little core.
        big, little = board.core_by_id[4], board.core_by_id[0]
        ratio = big.zeta.value(102) / little.zeta.value(102)
        assert ratio < 0.5

    def test_t0_energy_nearly_equal(self, board):
        # Table IV: at κ≈320 the energy gap is small (0.29 vs 0.27).
        big, little = board.core_by_id[4], board.core_by_id[0]
        ratio = little.zeta.value(318) / big.zeta.value(318)
        assert 1.0 < ratio < 1.6
