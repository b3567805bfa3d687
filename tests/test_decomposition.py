"""Fine-grained decomposition and the fusion rule (§IV-B)."""

import pytest

from repro.core.decomposition import decompose
from repro.core.profiler import measure_communication, profile_workload
from repro.core.cost_model import calibrate_curves
from repro.compression import get_codec
from repro.datasets import get_dataset
from repro.simcore.boards import rk3399


@pytest.fixture(scope="module")
def board():
    return rk3399()


@pytest.fixture(scope="module")
def curves(board):
    return calibrate_curves(board)


@pytest.fixture(scope="module")
def communication(board):
    return measure_communication(board)


def decompose_workload(codec_name, dataset_name, board, curves, communication):
    profile = profile_workload(
        get_codec(codec_name), get_dataset(dataset_name), 8192, batches=3
    )
    return decompose(profile, board, curves.eta, communication)


class TestTcomp32Decomposition:
    def test_paper_fig4_structure(self, board, curves, communication):
        """Read and encode fuse; write stays separate (paper Fig 4)."""
        graph = decompose_workload(
            "tcomp32", "rovio", board, curves, communication
        )
        assert graph.describe() == "t0[s0+s1] -> t1[s2]"

    def test_all_steps_covered_once(self, board, curves, communication):
        graph = decompose_workload(
            "tcomp32", "stock", board, curves, communication
        )
        assert tuple(step for task in graph.tasks for step in task.step_ids) == ("s0", "s1", "s2")


class TestStatefulDecomposition:
    @pytest.mark.parametrize("codec_name", ["tdic32", "lz4"])
    def test_read_always_fused_into_successor(
        self, codec_name, board, curves, communication
    ):
        """s0 is a cheap memory copy; shipping its output costs more
        than recomputing, so it never stands alone."""
        graph = decompose_workload(
            codec_name, "rovio", board, curves, communication
        )
        assert graph.tasks[0].step_ids[0] == "s0"
        assert len(graph.tasks[0].step_ids) >= 2

    def test_tdic32_multi_stage(self, board, curves, communication):
        graph = decompose_workload(
            "tdic32", "rovio", board, curves, communication
        )
        assert graph.stage_count >= 3
        assert tuple(step for task in graph.tasks for step in task.step_ids) == (
            "s0", "s1", "s2", "s3", "s4"
        )

    def test_stage_kappas_differ(self, board, curves, communication):
        """Decomposition's purpose: exposing distinct per-task κ."""
        profile = profile_workload(
            get_codec("tdic32"), get_dataset("rovio"), 8192, batches=3
        )
        graph = decompose(profile, board, curves.eta, communication)
        kappas = [
            task.merged_cost(profile.mean_step_costs).operational_intensity
            for task in graph.tasks
        ]
        assert max(kappas) > 2 * min(kappas)


class TestFusionRule:
    def test_expensive_communication_forces_fusion(
        self, board, curves, communication
    ):
        """With a 100x dearer interconnect every step fuses into one."""
        from repro.core.profiler import CommunicationTable
        from repro.simcore.interconnect import Path

        dear = CommunicationTable(
            unit_cost_us_per_byte={
                path: communication.unit_cost(path) * 100
                for path in (Path.C0, Path.C1, Path.C2)
            },
            message_overhead_us={
                path: communication.overhead(path)
                for path in (Path.C0, Path.C1, Path.C2)
            },
        )
        profile = profile_workload(
            get_codec("tcomp32"), get_dataset("rovio"), 8192, batches=3
        )
        graph = decompose(profile, board, curves.eta, dear)
        assert graph.stage_count == 1

    def test_free_communication_splits_everything(
        self, board, curves, communication
    ):
        from repro.core.profiler import CommunicationTable
        from repro.simcore.interconnect import Path

        free = CommunicationTable(
            unit_cost_us_per_byte={
                path: 0.0 for path in (Path.C0, Path.C1, Path.C2)
            },
            message_overhead_us={
                path: 0.0 for path in (Path.C0, Path.C1, Path.C2)
            },
        )
        profile = profile_workload(
            get_codec("tcomp32"), get_dataset("rovio"), 8192, batches=3
        )
        graph = decompose(profile, board, curves.eta, free)
        assert graph.stage_count == 3
