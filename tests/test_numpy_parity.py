"""The table-driven and vectorized paths equal independent references.

The cost model reads precomputed per-(stage, core) lookup tables and the
lz4 encoder reads and hashes the 4-byte word at every scan position in
one uint32 numpy pass. These tests compare both against references that
share none of that code — the curve-level oracle in
``tests/cost_oracle.py`` (fitted η/ζ curves and the measured
communication table, one scalar call chain per replica) and a per-probe
4-byte read and hash — bit for bit, on randomized plans
and randomized payloads, not just the curated fixtures.
"""

import random

import pytest

from repro.compression.lz4 import Lz4, _MATCH_SEARCH_MARGIN, _hash_all
from repro.core.plan import SchedulingPlan
from tests import cost_oracle
from tests.codec_oracle import lz4_hash4


@pytest.fixture(scope="module")
def context():
    from repro.compression import get_codec
    from repro.core.baselines import WorkloadContext
    from repro.core.profiler import profile_workload
    from repro.datasets import get_dataset
    from repro.simcore.boards import rk3399

    profile = profile_workload(
        get_codec("tcomp32"), get_dataset("rovio"), 8192, batches=4
    )
    return WorkloadContext.build(rk3399(), profile, 26.0)


def _random_plans(context, count, seed):
    """Random (possibly replicated, possibly colocated) plans."""
    rng = random.Random(seed)
    graph = context.fine_graph
    core_ids = [core.core_id for core in context.board.cores]
    plans = []
    for _ in range(count):
        assignments = tuple(
            tuple(
                rng.choice(core_ids)
                for _ in range(rng.randint(1, min(3, len(core_ids))))
            )
            for _ in range(graph.stage_count)
        )
        plans.append(SchedulingPlan(graph=graph, assignments=assignments))
    return plans


class TestCostModelParity:
    def test_randomized_plans_scalar_equals_numpy(self, context):
        """The table-driven evaluate() (which replaced the numpy-array
        path) equals the scalar curve-level oracle, estimate for
        estimate, on randomized replicated and colocated plans."""
        model = context.cost_model(context.fine_graph)
        for plan in _random_plans(context, count=25, seed=20260808):
            assert model.evaluate(plan) == cost_oracle.evaluate(model, plan)

    def test_evaluate_matches_internal_scalar_path(self, context):
        """evaluate() and score() agree with the scalar reference, which
        now lives test-side in ``tests/cost_oracle.py``."""
        model = context.cost_model(context.fine_graph)
        for plan in _random_plans(context, count=10, seed=77):
            reference = cost_oracle.evaluate(model, plan)
            assert model.evaluate(plan) == reference
            assert model.score(plan.assignments) == (
                reference.latency_us_per_byte,
                reference.energy_uj_per_byte,
                reference.feasible,
            )

    def test_per_task_estimates_identical(self, context):
        model = context.cost_model(context.fine_graph)
        graph = model.graph
        cores = [core.core_id for core in context.board.cores]
        for stage in range(graph.stage_count):
            for core in cores:
                for replicas in (1, 2, 3):
                    assert model.compute_latency(
                        stage, core, replicas
                    ) == cost_oracle.compute_latency(
                        model, stage, core, replicas
                    )
                    assert model.task_energy(
                        stage, core, replicas
                    ) == cost_oracle.task_energy(model, stage, core, replicas)


class TestLz4Parity:
    def _payloads(self):
        rng = random.Random(13)
        payloads = []
        for size in (0, 5, 64, 1024, 16384):
            payloads.append(bytes(rng.randrange(256) for _ in range(size)))
            payloads.append((b"sensor-0042;" * (size // 12 + 1))[:size])
        return payloads

    def test_vectorized_hash_path_byte_identical(self):
        codecs = [Lz4(), Lz4(index_bits=8, max_search_length=32)]
        for data in self._payloads():
            limit = len(data) - _MATCH_SEARCH_MARGIN
            for codec in codecs:
                hashes, words = _hash_all(data, limit, codec.index_bits)
                assert hashes == [
                    lz4_hash4(data, position, codec.index_bits)
                    for position in range(limit)
                ]
                assert words == [
                    int.from_bytes(data[position:position + 4], "little")
                    for position in range(limit)
                ]
                assert codec.decompress(codec.compress(data).payload) == data
