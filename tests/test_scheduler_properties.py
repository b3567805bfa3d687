"""Property tests: scheduler optimality on randomized boards.

The paper's board is one point in the design space; the scheduler's
guarantees (optimal among enumerated plans, constraints honoured) must
hold for any asymmetric topology. Each core type's η is drawn as a
concave four-segment roofline of the paper's Eq 5 form, scaled so its
roof is the core's issue bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import WorkloadContext
from repro.core.plan import SchedulingPlan
from repro.core.profiler import profile_workload
from repro.core.scheduler import Scheduler
from repro.compression import get_codec
from repro.datasets import get_dataset
from repro.simcore.boards import BoardSpec, rk3399
from repro.simcore.hardware import ClusterSpec, CoreSpec, CoreType, PiecewiseRoofline


@st.composite
def concave_shapes(draw) -> PiecewiseRoofline:
    """A concave Eq 5 curve: rising segments with shrinking slopes,
    joined end to end, then flat at the roof."""
    first = draw(st.floats(min_value=10.0, max_value=60.0))
    gaps = draw(st.tuples(st.floats(min_value=20.0, max_value=150.0),
                          st.floats(min_value=50.0, max_value=300.0)))
    breakpoints = (first, first + gaps[0], first + gaps[0] + gaps[1])
    shrink = draw(st.tuples(st.floats(min_value=1.2, max_value=3.0),
                            st.floats(min_value=1.2, max_value=3.0)))
    slopes = (shrink[0] * shrink[1], shrink[1], 1.0)
    intercepts = [draw(st.floats(min_value=0.0, max_value=20.0))]
    for index in (1, 2):
        joint = slopes[index - 1] * breakpoints[index - 1] + intercepts[-1]
        intercepts.append(joint - slopes[index] * breakpoints[index - 1])
    return PiecewiseRoofline(
        breakpoints=breakpoints,
        slopes=slopes,
        intercepts=tuple(intercepts),
        roof=slopes[2] * breakpoints[2] + intercepts[2],
    )


def _scaled(curve: PiecewiseRoofline, factor: float, offset: float = 0.0):
    return PiecewiseRoofline(
        breakpoints=curve.breakpoints,
        slopes=tuple(s * factor for s in curve.slopes),
        intercepts=tuple(i * factor + offset for i in curve.intercepts),
        roof=curve.roof * factor + offset,
    )


def make_board(
    little_count: int,
    big_count: int,
    little_mhz: float,
    big_mhz: float,
    big_speedup: float,
    little_shape: PiecewiseRoofline,
    big_shape: PiecewiseRoofline,
) -> BoardSpec:
    """Build a two-cluster board; each η roofs at its issue bound
    (peak IPC × MHz, with the big core's IPC ``big_speedup`` higher)."""
    reference = rk3399()
    little_eta = _scaled(little_shape, 2.0 * little_mhz / little_shape.roof)
    big_eta = _scaled(big_shape, 2.0 * big_speedup * big_mhz / big_shape.roof)
    # ζ scaled from η: little cores 2x more efficient per instruction.
    little_zeta = _scaled(little_eta, 100, 50)
    big_zeta = _scaled(big_eta, 50, 25)
    cores = []
    for core_id in range(little_count):
        cores.append(
            CoreSpec(
                core_id=core_id,
                core_type=CoreType.LITTLE,
                cluster_id=0,
                model="gen-little",
                max_frequency_mhz=little_mhz,
                frequency_levels_mhz=(little_mhz / 2, little_mhz),
                eta=little_eta,
                zeta=little_zeta,
                static_power_w=0.0001,
                busy_floor_power_w=0.001,
            )
        )
    for offset in range(big_count):
        core_id = little_count + offset
        cores.append(
            CoreSpec(
                core_id=core_id,
                core_type=CoreType.BIG,
                cluster_id=1,
                model="gen-big",
                max_frequency_mhz=big_mhz,
                frequency_levels_mhz=(big_mhz / 2, big_mhz),
                eta=big_eta,
                zeta=big_zeta,
                static_power_w=0.0002,
                busy_floor_power_w=0.003,
            )
        )
    clusters = (
        ClusterSpec(
            cluster_id=0,
            core_type=CoreType.LITTLE,
            core_ids=tuple(range(little_count)),
        ),
        ClusterSpec(
            cluster_id=1,
            core_type=CoreType.BIG,
            core_ids=tuple(range(little_count, little_count + big_count)),
        ),
    )
    return BoardSpec(
        name=f"generated {little_count}+{big_count}",
        cores=tuple(cores),
        clusters=clusters,
        interconnect=reference.interconnect,
        uncore_power_w=0.0002,
        context_switch_instructions=330.0,
        replication_latency_overhead=0.07,
        replication_energy_overhead=0.27,
    )


@pytest.fixture(scope="module")
def profile():
    return profile_workload(
        get_codec("tcomp32"), get_dataset("rovio"), 8192, batches=3
    )


boards = st.builds(
    make_board,
    little_count=st.integers(min_value=2, max_value=6),
    big_count=st.integers(min_value=1, max_value=3),
    little_mhz=st.sampled_from([800.0, 1200.0, 1600.0]),
    big_mhz=st.sampled_from([1400.0, 1800.0, 2200.0]),
    big_speedup=st.sampled_from([1.3, 1.8, 2.5]),
    little_shape=concave_shapes(),
    big_shape=concave_shapes(),
)


class TestRandomBoards:
    @given(boards, st.sampled_from([18.0, 30.0, 60.0]))
    @settings(max_examples=15, deadline=None)
    def test_schedule_never_beaten_by_random_plans(
        self, profile, board, constraint
    ):
        """No sampled feasible plan has lower modelled energy than the
        scheduler's optimum under the same model."""
        context = WorkloadContext.build(board, profile, constraint)
        model = context.cost_model(context.fine_graph)
        result = Scheduler(model).schedule(best_effort=True)
        if not result.feasible:
            return
        rng = np.random.default_rng(0)
        for _ in range(30):
            assignments = tuple(
                (int(rng.choice(board.core_ids)),)
                for _ in context.fine_graph.tasks
            )
            estimate = model.evaluate(
                SchedulingPlan(
                    graph=context.fine_graph, assignments=assignments
                )
            )
            if estimate.feasible:
                assert (
                    result.estimate.energy_uj_per_byte
                    <= estimate.energy_uj_per_byte + 1e-12
                )

    @given(boards)
    @settings(max_examples=10, deadline=None)
    def test_feasible_schedule_honours_constraint(self, profile, board):
        constraint = 40.0
        context = WorkloadContext.build(board, profile, constraint)
        model = context.cost_model(context.fine_graph)
        result = Scheduler(model).schedule(best_effort=True)
        if result.feasible:
            assert result.estimate.latency_us_per_byte <= constraint

    @given(boards)
    @settings(max_examples=10, deadline=None)
    def test_plan_uses_only_board_cores(self, profile, board):
        context = WorkloadContext.build(board, profile, 60.0)
        model = context.cost_model(context.fine_graph)
        result = Scheduler(model).schedule(best_effort=True)
        assert set(result.plan.cores_used()) <= set(board.core_ids)
