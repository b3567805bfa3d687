"""Thermal-throttling fault injection."""

import pytest

from repro.core.plan import SchedulingPlan
from repro.errors import ConfigurationError
from repro.faults.model import DvfsThrottle, FaultPlan
from repro.runtime.executor import ExecutionConfig, PipelineExecutor


@pytest.fixture(scope="module")
def setup():
    from repro.core.baselines import WorkloadContext
    from repro.core.profiler import profile_workload
    from repro.compression import get_codec
    from repro.datasets import get_dataset
    from repro.simcore.boards import rk3399

    board = rk3399()
    profile = profile_workload(
        get_codec("tcomp32"), get_dataset("rovio"), 8192, batches=4
    )
    context = WorkloadContext.build(board, profile, 26.0)
    plan = SchedulingPlan(
        graph=context.fine_graph, assignments=((4,), (0,))
    )
    return board, profile, plan


def throttle(core_id, at_batch, frequency_mhz):
    return FaultPlan(events=(
        DvfsThrottle(
            core_id=core_id, at_batch=at_batch, frequency_mhz=frequency_mhz
        ),
    ))


def run(board, profile, plan, batches=10, **fault):
    """One noise-free run; ``fault`` is an optional ``fault_plan=``."""
    executor = PipelineExecutor(
        board,
        ExecutionConfig(
            latency_constraint_us_per_byte=26.0,
            repetitions=1,
            batches_per_repetition=batches,
            warmup_batches=2,
            noise_sigma=0.0,
            **fault,
        ),
    )
    per_batch = (list(profile.per_batch_step_costs) * batches)[:batches]
    return executor.run(plan, per_batch, profile.batch_size_bytes)


class TestDvfsThrottle:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DvfsThrottle(core_id=4, at_batch=-1, frequency_mhz=600.0)
        with pytest.raises(ConfigurationError):
            DvfsThrottle(core_id=4, at_batch=0, frequency_mhz=0.0)


class TestThrottling:
    def test_throttled_core_slows_pipeline(self, setup):
        board, profile, plan = setup
        healthy = run(board, profile, plan)
        faulty = run(
            board, profile, plan,
            fault_plan=throttle(core_id=4, at_batch=3, frequency_mhz=600.0),
        )
        assert (
            faulty.mean_latency_us_per_byte
            > healthy.mean_latency_us_per_byte
        )

    def test_early_batches_unaffected(self, setup):
        board, profile, plan = setup
        faulty = run(
            board, profile, plan,
            fault_plan=throttle(core_id=4, at_batch=6, frequency_mhz=600.0),
        )
        healthy = run(board, profile, plan)
        faulty_batches = faulty.repetitions[0].batches
        healthy_batches = healthy.repetitions[0].batches
        for index in range(1, 5):  # well before the cap propagates
            assert faulty_batches[index].latency_us_per_byte == (
                pytest.approx(
                    healthy_batches[index].latency_us_per_byte, rel=1e-6
                )
            )

    def test_fault_on_unused_core_harmless(self, setup):
        board, profile, plan = setup
        healthy = run(board, profile, plan)
        faulty = run(
            board, profile, plan,
            fault_plan=throttle(core_id=5, at_batch=2, frequency_mhz=600.0),
        )
        assert faulty.mean_latency_us_per_byte == pytest.approx(
            healthy.mean_latency_us_per_byte, rel=1e-6
        )

    def test_cap_never_raises_frequency(self, setup):
        """A 'cap' above the current frequency must change nothing."""
        board, profile, plan = setup
        healthy = run(board, profile, plan)
        capped_high = run(
            board, profile, plan,
            fault_plan=throttle(
                core_id=4, at_batch=2, frequency_mhz=1800.0
            ),
        )
        assert capped_high.mean_latency_us_per_byte == pytest.approx(
            healthy.mean_latency_us_per_byte, rel=1e-6
        )


class TestThermalAblation:
    def test_regulated_recovers_static_does_not(self, small_harness):
        from repro.bench.exp_ablations import abl_thermal

        result = abl_thermal(small_harness)
        extras = result.extras
        assert extras["static plan"]["recovery"] is None
        assert extras["PID-regulated"]["recovery"] is not None
        assert len(extras["PID-regulated"]["violations"]) < len(
            extras["static plan"]["violations"]
        )
