"""Shared fixtures for the test suite.

Tests use small batches (a few KiB) so the pure-Python codecs stay fast;
all metrics are batch-normalized, so behaviour matches larger batches.
Expensive artifacts (board, profiles, contexts) are session-scoped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.harness import Harness, WorkloadSpec
from repro.core.baselines import WorkloadContext
from repro.core.profiler import profile_workload
from repro.compression import get_codec
from repro.datasets import get_dataset
from repro.simcore.boards import rk3399

TEST_BATCH_BYTES = 8192
TEST_LATENCY_CONSTRAINT = 26.0


@pytest.fixture(scope="session")
def board():
    return rk3399()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def rovio_data():
    return get_dataset("rovio").generate(TEST_BATCH_BYTES, seed=7)


@pytest.fixture(scope="session")
def stock_data():
    return get_dataset("stock").generate(TEST_BATCH_BYTES, seed=7)


@pytest.fixture(scope="session")
def sensor_data():
    return get_dataset("sensor").generate(TEST_BATCH_BYTES, seed=7)


@pytest.fixture(scope="session")
def tcomp32_rovio_profile(board):
    return profile_workload(
        get_codec("tcomp32"), get_dataset("rovio"), TEST_BATCH_BYTES, batches=4
    )


@pytest.fixture(scope="session")
def tcomp32_rovio_context(board, tcomp32_rovio_profile):
    return WorkloadContext.build(
        board, tcomp32_rovio_profile, TEST_LATENCY_CONSTRAINT
    )


@pytest.fixture(scope="session")
def tdic32_rovio_context(board):
    profile = profile_workload(
        get_codec("tdic32"), get_dataset("rovio"), TEST_BATCH_BYTES, batches=4
    )
    return WorkloadContext.build(board, profile, TEST_LATENCY_CONSTRAINT)


@pytest.fixture(scope="session")
def small_harness(board):
    """A harness with few repetitions/batches for integration tests."""
    return Harness(
        board=board,
        repetitions=8,
        batches_per_repetition=5,
        profile_batches=3,
    )


@pytest.fixture(scope="session")
def tcomp32_rovio_spec():
    return WorkloadSpec.of("tcomp32", "rovio", batch_size=TEST_BATCH_BYTES)
