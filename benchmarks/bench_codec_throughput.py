"""Real codec throughput (not a paper figure — library performance).

Measures actual wall-clock MB/s of each codec on a Rovio-profile batch,
including the vectorized fast paths where available. This is the one
bench where the numbers are *real time*, not simulated time.
"""

import os
import time

import numpy as np
import pytest

from repro.compression import Lz4, Tcomp32, Tdic32
from repro.datasets import get_dataset

BATCH_BYTES = 262144


@pytest.fixture(scope="module")
def batch():
    return get_dataset("rovio").generate(BATCH_BYTES, seed=1)


def _compress(codec, data):
    return codec.compress(data).payload


@pytest.mark.parametrize(
    "label,factory",
    [
        ("tcomp32-fast", lambda: Tcomp32(fast=True)),
        ("tcomp32-reference", lambda: Tcomp32(fast=False)),
        ("tdic32-fast", lambda: Tdic32(fast=True)),
        ("tdic32-reference", lambda: Tdic32(fast=False)),
        ("lz4", Lz4),
    ],
)
def test_compress_throughput(benchmark, batch, label, factory):
    benchmark.extra_info["batch_bytes"] = BATCH_BYTES
    payload = benchmark(lambda: _compress(factory(), batch))
    mb_per_s = BATCH_BYTES / 1e6 / benchmark.stats.stats.mean
    benchmark.extra_info["MB_per_s"] = round(mb_per_s, 1)
    assert payload  # produced output


@pytest.mark.parametrize(
    "label,factory",
    [
        ("tcomp32", Tcomp32),
        ("tdic32", Tdic32),
        ("lz4", Lz4),
    ],
)
def test_decompress_throughput(benchmark, batch, label, factory):
    payload = factory().compress(batch).payload

    def round_trip():
        return factory().decompress(payload)

    restored = benchmark(round_trip)
    assert restored == batch


def test_tcomp32_fast_path_is_faster(benchmark):
    """The vectorized tcomp32 encoder must beat the reference loop
    clearly on a large batch (byte equality of the two paths is a
    tier-1 test; this is only the speed half)."""
    if os.cpu_count() == 1:
        pytest.skip("timing comparison is noise-bound on 1 CPU")
    data = (
        np.random.default_rng(42)
        .integers(0, 1 << 32, 100_000, dtype=np.uint32)
        .tobytes()
    )
    fast = Tcomp32(fast=True)
    benchmark.pedantic(lambda: fast.compress(data), rounds=3, iterations=1)
    reference = Tcomp32(fast=False)
    reference_seconds = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        reference.compress(data)
        reference_seconds = min(
            reference_seconds, time.perf_counter() - started
        )
    fast_seconds = benchmark.stats.stats.min
    speedup = reference_seconds / fast_seconds
    benchmark.extra_info["speedup"] = round(speedup, 2)
    # relative margin: the vectorized path must win clearly, not by a
    # scheduler-jitter-sized sliver
    assert fast_seconds < reference_seconds * 0.8
