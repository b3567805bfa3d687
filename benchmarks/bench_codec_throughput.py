"""Real codec throughput (not a paper figure — library performance).

Measures actual wall-clock MB/s of each codec on a Rovio-profile batch,
including the vectorized fast paths where available, plus the two numpy
kernels behind codec dry-run profiling (``pack_codes`` and
``analyze_batch``) on 16384-word Micro batches. This is the one bench
where the numbers are *real time*, not simulated time.
"""

import os
import time

import numpy as np
import pytest

from repro.compression import Lz4, Tcomp32, Tdic32
from repro.compression.bitio import pack_codes
from repro.compression.stats import analyze_batch
from repro.datasets import MicroDataset, get_dataset

BATCH_BYTES = 262144
MICRO_WORDS = 16384


@pytest.fixture(scope="module")
def batch():
    return get_dataset("rovio").generate(BATCH_BYTES, seed=1)


@pytest.fixture(scope="module")
def micro_batch():
    return MicroDataset(
        dynamic_range=50_000, symbol_duplication=0.5
    ).generate(4 * MICRO_WORDS, seed=1)


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


def test_pack_codes_throughput(benchmark, micro_batch):
    """tcomp32's ``(5-bit length, n-bit value)`` codes, packed alone."""
    words = np.frombuffer(micro_batch, dtype=np.uint32).astype(np.uint64)
    bits = np.array([max(int(word).bit_length(), 1) for word in words],
                    dtype=np.uint64)
    chunks = ((bits - np.uint64(1)) << bits) | words
    widths = bits + np.uint64(5)
    benchmark.extra_info["codes"] = MICRO_WORDS
    packed = benchmark(lambda: pack_codes(chunks, widths))
    assert len(packed) == (int(widths.sum()) + 7) // 8


def test_analyze_batch_throughput(benchmark, micro_batch):
    benchmark.extra_info["words"] = MICRO_WORDS
    stats = benchmark(lambda: analyze_batch(micro_batch))
    assert stats.symbol_count == MICRO_WORDS


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
