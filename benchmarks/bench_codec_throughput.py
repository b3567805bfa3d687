"""Real codec throughput (not a paper figure — library performance).

Measures actual wall-clock MB/s of every registered codec on a
Rovio-profile batch, twice: a dry run that reads only the output size
(what §V-B profiling does, so nothing is packed) and a full compress
that also reads the payload bytes. Decompression and two numpy kernels
on 16384-word Micro batches follow: ``pack_codes``, which builds the
tcomp32, tdic32 and mltc payloads, and ``analyze_batch``, which every
dry run calls. This is the one bench where the numbers are *real time*,
not simulated time. With ``--benchmark-disable`` each body runs once
and no MB/s is recorded.
"""

import numpy as np
import pytest

from repro.compression import CODEC_NAMES, get_codec
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


def _record_mb_per_s(benchmark):
    benchmark.extra_info["batch_bytes"] = BATCH_BYTES
    if benchmark.stats is not None:  # None under --benchmark-disable
        mb_per_s = BATCH_BYTES / 1e6 / benchmark.stats.stats.mean
        benchmark.extra_info["MB_per_s"] = round(mb_per_s, 1)


@pytest.mark.parametrize("name", CODEC_NAMES)
def test_dry_run_throughput(benchmark, batch, name):
    """Step costs and output size only: the packer never runs."""
    size = benchmark(lambda: get_codec(name).compress(batch).output_size)
    _record_mb_per_s(benchmark)
    assert size > 0


@pytest.mark.parametrize("name", CODEC_NAMES)
def test_compress_throughput(benchmark, batch, name):
    """The dry run plus packing the payload bytes."""
    payload = benchmark(lambda: get_codec(name).compress(batch).payload)
    _record_mb_per_s(benchmark)
    assert payload  # produced output


@pytest.mark.parametrize("name", CODEC_NAMES)
def test_decompress_throughput(benchmark, batch, name):
    payload = get_codec(name).compress(batch).payload

    def round_trip():
        return get_codec(name).decompress(payload)

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

