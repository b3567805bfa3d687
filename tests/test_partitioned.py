"""Key-partitioned state (the paper's future-work extension)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import Tdic32
from repro.compression.partitioned import PartitionedCodec
from repro.datasets import MicroDataset
from repro.errors import CompressionError, CorruptStreamError


def words_to_bytes(values):
    return np.asarray(values, dtype=np.uint32).tobytes()


class TestConstruction:
    def test_invalid_shards(self):
        with pytest.raises(CompressionError):
            PartitionedCodec(shards=0)
        with pytest.raises(CompressionError):
            PartitionedCodec(shards=257)

    def test_routing_bits(self):
        assert PartitionedCodec(shards=1).routing_bits == 0
        assert PartitionedCodec(shards=2).routing_bits == 1
        assert PartitionedCodec(shards=6).routing_bits == 3
        assert PartitionedCodec(shards=16).routing_bits == 4

    def test_routing_deterministic(self):
        codec = PartitionedCodec(shards=6)
        assert codec.shard_of(12345) == codec.shard_of(12345)
        assert 0 <= codec.shard_of(0xFFFFFFFF) < 6


class TestRoundTrip:
    @pytest.mark.parametrize("shards", [1, 2, 4, 6])
    def test_rovio(self, shards, rovio_data):
        codec = PartitionedCodec(shards=shards)
        decoder = PartitionedCodec(shards=shards)
        assert decoder.decompress(codec.compress(rovio_data)) == rovio_data

    def test_empty(self):
        codec = PartitionedCodec(shards=4)
        assert PartitionedCodec(shards=4).decompress(codec.compress(b"")) == b""

    def test_cross_batch_state(self):
        encoder = PartitionedCodec(shards=3)
        decoder = PartitionedCodec(shards=3)
        for _ in range(3):
            batch = words_to_bytes([7, 8, 9, 7, 8, 9])
            assert decoder.decompress(encoder.compress(batch)) == batch

    def test_unaligned_rejected(self):
        with pytest.raises(CompressionError):
            PartitionedCodec(shards=2).compress(b"abc")

    @given(st.lists(st.integers(0, 0xFFFFFFFF), max_size=120))
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_words(self, values):
        data = words_to_bytes(values)
        encoder = PartitionedCodec(shards=4)
        decoder = PartitionedCodec(shards=4)
        assert decoder.decompress(encoder.compress(data)) == data


class TestStateSemantics:
    def test_repeated_symbols_always_same_shard(self):
        """The defining property: a value's dictionary entry lives in
        exactly one shard, so repeats always hit."""
        codec = PartitionedCodec(shards=6)
        data = words_to_bytes([42] * 600)
        payload = codec.compress(data)
        # 1 literal + 599 13-bit hits + routing stream: well under the
        # 2400-byte input and under all-literal encoding (~2475 bytes).
        assert len(payload) < 1400

    def test_beats_private_chunks_when_tables_thrash(self):
        """With small dictionaries and a large hot set, sharding keeps
        the aggregate capacity useful where private chunk dictionaries
        thrash — the case partitioning exists for."""
        data = MicroDataset(
            dynamic_range=1 << 28, symbol_duplication=0.7
        ).generate(65536, seed=3)
        words = np.frombuffer(data, dtype=np.uint32)
        shards = 6

        partitioned = PartitionedCodec(
            shards=shards, codec_factory=lambda: Tdic32(index_bits=6)
        )
        partitioned_bytes = len(partitioned.compress(data))

        chunk = len(words) // shards
        private_bytes = 0
        for index in range(shards):
            codec = Tdic32(index_bits=6)
            start = index * chunk
            end = len(words) if index == shards - 1 else start + chunk
            private_bytes += codec.compress(
                words[start:end].tobytes()
            ).output_size
        assert partitioned_bytes < private_bytes


class TestCorruption:
    def test_shard_count_mismatch(self, rovio_data):
        payload = PartitionedCodec(shards=4).compress(rovio_data)
        with pytest.raises(CorruptStreamError, match="shards"):
            PartitionedCodec(shards=2).decompress(payload)

    def test_truncated_stream(self, rovio_data):
        payload = PartitionedCodec(shards=2).compress(rovio_data)
        with pytest.raises(CorruptStreamError):
            PartitionedCodec(shards=2).decompress(payload[:12])

    def test_too_short_header(self):
        with pytest.raises(CorruptStreamError):
            PartitionedCodec(shards=2).decompress(b"\x00")
