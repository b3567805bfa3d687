"""tdic32: stateful dictionary coding (Algorithm 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import Tdic32
from repro.compression.tdic32 import tdic32_hash
from repro.errors import CompressionError, CorruptStreamError


def words_to_bytes(values):
    return np.asarray(values, dtype=np.uint32).tobytes()


@pytest.fixture
def codec():
    return Tdic32()


class TestHash:
    def test_deterministic(self):
        assert tdic32_hash(12345, 12) == tdic32_hash(12345, 12)

    def test_within_table(self):
        for value in (0, 1, 0xFFFFFFFF, 123456789):
            assert 0 <= tdic32_hash(value, 12) < 4096

    def test_index_bits_controls_range(self):
        for bits in (1, 4, 8, 16):
            assert 0 <= tdic32_hash(0xDEADBEEF, bits) < (1 << bits)


class TestRoundTrip:
    def test_empty(self, codec):
        assert codec.decompress(codec.compress(b"").payload) == b""

    def test_all_unique(self, codec, rng):
        data = rng.integers(0, 1 << 32, 400, dtype=np.uint32).tobytes()
        assert codec.decompress(codec.compress(data).payload) == data

    def test_all_duplicates(self, codec):
        data = words_to_bytes([777] * 300)
        assert codec.decompress(codec.compress(data).payload) == data

    def test_rovio_batch(self, codec, rovio_data):
        result = codec.compress(rovio_data)
        assert codec.decompress(result.payload) == rovio_data

    def test_hash_collisions_round_trip(self, codec):
        # Tiny table forces collisions; correctness must survive them.
        small = Tdic32(index_bits=2)
        data = words_to_bytes(list(range(100)) * 3)
        assert small.decompress(small.compress(data).payload) == data

    @given(st.lists(st.integers(0, 0xFFFFFFFF), max_size=250))
    @settings(max_examples=50, deadline=None)
    def test_arbitrary_words(self, values):
        codec = Tdic32()
        data = words_to_bytes(values)
        assert codec.decompress(codec.compress(data).payload) == data

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=250))
    @settings(max_examples=40, deadline=None)
    def test_high_duplication_words(self, values):
        codec = Tdic32()
        data = words_to_bytes(values)
        assert codec.decompress(codec.compress(data).payload) == data


class TestState:
    def test_state_persists_across_batches(self, codec):
        first = codec.compress(words_to_bytes([42] * 10))
        # The dictionary remembers 42, so the second batch is all hits.
        second = codec.compress(words_to_bytes([42] * 10))
        assert second.counters["hits"] == 10
        assert first.counters["hits"] == 9  # first occurrence missed

    def test_cross_batch_stream_round_trips_with_stateful_decoder(self):
        """Later batches reference dictionary entries made by earlier
        ones, so a decoder instance replays the same batch sequence."""
        encoder = Tdic32()
        batches = [words_to_bytes([7, 7, 9]) for _ in range(3)]
        payloads = [encoder.compress(b).payload for b in batches]
        decoder = Tdic32()
        for payload, original in zip(payloads, batches):
            assert decoder.decompress(payload) == original

    def test_fresh_decoder_rejects_mid_stream_batch(self):
        """Decoding a later batch without the earlier ones is detected
        (its hits reference never-populated slots)."""
        encoder = Tdic32()
        encoder.compress(words_to_bytes([7, 7, 9]))
        later = encoder.compress(words_to_bytes([7, 9])).payload
        with pytest.raises(CorruptStreamError):
            Tdic32().decompress(later)

    def test_reset_clears_dictionary(self, codec):
        codec.compress(words_to_bytes([1, 2, 3]))
        assert codec.state_entries > 0
        codec.reset()
        assert codec.state_entries == 0

    def test_state_entries_counts_slots(self):
        codec = Tdic32(index_bits=12)
        codec.compress(words_to_bytes([5]))
        assert codec.state_entries == 1

    def test_invalid_index_bits(self):
        with pytest.raises(CompressionError):
            Tdic32(index_bits=0)
        with pytest.raises(CompressionError):
            Tdic32(index_bits=31)

    def test_shared_state_flag_does_not_change_output(self, rovio_data):
        private = Tdic32(shared_state=False).compress(rovio_data)
        shared = Tdic32(shared_state=True).compress(rovio_data)
        assert private.payload == shared.payload


class TestCompression:
    def test_duplicated_stream_compresses(self, codec):
        data = words_to_bytes([123456] * 1000)
        result = codec.compress(data)
        # hits encode in 1 + 12 bits instead of 33.
        assert result.compression_ratio > 2.0

    def test_unique_stream_expands_slightly(self, codec, rng):
        data = rng.integers(0, 1 << 32, 500, dtype=np.uint32).tobytes()
        result = codec.compress(data)
        assert 0.9 < result.compression_ratio < 1.0

    def test_unaligned_input_rejected(self, codec):
        with pytest.raises(CompressionError):
            codec.compress(b"abcde")


class TestCostModel:
    def test_five_steps(self, codec):
        assert codec.step_ids() == ("s0", "s1", "s2", "s3", "s4")
        assert codec.stateful

    def test_hit_rate_counter(self, codec):
        result = codec.compress(words_to_bytes([9, 9, 9, 8]))
        assert result.counters["hits"] == 2
        assert result.counters["hit_rate"] == pytest.approx(0.5)

    def test_s2_kappa_drops_with_duplication(self):
        """The paper's Fig 13 mechanism: higher symbol duplication pulls
        s2's operational intensity down toward the stall region."""
        low_dup = Tdic32().compress(
            np.arange(1000, dtype=np.uint32).tobytes()
        )
        high_dup = Tdic32().compress(words_to_bytes([4] * 1000))
        assert (
            high_dup.step_costs["s2"].operational_intensity
            < low_dup.step_costs["s2"].operational_intensity
        )

    def test_s3_cost_drops_with_duplication(self):
        low_dup = Tdic32().compress(np.arange(1000, dtype=np.uint32).tobytes())
        high_dup = Tdic32().compress(words_to_bytes([4] * 1000))
        assert (
            high_dup.step_costs["s3"].instructions
            < low_dup.step_costs["s3"].instructions
        )

    def test_s1_kappa_constant(self, codec, rovio_data, stock_data):
        rovio = Tdic32().compress(rovio_data)
        stock = Tdic32().compress(stock_data)
        assert rovio.step_costs["s1"].operational_intensity == pytest.approx(
            stock.step_costs["s1"].operational_intensity
        )


class TestFastPath:
    """The vectorized dictionary pass is byte-identical to the loop."""

    def test_rovio_identical(self, rovio_data):
        fast = Tdic32(fast=True).compress(rovio_data)
        reference = Tdic32(fast=False).compress(rovio_data)
        assert fast.payload == reference.payload
        assert fast.counters == reference.counters

    def test_tables_identical_after_batch(self, rovio_data):
        fast, reference = Tdic32(fast=True), Tdic32(fast=False)
        fast.compress(rovio_data)
        reference.compress(rovio_data)
        assert np.array_equal(fast._table, reference._table)

    def test_multi_batch_state_identical(self, rovio_data):
        fast, reference = Tdic32(fast=True), Tdic32(fast=False)
        for start in range(0, len(rovio_data), 2048):
            chunk = rovio_data[start:start + 2048]
            assert fast.compress(chunk).payload == (
                reference.compress(chunk).payload
            )

    def test_slot_collisions_identical(self):
        """Tiny tables force heavy slot sharing — the sorted-group
        resolution must match the sequential semantics exactly."""
        data = words_to_bytes(list(range(200)) * 3)
        fast = Tdic32(index_bits=2, fast=True).compress(data)
        reference = Tdic32(index_bits=2, fast=False).compress(data)
        assert fast.payload == reference.payload

    @given(st.lists(st.integers(0, 30), max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_high_duplication_identical(self, values):
        data = words_to_bytes(values)
        assert Tdic32(fast=True).compress(data).payload == (
            Tdic32(fast=False).compress(data).payload
        )

    @given(st.lists(st.integers(0, 0xFFFFFFFF), max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_words_identical(self, values):
        data = words_to_bytes(values)
        assert Tdic32(fast=True).compress(data).payload == (
            Tdic32(fast=False).compress(data).payload
        )

    @pytest.mark.parametrize("index_bits", [2, 12, 16, 17, 24])
    def test_multi_batch_stream_at_every_sort_key_width(
        self, index_bits, rovio_data
    ):
        """Slot ids sort on uint8/uint16 keys (radix) up to 16 index
        bits and on uint32 keys (comparison sort) above; the permutation
        and therefore the payload and the table are the same."""
        repeats = words_to_bytes(
            np.random.default_rng(index_bits).integers(0, 600, 1500).tolist()
        )
        batches = [rovio_data[:4096], repeats, rovio_data[4096:8192], repeats]

        def encode(fast):
            codec = Tdic32(index_bits=index_bits, fast=fast)
            payloads = [codec.compress(batch).payload for batch in batches]
            filled = np.flatnonzero(codec._table >= 0)
            # keep only the filled slots: a 2**24-slot table is 128 MiB
            return payloads, filled, codec._table[filled]

        fast_payloads, fast_slots, fast_words = encode(True)
        payloads, slots, words = encode(False)
        assert fast_payloads == payloads
        assert np.array_equal(fast_slots, slots)
        assert np.array_equal(fast_words, words)

    def test_fast_round_trips(self, rovio_data):
        codec = Tdic32(fast=True)
        payload = codec.compress(rovio_data).payload
        assert Tdic32().decompress(payload) == rovio_data


class TestCorruption:
    def test_truncated_header(self, codec):
        with pytest.raises(CorruptStreamError):
            codec.decompress(b"\x00\x01")

    def test_hit_on_empty_slot_detected(self, codec):
        # A lone hit flag referencing a never-written slot is corrupt.
        from repro.compression.bitio import BitWriter
        import struct

        writer = BitWriter()
        writer.write_bytes(struct.pack("<I", 1))
        writer.write(1, 1)      # hit flag
        writer.write(99, 12)    # slot never populated
        with pytest.raises(CorruptStreamError):
            codec.decompress(writer.getvalue())

    def test_truncated_body(self, codec):
        payload = codec.compress(words_to_bytes([1, 2, 3, 4])).payload
        with pytest.raises(CorruptStreamError):
            codec.decompress(payload[:5])
