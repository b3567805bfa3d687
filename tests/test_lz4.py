"""lz4: LZ77-family block compression (Algorithm 5)."""

import struct
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import Lz4
from repro.compression import lz4 as lz4_module
from repro.compression.unlz4 import UnLz4
from repro.errors import CompressionError, CorruptStreamError
from tests.codec_oracle import lz4_encode


@pytest.fixture
def codec():
    return Lz4()


class TestRoundTrip:
    def test_empty(self, codec):
        assert codec.decompress(codec.compress(b"").payload) == b""

    def test_short_literal_only(self, codec):
        data = b"hello"
        assert codec.decompress(codec.compress(data).payload) == data

    def test_long_repetition(self, codec):
        data = b"abcd" * 500
        result = codec.compress(data)
        assert codec.decompress(result.payload) == data
        assert result.compression_ratio > 10

    def test_single_byte_run(self, codec):
        """Self-overlapping match (offset 1) — the classic RLE case."""
        data = b"\x00" * 1000
        result = codec.compress(data)
        assert codec.decompress(result.payload) == data
        assert result.compression_ratio > 20

    def test_overlapping_match_offset_3(self, codec):
        data = b"xyz" * 300
        assert codec.decompress(codec.compress(data).payload) == data

    def test_incompressible(self, codec, rng):
        data = rng.integers(0, 256, 2000, dtype=np.uint8).tobytes()
        result = codec.compress(data)
        assert codec.decompress(result.payload) == data
        assert result.compression_ratio < 1.01

    def test_long_literal_run_extended_length(self, codec, rng):
        # > 15 literals triggers the extended-length encoding.
        data = bytes(rng.permutation(256).astype(np.uint8)) * 1
        assert codec.decompress(codec.compress(data).payload) == data

    def test_very_long_match_extended_length(self, codec):
        # match length >> 19 exercises 255-chains in the match field.
        data = b"Q" * 5000
        assert codec.decompress(codec.compress(data).payload) == data

    def test_text_like_data(self, codec, sensor_data):
        result = codec.compress(sensor_data)
        assert codec.decompress(result.payload) == sensor_data
        assert result.compression_ratio > 1.5

    def test_rovio_batch(self, codec, rovio_data):
        result = codec.compress(rovio_data)
        assert codec.decompress(result.payload) == rovio_data

    @given(st.binary(max_size=2000))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_bytes(self, data):
        codec = Lz4()
        assert codec.decompress(codec.compress(data).payload) == data

    @given(
        st.binary(min_size=1, max_size=32),
        st.integers(min_value=2, max_value=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_repeated_fragments(self, fragment, repeats):
        codec = Lz4()
        data = fragment * repeats
        assert codec.decompress(codec.compress(data).payload) == data


def assert_matches_oracle(data, index_bits=12, max_search_length=None):
    """Payload, output size, counters and step costs equal the eager
    emitter's."""
    codec = Lz4(index_bits=index_bits, max_search_length=max_search_length)
    result = codec.compress(data)
    payload, counters = lz4_encode(data, index_bits, max_search_length)
    assert result.output_size == len(payload)
    assert result.payload == payload
    assert result.counters == counters
    assert result.step_costs == codec._step_costs(
        len(data), *(int(counters[key]) for key in (
            "probes", "table_updates", "matches", "matched_bytes", "tokens"
        )), len(payload),
    )


class TestOracle:
    """Sizing the recorded sequences and packing them on first read
    equals emitting each sequence as the parse finds it."""

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 4, 12, 13, 16])
    def test_short_inputs(self, size):
        assert_matches_oracle(b"abcdabcdabcdabcd"[:size])

    @pytest.mark.parametrize("index_bits", [1, 12, 24])
    @pytest.mark.parametrize("max_search_length", [None, 4, 32])
    def test_table_and_match_bounds(
        self, index_bits, max_search_length, sensor_data
    ):
        assert_matches_oracle(sensor_data[:3000], index_bits, max_search_length)

    @pytest.mark.parametrize("length", [14, 15, 16, 269, 270, 271, 600])
    def test_extended_length_boundaries(self, length, rng):
        """Literal runs and matches whose 4-bit token field saturates
        at 15 and whose extension bytes roll over at 255."""
        literals = rng.integers(0, 256, length, dtype=np.uint8).tobytes()
        assert_matches_oracle(literals + b"\x07" * (length + 4) + literals)

    @given(
        st.binary(max_size=600),
        st.sampled_from([1, 8, 12, 24]),
        st.sampled_from([None, 4, 5, 64]),
    )
    @settings(max_examples=80, deadline=None)
    def test_arbitrary_bytes(self, data, index_bits, max_search_length):
        assert_matches_oracle(data, index_bits, max_search_length)

    @given(
        st.lists(st.binary(min_size=1, max_size=24), min_size=1, max_size=6),
        st.lists(st.integers(0, 5), max_size=120),
        st.sampled_from([None, 4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_repeated_fragments(self, fragments, picks, max_search_length):
        data = b"".join(fragments[pick % len(fragments)] for pick in picks)
        assert_matches_oracle(data, 12, max_search_length)


@pytest.fixture
def parses(monkeypatch):
    """An empty parse memo; returns the list of blocks actually parsed."""
    monkeypatch.setattr(lz4_module, "_PARSES", OrderedDict())
    parsed = []
    parse = Lz4._parse

    def counting(self, data):
        parsed.append(data)
        return parse(self, data)

    monkeypatch.setattr(Lz4, "_parse", counting)
    return parsed


def result_fields(result):
    return (
        result.step_costs, result.counters, result.output_size,
        result.input_size, result.payload,
    )


class TestParseMemo:
    """unlz4's dry run reuses the parse lz4's dry run of the same block
    made; what either reports, and the bytes either packs, is what a
    parse of its own would give."""

    def test_unlz4_after_lz4_parses_once(self, parses, rovio_data):
        lz4 = Lz4().compress(rovio_data)
        unlz4 = UnLz4().compress(rovio_data)
        assert len(parses) == 1
        payload, counters = lz4_encode(rovio_data)
        assert lz4.payload == payload
        assert len(parses) == 1  # the parse that sized lz4 packs it
        assert unlz4.counters == counters
        assert unlz4.output_size == len(payload)
        assert unlz4.payload == payload  # a hit parses again to pack
        assert len(parses) == 2
        assert UnLz4().decompress(unlz4.payload) == rovio_data

    @pytest.mark.parametrize(
        "dataset", ["rovio_data", "stock_data", "sensor_data"]
    )
    def test_hit_equals_fresh_parse(self, parses, dataset, request):
        data = request.getfixturevalue(dataset)
        fresh = {}
        for codec in (Lz4, UnLz4):
            lz4_module._PARSES.clear()
            fresh[codec] = result_fields(codec().compress(data))
        lz4_module._PARSES.clear()
        Lz4().compress(data)
        hits = {
            codec: result_fields(codec().compress(data))
            for codec in (Lz4, UnLz4)
        }
        assert hits == fresh
        payload, counters = lz4_encode(data)
        assert fresh[Lz4][1] == counters
        assert fresh[UnLz4][4] == payload
        assert fresh[UnLz4][0] == UnLz4()._step_costs(
            len(data), len(payload), *(int(counters[key]) for key in (
                "tokens", "matches", "matched_bytes", "literal_bytes",
            )),
        )

    @pytest.mark.parametrize("variant", [
        {"index_bits": 11},
        {"max_search_length": 16},
        {"flip": 1000},
    ])
    def test_other_inputs_miss(self, parses, variant, rovio_data):
        Lz4().compress(rovio_data)
        data = bytearray(rovio_data)
        if "flip" in variant:
            data[variant["flip"]] ^= 0x01
        options = {k: v for k, v in variant.items() if k != "flip"}
        result = Lz4(**options).compress(bytes(data))
        assert len(parses) == 2
        payload, counters = lz4_encode(bytes(data), **options)
        assert result.counters == counters
        assert result.payload == payload

    def test_memo_is_bounded(self, parses, monkeypatch, rng):
        monkeypatch.setattr(lz4_module, "_PARSES_MAX", 2)
        blocks = [
            rng.integers(0, 4, 256, dtype=np.uint8).tobytes()
            for _ in range(3)
        ]
        for block in blocks:
            Lz4().compress(block)
        assert len(lz4_module._PARSES) == 2
        Lz4().compress(blocks[0])
        assert len(parses) == 4


class TestParameters:
    def test_invalid_index_bits(self):
        with pytest.raises(CompressionError):
            Lz4(index_bits=0)
        with pytest.raises(CompressionError):
            Lz4(index_bits=25)

    def test_invalid_max_search_length(self):
        with pytest.raises(CompressionError):
            Lz4(max_search_length=2)

    def test_max_search_length_splits_matches(self):
        data = b"Z" * 2000
        unbounded = Lz4().compress(data)
        bounded = Lz4(max_search_length=16).compress(data)
        assert bounded.counters["matches"] > unbounded.counters["matches"]
        assert Lz4().decompress(bounded.payload) == data

    def test_small_table_still_correct(self):
        codec = Lz4(index_bits=4)
        data = b"the quick brown fox " * 50
        assert codec.decompress(codec.compress(data).payload) == data


class TestCounters:
    def test_no_matches_in_unique_data(self, codec, rng):
        data = bytes(rng.permutation(200).astype(np.uint8))
        result = codec.compress(data)
        assert result.counters["matches"] == 0
        assert result.counters["matched_fraction"] == 0.0

    def test_matched_fraction_high_for_runs(self, codec):
        result = codec.compress(b"ab" * 1000)
        assert result.counters["matched_fraction"] > 0.95

    def test_literals_plus_matches_cover_input(self, codec, rovio_data):
        result = codec.compress(rovio_data)
        assert (
            result.counters["matched_bytes"]
            + result.counters["literal_bytes"]
            == len(rovio_data)
        )

    def test_probe_count_bounded_by_input(self, codec, rovio_data):
        result = codec.compress(rovio_data)
        assert 0 < result.counters["probes"] <= len(rovio_data)


class TestCostModel:
    def test_five_steps(self, codec):
        assert codec.step_ids() == ("s0", "s1", "s2", "s3", "s4")
        assert codec.stateful

    def test_s2_memory_bound(self, codec, stock_data):
        costs = codec.compress(stock_data).step_costs
        assert costs["s2"].operational_intensity < 30

    def test_s3_cost_grows_with_matching(self, codec):
        unique = Lz4().compress(bytes(range(256)) * 1)
        matched = Lz4().compress(b"abcdefgh" * 100)
        per_byte_unique = unique.step_costs["s3"].instructions / 256
        per_byte_matched = matched.step_costs["s3"].instructions / 800
        assert per_byte_matched > per_byte_unique

    def test_s4_cost_tracks_output(self, codec, rng):
        compressible = Lz4().compress(b"m" * 1000)
        incompressible = Lz4().compress(
            rng.integers(0, 256, 1000, dtype=np.uint8).tobytes()
        )
        assert (
            compressible.step_costs["s4"].instructions
            < incompressible.step_costs["s4"].instructions
        )


class TestCorruption:
    def test_truncated_header(self, codec):
        with pytest.raises(CorruptStreamError):
            codec.decompress(b"ab")

    def test_truncated_literals(self, codec):
        payload = codec.compress(b"hello world, hello world").payload
        with pytest.raises(CorruptStreamError):
            codec.decompress(payload[:8])

    def test_header_length_mismatch(self, codec):
        payload = bytearray(codec.compress(b"some data here").payload)
        struct.pack_into("<I", payload, 0, 5)  # promise fewer bytes
        with pytest.raises(CorruptStreamError):
            codec.decompress(bytes(payload))

    def test_invalid_offset_zero(self, codec):
        # Hand-craft: 4 literals, then a match with offset 0.
        body = bytes([0x40]) + b"abcd" + b"\x00\x00"
        payload = struct.pack("<I", 10) + body
        with pytest.raises(CorruptStreamError):
            codec.decompress(payload)

    def test_offset_beyond_output(self, codec):
        body = bytes([0x10]) + b"a" + b"\x05\x00"
        payload = struct.pack("<I", 6) + body
        with pytest.raises(CorruptStreamError):
            codec.decompress(payload)
