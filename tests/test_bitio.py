"""Bit-level I/O: the foundation every codec builds on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.bitio import (
    BitReader,
    BitWriter,
    bits_required,
    pack_codes,
)
from repro.errors import CorruptStreamError


class TestBitsRequired:
    def test_zero_needs_one_bit(self):
        assert bits_required(0) == 1

    def test_one_needs_one_bit(self):
        assert bits_required(1) == 1

    def test_paper_example(self):
        # Algorithm 2's comment: n=2 for number=3.
        assert bits_required(3) == 2

    def test_powers_of_two(self):
        for exponent in range(1, 32):
            assert bits_required(1 << exponent) == exponent + 1
            assert bits_required((1 << exponent) - 1) == exponent

    def test_max_uint32(self):
        assert bits_required(0xFFFFFFFF) == 32

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bits_required(-1)


class TestBitWriter:
    def test_empty_writer(self):
        writer = BitWriter()
        assert writer.getvalue() == b""

    def test_single_byte(self):
        writer = BitWriter()
        writer.write(0xAB, 8)
        assert writer.getvalue() == b"\xab"

    def test_msb_first_packing(self):
        writer = BitWriter()
        writer.write(0b101, 3)
        writer.write(0b1, 1)
        assert writer.getvalue() == bytes([0b1011_0000])

    def test_cross_byte_value(self):
        writer = BitWriter()
        writer.write(0xFFF, 12)
        assert writer.getvalue() == b"\xff\xf0"

    def test_bit_length_tracks_writes(self):
        writer = BitWriter()
        writer.write(1, 1)
        writer.write(0, 5)
        assert writer.getvalue() == b"\x80"
        writer.write(0x7F, 7)
        assert writer.getvalue() == b"\x83\xf8"

    def test_zero_width_write_is_noop(self):
        writer = BitWriter()
        writer.write(0, 0)
        assert writer.getvalue() == b""

    def test_value_too_wide_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write(4, 2)

    def test_negative_value_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write(-1, 4)

    def test_negative_width_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write(0, -1)

    def test_write_bytes_aligned(self):
        writer = BitWriter()
        writer.write_bytes(b"abc")
        assert writer.getvalue() == b"abc"

    def test_write_bytes_unaligned(self):
        writer = BitWriter()
        writer.write(1, 4)
        writer.write_bytes(b"\xff")
        assert writer.getvalue() == b"\x1f\xf0"

    def test_align_pads_with_zeros(self):
        writer = BitWriter()
        writer.write(1, 1)
        writer.align()
        assert writer.getvalue() == b"\x80"
        writer.write(1, 1)
        assert writer.getvalue() == b"\x80\x80"

    def test_align_on_boundary_is_noop(self):
        writer = BitWriter()
        writer.write(0xFF, 8)
        writer.align()
        assert writer.getvalue() == b"\xff"

    def test_getvalue_does_not_mutate(self):
        writer = BitWriter()
        writer.write(0b11, 2)
        first = writer.getvalue()
        second = writer.getvalue()
        assert first == second
        writer.write(0b111111, 6)
        assert writer.getvalue() == bytes([0b1111_1111])

    def test_large_value_64_bits(self):
        writer = BitWriter()
        writer.write((1 << 64) - 1, 64)
        assert writer.getvalue() == b"\xff" * 8


class TestBitReader:
    def test_read_back_single(self):
        reader = BitReader(b"\xab")
        assert reader.read(8) == 0xAB

    def test_read_partial_bits(self):
        reader = BitReader(bytes([0b1011_0000]))
        assert reader.read(3) == 0b101
        assert reader.read(1) == 0b1

    def test_position_advances(self):
        reader = BitReader(b"\xff\xff")
        reader.read(5)
        assert reader.position == 5
        assert reader.remaining_bits == 11

    def test_read_past_end_raises(self):
        reader = BitReader(b"\xff")
        with pytest.raises(CorruptStreamError):
            reader.read(9)

    def test_read_zero_bits(self):
        reader = BitReader(b"")
        assert reader.read(0) == 0

    def test_align_skips_to_boundary(self):
        reader = BitReader(b"\xff\x42")
        reader.read(3)
        reader.align()
        assert reader.position == 8
        assert reader.read(8) == 0x42

    def test_negative_width_rejected(self):
        reader = BitReader(b"\x00")
        with pytest.raises(ValueError):
            reader.read(-2)


class TestRoundTrip:
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=(1 << 24) - 1),
                      st.integers(min_value=24, max_value=32)),
            min_size=0,
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_sequences_round_trip(self, items):
        writer = BitWriter()
        for value, width in items:
            writer.write(value, width)
        reader = BitReader(writer.getvalue())
        for value, width in items:
            assert reader.read(width) == value

    @given(st.binary(max_size=256))
    @settings(max_examples=60, deadline=None)
    def test_bytes_round_trip(self, payload):
        writer = BitWriter()
        writer.write_bytes(payload)
        reader = BitReader(writer.getvalue())
        assert bytes(reader.read(8) for _ in payload) == payload

    @given(
        st.lists(
            st.integers(min_value=0, max_value=31), min_size=1, max_size=64
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_variable_width_codes_round_trip(self, widths):
        # Write each width's maximum value — the worst packing case.
        writer = BitWriter()
        for width in widths:
            writer.write((1 << width) - 1 if width else 0, width)
        reader = BitReader(writer.getvalue())
        for width in widths:
            expected = (1 << width) - 1 if width else 0
            assert reader.read(width) == expected


def _written(codes):
    """The bytes :class:`BitWriter` produces for ``(chunk, width)`` codes."""
    writer = BitWriter()
    for chunk, width in codes:
        writer.write(chunk, width)
    return writer.getvalue()


def _packed(codes):
    chunks = np.array([chunk for chunk, _ in codes], dtype=np.uint64)
    widths = np.array([width for _, width in codes], dtype=np.uint64)
    return pack_codes(chunks, widths)


_codes = st.lists(
    st.integers(min_value=1, max_value=56).flatmap(
        lambda width: st.tuples(
            st.integers(min_value=0, max_value=(1 << width) - 1),
            st.just(width),
        )
    ),
    max_size=200,
)


class TestPackCodes:
    """The vectorized packer equals the BitWriter byte for byte."""

    @given(_codes)
    @settings(max_examples=200, deadline=None)
    def test_random_widths_match_bitwriter(self, codes):
        assert _packed(codes) == _written(codes)

    def test_codes_crossing_word_boundaries(self):
        # 40 + 40 crosses bit 64; 3 * 56 crosses bits 64 and 128 and
        # leaves a last word holding nothing but a spilled tail; 8 * 8
        # ends exactly on a word before the next code starts
        for widths in ([40, 40], [56, 56, 56], [56, 7, 1, 56],
                       [3, 56, 56], [8] * 8 + [56]):
            codes = []
            for index, width in enumerate(widths):
                mask = (1 << width) - 1
                codes.append((mask if index % 2 else 0x55555555555555 & mask,
                              width))
            assert _packed(codes) == _written(codes)

    def test_all_56_bit_codes(self):
        codes = [((1 << 56) - 1 - index, 56) for index in range(17)]
        assert _packed(codes) == _written(codes)

    def test_all_1_bit_codes(self):
        bits = np.random.default_rng(7).integers(0, 2, 333).tolist()
        codes = [(bit, 1) for bit in bits]
        assert _packed(codes) == _written(codes)

    def test_single_code(self):
        assert _packed([(0b101, 3)]) == bytes([0b1010_0000])
        assert _packed([(0b101, 3)]) == _written([(0b101, 3)])

    def test_empty_input(self):
        assert pack_codes(np.zeros(0), np.zeros(0)) == b""

    def test_width_above_56_rejected(self):
        with pytest.raises(ValueError, match="56 bits"):
            pack_codes(np.array([1, 1]), np.array([8, 57]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="align"):
            pack_codes(np.array([1, 1]), np.array([8]))

    def test_chunk_wider_than_width_rejected(self):
        # BitWriter refuses 0b111 in one bit; packing it would OR the
        # extra bits into the previous code
        with pytest.raises(ValueError, match="does not fit"):
            _written([(0b1, 3), (0b111, 1)])
        with pytest.raises(ValueError, match="wider than its width"):
            pack_codes(np.array([0b1, 0b111]), np.array([3, 1]))
