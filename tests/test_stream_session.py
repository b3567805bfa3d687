"""Framed streaming sessions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import get_codec
from repro.compression.stream import (
    FRAME_MAGIC,
    CompressionSession,
    DecompressionSession,
)
from repro.datasets import get_dataset
from repro.errors import CorruptStreamError


def batches(count=4, size=2048):
    return list(get_dataset("rovio").stream(size, count, seed=5))


class TestRoundTrip:
    @pytest.mark.parametrize("codec_name", ["tcomp32", "tdic32", "lz4"])
    def test_multi_batch_stream(self, codec_name):
        originals = batches()
        encoder = CompressionSession(get_codec(codec_name))
        frames = [encoder.write_batch(batch) for batch in originals]
        decoder = DecompressionSession(get_codec(codec_name))
        decoded = []
        for frame in frames:
            decoded.extend(decoder.feed(frame))
        decoder.finish()
        assert decoded == originals

    def test_byte_dribble_reassembly(self):
        """Frames split at arbitrary byte boundaries still decode."""
        originals = batches(3)
        encoder = CompressionSession(get_codec("tdic32"))
        wire = b"".join(encoder.write_batch(b) for b in originals)
        decoder = DecompressionSession(get_codec("tdic32"))
        decoded = []
        for offset in range(0, len(wire), 97):
            decoded.extend(decoder.feed(wire[offset:offset + 97]))
        decoder.finish()
        assert decoded == originals

    @given(st.lists(st.binary(min_size=4, max_size=64).map(
        lambda b: b[: len(b) - len(b) % 4]), min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_batches(self, raw_batches):
        raw_batches = [b for b in raw_batches if b]
        if not raw_batches:
            return
        encoder = CompressionSession(get_codec("tcomp32"))
        decoder = DecompressionSession(get_codec("tcomp32"))
        decoded = []
        for batch in raw_batches:
            decoded.extend(decoder.feed(encoder.write_batch(batch)))
        assert decoded == raw_batches


class TestAccounting:
    def test_ratio_includes_framing(self):
        encoder = CompressionSession(get_codec("tcomp32"))
        batch = bytes(4096)  # all zero: highly compressible
        encoder.write_batch(batch)
        assert 1.0 < encoder.compression_ratio < 4096 / 10

    def test_empty_session_ratio(self):
        assert CompressionSession(
            get_codec("tcomp32")
        ).compression_ratio == float("inf")


class TestCorruption:
    def wire(self, codec_name="tcomp32", count=2):
        encoder = CompressionSession(get_codec(codec_name))
        return b"".join(encoder.write_batch(b) for b in batches(count))

    def test_bad_magic_detected(self):
        wire = bytearray(self.wire())
        wire[0] ^= 0xFF
        decoder = DecompressionSession(get_codec("tcomp32"))
        with pytest.raises(CorruptStreamError, match="magic"):
            decoder.feed(bytes(wire))

    def test_payload_corruption_detected_by_checksum(self):
        wire = bytearray(self.wire())
        wire[20] ^= 0x01  # inside the first payload
        decoder = DecompressionSession(get_codec("tcomp32"))
        with pytest.raises(CorruptStreamError, match="checksum"):
            decoder.feed(bytes(wire))

    def test_dropped_frame_detected(self):
        encoder = CompressionSession(get_codec("tcomp32"))
        frames = [encoder.write_batch(b) for b in batches(3)]
        decoder = DecompressionSession(get_codec("tcomp32"))
        decoder.feed(frames[0])
        with pytest.raises(CorruptStreamError, match="out of order"):
            decoder.feed(frames[2])  # frame 1 lost

    def test_codec_mismatch_detected(self):
        wire = self.wire("tdic32")  # stateful flag set
        decoder = DecompressionSession(get_codec("tcomp32"))
        with pytest.raises(CorruptStreamError, match="statefulness"):
            decoder.feed(wire)

    def test_trailing_garbage_detected(self):
        decoder = DecompressionSession(get_codec("tcomp32"))
        decoder.feed(self.wire() + b"\x00\x01")
        with pytest.raises(CorruptStreamError, match="trailing"):
            decoder.finish()

    def test_magic_constant_value(self):
        assert FRAME_MAGIC == 0xC57E  # "CStrEam"
