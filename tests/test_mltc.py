"""mltc: multi-channel lightweight temporal compression."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.mltc import Mltc, _interpolate
from repro.errors import CompressionError, CorruptStreamError
from tests.codec_oracle import mltc_encode, mltc_predict


def words_to_bytes(values):
    return np.asarray(values, dtype=np.uint32).tobytes()


def assert_matches_oracle(data, channels=2, epsilon=16):
    """Payload, output size, counters and step costs equal the scalar
    encoder's, and the payload round-trips."""
    codec = Mltc(channels=channels, epsilon=epsilon)
    result = codec.compress(data)
    payload, samples, blob_bytes, updates, segments = mltc_encode(
        data, channels, epsilon
    )
    assert result.output_size == len(payload)
    assert result.payload == payload
    words = len(data) // 4
    assert result.counters == {
        "input_bytes": float(len(data)),
        "words": float(words),
        "segments": float(sum(segments)),
        "cone_updates": float(sum(updates)),
        "mean_segment_length": (
            words / sum(segments) if sum(segments) else 0.0
        ),
    }
    assert result.step_costs == codec._step_costs(
        len(data), len(payload), samples, blob_bytes, updates, segments
    )
    assert codec.decompress(result.payload) == data


class TestOracle:
    """The vectorized encoder equals the sample-by-sample one."""

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 4, 5, 7, 8, 11])
    def test_empty_input_and_tails(self, size):
        assert_matches_oracle(bytes(range(7, 7 + size)))

    def test_single_word(self):
        assert_matches_oracle(words_to_bytes([123456789]), channels=1)

    @pytest.mark.parametrize("epsilon", [0, 1, 16, 65535])
    def test_extreme_words_clamp_the_end_anchor(self, epsilon):
        """Full-range swings push ``round(anchor + slope * length)``
        below 0 or above 0xFFFFFFFF, where the encoder clamps it."""
        values = [0, 0xFFFFFFFF, 0, 0xFFFFFFFF, 0xFFFFFFFF, 0, 0, 1, 0] * 5
        assert_matches_oracle(words_to_bytes(values), 1, epsilon)
        assert_matches_oracle(words_to_bytes(values) + b"\x01", 3, epsilon)

    @pytest.mark.parametrize("channels", [1, 2, 16])
    @pytest.mark.parametrize("epsilon", [0, 1, 255, 65535])
    def test_channels_and_epsilon(self, channels, epsilon, rovio_data):
        assert_matches_oracle(rovio_data[:4096], channels, epsilon)

    def test_smooth_ramp_has_long_segments(self):
        values = [1_000_000 + 3 * i for i in range(600)]
        assert_matches_oracle(words_to_bytes(values), channels=1)
        result = Mltc(channels=1).compress(words_to_bytes(values))
        assert result.counters["mean_segment_length"] > 100

    @given(
        st.lists(st.integers(0, 0xFFFFFFFF), max_size=200),
        st.binary(max_size=3),
        st.integers(1, 4),
        st.sampled_from([0, 1, 16, 255, 1000, 65535]),
    )
    @settings(max_examples=80, deadline=None)
    def test_arbitrary_words(self, values, tail, channels, epsilon):
        assert_matches_oracle(words_to_bytes(values) + tail, channels, epsilon)

    @given(
        st.integers(0, 0xFFFFFFFF),
        st.lists(st.integers(-40, 40), max_size=300),
        st.integers(1, 3),
        st.sampled_from([0, 1, 16, 255]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_walks(self, start, steps, channels, epsilon):
        """Walks mix unit segments with cones that grow and close."""
        values = np.clip(
            start + np.cumsum(np.asarray(steps, dtype=np.int64)),
            0, 0xFFFFFFFF,
        )
        assert_matches_oracle(words_to_bytes(values), channels, epsilon)


class TestInterpolation:
    """``_interpolate`` is Python's ``round(base + delta * offset /
    length)`` on either side of the 2**53 exactness bound."""

    @staticmethod
    def interpolate(base, delta, offset, length):
        return int(_interpolate(*(
            np.array([value], dtype=np.int64)
            for value in (base, delta, offset, length)
        ))[0])

    def test_below_the_bound(self):
        # 4294967295 * 2097152 = 2**53 - 2**21 < 2**53
        for base, delta, offset, length in [
            (0, 0xFFFFFFFF, 1 << 21, (1 << 21) + 1),
            (0xFFFFFFFF, -0xFFFFFFFF, 1 << 21, (1 << 21) + 3),
            (7, 5, 3, 6),
        ]:
            assert self.interpolate(base, delta, offset, length) == (
                mltc_predict(base, base + delta, offset, length)
            )

    def test_past_the_bound_is_exact(self):
        """A segment of 4194294 samples from anchor 0 to 4294967289:
        offset 3495245 puts ``delta * offset`` past 2**53, where float64
        rounds the product before the division and ``rint`` lands one
        off. The entry is computed with Python ints instead."""
        base, delta, offset, length = 0, 4294967289, 3495245, 4194294
        assert abs(delta * offset) >= 1 << 53
        expected = mltc_predict(base, base + delta, offset, length)
        assert expected == 3579139408
        product = np.int64(delta) * np.int64(offset)
        assert int(np.rint(base + product / np.int64(length))) != expected
        assert self.interpolate(base, delta, offset, length) == expected
        assert self.interpolate(base, -delta, offset, length) == (
            mltc_predict(base, base - delta, offset, length)
        )


class TestParameters:
    @pytest.mark.parametrize("channels", [0, 17])
    def test_invalid_channels(self, channels):
        with pytest.raises(CompressionError):
            Mltc(channels=channels)

    @pytest.mark.parametrize("epsilon", [-1, 65536])
    def test_epsilon_must_fit_its_header_field(self, epsilon):
        with pytest.raises(CompressionError):
            Mltc(epsilon=epsilon)

    def test_decoder_checks_the_channel_count(self):
        payload = Mltc(channels=2).compress(bytes(64)).payload
        with pytest.raises(CorruptStreamError):
            Mltc(channels=3).decompress(payload)


class TestCorruption:
    @pytest.fixture
    def payload(self, rovio_data):
        return Mltc(channels=1).compress(rovio_data[:256]).payload

    def test_truncated_header(self):
        with pytest.raises(CorruptStreamError):
            Mltc().decompress(b"abc")

    def test_truncated_stream(self, payload):
        with pytest.raises(CorruptStreamError):
            Mltc(channels=1).decompress(payload[:-3])

    def test_sample_count_beyond_the_residuals(self):
        """A header promising 2**32 - 1 samples in a 22-byte blob is
        rejected before anything is sized by its count."""
        blob = struct.pack("<IIIB", 0xFFFFFFFF, 0, 1, 1) + struct.pack(
            "<II", 0xFFFFFFFE, 0
        ) + b"\0"
        payload = struct.pack("<IBHBI", 0, 1, 16, 0, len(blob)) + blob
        with pytest.raises(CorruptStreamError):
            Mltc(channels=1).decompress(payload)

    def test_segments_that_miss_the_sample_count(self, payload):
        corrupt = bytearray(payload)
        # the channel header's sample count sits after the frame header
        # and the blob length
        struct.pack_into("<I", corrupt, 12, 70)
        with pytest.raises(CorruptStreamError):
            Mltc(channels=1).decompress(bytes(corrupt))
