"""Scalar reference encoders for tcomp32, tdic32, mltc and lz4.

tcomp32 and tdic32 (paper Algorithms 2 and 4) walk the batch one 32-bit
word at a time and write every code through
:class:`~repro.compression.bitio.BitWriter`, exactly as the paper's
pseudocode reads (plus the codecs' word-count header and the flag-first
hit/miss code). mltc grows its LTC cone and reconstructs its
predictions one sample at a time, and lz4 emits each sequence as soon
as its greedy parse finds it. The tests compare the codecs' payloads,
counters, dictionary tables and output sizes with them byte for byte.
"""

import struct

import numpy as np

from repro.compression.bitio import BitWriter, bits_required
from repro.compression.tdic32 import tdic32_hash

_HEADER = struct.Struct("<I")
_LENGTH_FIELD_BITS = 5
_LITERAL_BITS = 32


def tcomp32_encode(data):
    """``(payload, total significant bits)`` of one tcomp32 batch."""
    words = np.frombuffer(data, dtype=np.uint32).tolist()
    writer = BitWriter()
    writer.write_bytes(_HEADER.pack(len(words)))
    significant_bits = 0
    for number in words:
        n = 1 if number == 0 else number.bit_length()
        significant_bits += n
        writer.write(n - 1, _LENGTH_FIELD_BITS)
        writer.write(number, n)
    return writer.getvalue(), significant_bits


class Tdic32Oracle:
    """A tdic32 encoder that updates its dictionary word by word."""

    def __init__(self, index_bits=12):
        self.index_bits = index_bits
        self.table = np.full(1 << index_bits, -1, dtype=np.int64)

    def compress(self, data):
        """``(payload, dictionary hits)`` of the next batch."""
        words = np.frombuffer(data, dtype=np.uint32).tolist()
        writer = BitWriter()
        writer.write_bytes(_HEADER.pack(len(words)))
        hits = 0
        for number in words:
            slot = tdic32_hash(number, self.index_bits)
            previous = self.table[slot]
            self.table[slot] = number
            if previous == number:
                hits += 1
                writer.write(1, 1)
                writer.write(slot, self.index_bits)
            else:
                writer.write(0, 1)
                writer.write(number, _LITERAL_BITS)
        return writer.getvalue(), hits


# --- mltc ---------------------------------------------------------------

_MLTC_WORD = struct.Struct("<I")
_MLTC_WORD_MAX = 0xFFFFFFFF
_MLTC_HEADER = struct.Struct("<IBHB")
_MLTC_CHANNEL_HEADER = struct.Struct("<IIIB")
_MLTC_SEGMENT = struct.Struct("<II")


def mltc_predict(base, end, offset, length):
    """Linear interpolation between two anchors, rounded to an int."""
    return round(base + (end - base) * offset / length)


def _zigzag(value):
    return 2 * value if value >= 0 else -2 * value - 1


def _mltc_reconstruct(first, segments, count):
    predictions = [first]
    anchor = first
    for length, end_anchor in segments:
        for offset in range(1, length + 1):
            predictions.append(mltc_predict(anchor, end_anchor, offset, length))
        anchor = end_anchor
    assert len(predictions) == count
    return predictions


def _mltc_encode_channel(values, epsilon):
    """``(blob, cone updates, segments)`` of one channel, sample by
    sample."""
    n = len(values)
    if n == 0:
        return _MLTC_CHANNEL_HEADER.pack(0, 0, 0, 0), 0, 0
    anchor = values[0]
    segments = []
    updates = 0
    start = 0
    while start < n - 1:
        # Grow the error cone from (start, anchor) until it closes.
        upper = float("inf")
        lower = float("-inf")
        end = start + 1
        position = start + 1
        while position < n:
            span = position - start
            high = (values[position] + epsilon - anchor) / span
            low = (values[position] - epsilon - anchor) / span
            updates += 1
            next_upper = min(upper, high)
            next_lower = max(lower, low)
            if next_lower > next_upper:
                break
            upper, lower = next_upper, next_lower
            end = position
            position += 1
        length = end - start
        slope = (upper + lower) / 2.0
        end_anchor = round(anchor + slope * length)
        end_anchor = min(max(end_anchor, 0), _MLTC_WORD_MAX)
        segments.append((length, end_anchor))
        anchor = end_anchor
        start = end

    # Residuals against the reconstruction the decoder will compute.
    predictions = _mltc_reconstruct(values[0], segments, n)
    residuals = [value - predicted
                 for value, predicted in zip(values, predictions)]
    width = max(bits_required(_zigzag(r)) for r in residuals)
    writer = BitWriter()
    for residual in residuals:
        writer.write(_zigzag(residual), width)

    blob = bytearray(
        _MLTC_CHANNEL_HEADER.pack(n, values[0], len(segments), width)
    )
    for length, end_anchor in segments:
        blob.extend(_MLTC_SEGMENT.pack(length, end_anchor))
    blob.extend(writer.getvalue())
    return bytes(blob), updates, len(segments)


def mltc_encode(data, channels, epsilon):
    """One mltc batch: ``(payload, per-channel samples, blob sizes, cone
    updates, segments)``."""
    word_count = len(data) // 4
    tail = data[word_count * 4:]
    channel_values = [[] for _ in range(channels)]
    for index in range(word_count):
        (value,) = _MLTC_WORD.unpack_from(data, index * 4)
        channel_values[index % channels].append(value)
    blobs, updates, segments = [], [], []
    for values in channel_values:
        blob, channel_updates, channel_segments = _mltc_encode_channel(
            values, epsilon
        )
        blobs.append(blob)
        updates.append(channel_updates)
        segments.append(channel_segments)
    out = bytearray(_MLTC_HEADER.pack(len(data), channels, epsilon, len(tail)))
    for blob in blobs:
        out.extend(_MLTC_WORD.pack(len(blob)))
        out.extend(blob)
    out.extend(tail)
    return (
        bytes(out),
        [len(values) for values in channel_values],
        [len(blob) for blob in blobs],
        updates,
        segments,
    )


# --- lz4 ----------------------------------------------------------------

_LZ4_MIN_MATCH = 4
_LZ4_MAX_OFFSET = 0xFFFF
_LZ4_MATCH_SEARCH_MARGIN = 12
_LZ4_TOKEN_MAX = 15


def lz4_hash4(data, position, index_bits):
    """Multiplicative hash of the 4 bytes at ``position``."""
    word = int.from_bytes(data[position:position + 4], "little")
    return ((word * 2654435761) & 0xFFFFFFFF) >> (32 - index_bits)


def _write_length(out, length):
    while length >= 255:
        out.append(255)
        length -= 255
    out.append(length)


def _emit_sequence(out, data, anchor, position, offset, match_length):
    literal_length = position - anchor
    token_literals = min(literal_length, _LZ4_TOKEN_MAX)
    token_match = min(match_length - _LZ4_MIN_MATCH, _LZ4_TOKEN_MAX)
    out.append((token_literals << 4) | token_match)
    if literal_length >= _LZ4_TOKEN_MAX:
        _write_length(out, literal_length - _LZ4_TOKEN_MAX)
    out.extend(data[anchor:position])
    out.extend(offset.to_bytes(2, "little"))
    if match_length - _LZ4_MIN_MATCH >= _LZ4_TOKEN_MAX:
        _write_length(out, match_length - _LZ4_MIN_MATCH - _LZ4_TOKEN_MAX)


def lz4_encode(data, index_bits=12, max_search_length=None):
    """``(payload, counters)`` of one lz4 block, each sequence emitted as
    it is found and each seed compared as two byte slices."""
    out = bytearray(_HEADER.pack(len(data)))
    n = len(data)
    table = [-1] * (1 << index_bits)
    probes = updates = matches = matched_bytes = tokens = 0
    anchor = position = 0
    search_limit = n - _LZ4_MATCH_SEARCH_MARGIN
    while position < search_limit:
        slot = lz4_hash4(data, position, index_bits)
        probes += 1
        candidate = table[slot]
        table[slot] = position
        updates += 1
        if (
            candidate >= 0
            and position - candidate <= _LZ4_MAX_OFFSET
            and data[candidate:candidate + _LZ4_MIN_MATCH]
            == data[position:position + _LZ4_MIN_MATCH]
        ):
            length = _LZ4_MIN_MATCH
            max_length = search_limit - position
            if max_search_length is not None:
                max_length = min(max_length, max_search_length)
            while (
                length < max_length
                and data[candidate + length] == data[position + length]
            ):
                length += 1
            _emit_sequence(
                out, data, anchor, position, position - candidate, length
            )
            tokens += 1
            matches += 1
            matched_bytes += length
            position += length
            anchor = position
        else:
            position += 1

    literal_length = n - anchor
    out.append(min(literal_length, _LZ4_TOKEN_MAX) << 4)
    if literal_length >= _LZ4_TOKEN_MAX:
        _write_length(out, literal_length - _LZ4_TOKEN_MAX)
    out.extend(data[anchor:])
    tokens += 1
    counters = {
        "input_bytes": float(n),
        "probes": float(probes),
        "table_updates": float(updates),
        "matches": float(matches),
        "matched_bytes": float(matched_bytes),
        "literal_bytes": float(n - matched_bytes),
        "tokens": float(tokens),
        "matched_fraction": matched_bytes / n if n else 0.0,
    }
    return bytes(out), counters
