"""mltc — multi-channel lightweight temporal compression (fan-out DAG).

IoT boards rarely stream one signal: a flight controller interleaves
accelerometer, gyro and barometer channels in a single tuple stream.
``mltc`` de-interleaves the 32-bit words of a batch into ``channels``
round-robin sub-streams and runs *lightweight temporal compression*
(LTC: piecewise-linear approximation under an error cone) on each
channel independently, making the pipeline a fan-out/fan-in DAG:

* ``m0`` split — de-interleave words into per-channel buffers: a pure
  shuffle, two memory accesses per byte (*low* intensity);
* ``c1`` .. ``cK`` encode — per-channel LTC cone tracking plus residual
  packing: register arithmetic per sample (*high* intensity), one task
  per channel, all independent;
* ``mz`` merge — concatenate channel blobs into the framed payload
  (*low* intensity).

LTC itself is lossy; the stream contract here demands an exact
round-trip, so each channel stores its piecewise-linear *anchors*
(segment length + approximated end value, chained so each segment
starts at the previous segment's stored anchor) and then bit-packs the
per-sample residuals against the reconstructed prediction, zig-zag
coded at the channel's worst-case width. Smooth telemetry yields long
segments and near-zero residual widths; noise degrades toward raw.

Step graph (``channels=2``)::

            +-> c1 -+
    m0 ----+        +--> mz
            +-> c2 -+
"""

from __future__ import annotations

import struct
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from repro.compression.base import (
    CompressionResult,
    StepCost,
    StepRole,
    StepSpec,
    StreamCompressor,
)
from repro.compression.bitio import BitReader, bits_required, pack_codes
from repro.errors import CompressionError, CorruptStreamError

__all__ = ["Mltc"]

_WORD = struct.Struct("<I")
_WORD_BYTES = 4
_WORD_MAX = 0xFFFFFFFF
# original length, channel count, epsilon, raw tail length
_HEADER = struct.Struct("<IBHB")
# samples, first value, segment count, residual width
_CHANNEL_HEADER = struct.Struct("<IIIB")
_SEGMENT = struct.Struct("<II")  # length, end anchor
# float64 holds every integer below this exactly
_EXACT_LIMIT = 1 << 53

# --- calibrated virtual-cost constants (see DESIGN.md) ------------------
# m0 split: word shuffle into channel buffers, read + write per byte.
_M0_INSTRUCTIONS_PER_BYTE = 0.9
_M0_ACCESSES_PER_BYTE = 2.0
# c_i encode: cone update per sample, segment bookkeeping, residual pack.
_C_INSTRUCTIONS_PER_UPDATE = 30.0
_C_INSTRUCTIONS_PER_SEGMENT = 110.0
_C_INSTRUCTIONS_PER_SAMPLE = 9.0
_C_ACCESSES_PER_SAMPLE = 1.6
_C_ACCESSES_PER_SEGMENT = 2.5
# mz merge: concatenate channel blobs and frame the payload.
_MZ_INSTRUCTIONS_PER_BYTE = 1.3
_MZ_INSTRUCTIONS_PER_CHANNEL = 50.0
_MZ_ACCESSES_PER_BYTE = 1.9


def _interpolate(
    base: np.ndarray, delta: np.ndarray, offset: np.ndarray,
    length: np.ndarray,
) -> np.ndarray:
    """``round(base + delta * offset / length)`` of every entry, exactly
    as Python computes it on ints.

    The int64 product is exact for segments shorter than 2**31 samples
    (``|delta| < 2**32``). While ``|delta * offset| < 2**53`` it also
    converts to float64 exactly, so numpy's division, addition and
    round-half-even ``rint`` are the very float operations of Python's
    expression. An entry at or past that bound (a segment longer than
    2**21 samples with a full-range swing) is computed with Python ints
    instead.
    """
    product = delta * offset
    predictions = np.rint(base + product / length).astype(np.int64)
    for index in np.flatnonzero(np.abs(product) >= _EXACT_LIMIT).tolist():
        predictions[index] = round(
            int(base[index])
            + int(delta[index]) * int(offset[index]) / int(length[index])
        )
    return predictions


def _reconstruct(
    first: int, lengths: np.ndarray, ends: np.ndarray, count: int
) -> np.ndarray:
    """Per-sample predictions from the chained segment anchors.

    Segment *k* starts at the previous segment's end anchor (the first
    at ``first``) and interpolates linearly to ``ends[k]`` over
    ``lengths[k]`` samples. Encoder and decoder both call this, so the
    round trip is exact by construction.
    """
    if int(lengths.sum()) + 1 != count:
        raise CorruptStreamError(
            f"mltc segment lengths cover {int(lengths.sum()) + 1} samples, "
            f"expected {count}"
        )
    bases = np.concatenate(([first], ends))[:-1]
    starts = np.cumsum(lengths) - lengths
    predictions = np.empty(count, dtype=np.int64)
    predictions[0] = first
    predictions[1:] = _interpolate(
        np.repeat(bases, lengths),
        np.repeat(ends - bases, lengths),
        np.arange(1, count) - np.repeat(starts, lengths),
        np.repeat(lengths, lengths),
    )
    return predictions


def _unzigzag(value: int) -> int:
    return value // 2 if value % 2 == 0 else -(value // 2) - 1


class _Channel(NamedTuple):
    """One LTC-encoded channel, sized but not yet packed."""

    samples: int
    first: int
    lengths: np.ndarray  # per segment
    ends: np.ndarray  # per segment: its end anchor
    codes: np.ndarray  # per sample: zig-zag residual
    width: int
    updates: int

    @property
    def size(self) -> int:
        return (
            _CHANNEL_HEADER.size
            + _SEGMENT.size * len(self.lengths)
            + (self.samples * self.width + 7) // 8
        )

    def pack(self) -> bytes:
        segments = np.column_stack((self.lengths, self.ends)).astype("<u4")
        widths = np.full(self.samples, self.width, dtype=np.uint64)
        return (
            _CHANNEL_HEADER.pack(
                self.samples, self.first, len(self.lengths), self.width
            )
            + segments.tobytes()
            + pack_codes(self.codes, widths)
        )


class Mltc(StreamCompressor):
    """Multi-channel LTC stream compressor.

    Parameters
    ----------
    channels:
        Number of interleaved 32-bit channels (default 2); one encode
        task per channel in the step graph.
    epsilon:
        LTC error-cone half-width (default 16). Larger values produce
        longer segments and wider residuals; the round-trip stays exact
        either way.

    The encoder runs in numpy passes apart from the cone of segments
    longer than one sample (see :meth:`_segments`), which sizes every
    channel blob exactly; the blobs are packed only when the payload is
    read.
    """

    name = "mltc"
    stateful = False

    def __init__(self, channels: int = 2, epsilon: int = 16) -> None:
        if not 1 <= channels <= 16:
            raise CompressionError(
                f"mltc channels must be in [1, 16], got {channels}"
            )
        if not 0 <= epsilon <= 0xFFFF:
            raise CompressionError(
                f"mltc epsilon must be in [0, 65535], got {epsilon}"
            )
        self.channels = channels
        self.epsilon = epsilon
        self._steps = (
            StepSpec("m0", StepRole.READ,
                     "de-interleave words into channel buffers"),
            *(
                StepSpec(f"c{index}", StepRole.ENCODE,
                         f"LTC-encode channel {index}")
                for index in range(1, channels + 1)
            ),
            StepSpec("mz", StepRole.WRITE,
                     "merge channel blobs into the framed payload"),
        )

    def steps(self) -> Tuple[StepSpec, ...]:
        return self._steps

    def step_dependencies(self) -> Mapping[str, Tuple[str, ...]]:
        encode_ids = tuple(
            f"c{index}" for index in range(1, self.channels + 1)
        )
        dependencies: Dict[str, Tuple[str, ...]] = {"m0": ()}
        for step_id in encode_ids:
            dependencies[step_id] = ("m0",)
        dependencies["mz"] = encode_ids
        return dependencies

    # --- encode ---------------------------------------------------------

    def compress(self, data: bytes) -> CompressionResult:
        word_count = len(data) // _WORD_BYTES
        tail = data[word_count * _WORD_BYTES:]
        words = np.frombuffer(data, dtype="<u4", count=word_count)
        channels = [
            self._encode_channel(words[index::self.channels])
            for index in range(self.channels)
        ]
        output_size = (
            _HEADER.size
            + sum(_WORD.size + channel.size for channel in channels)
            + len(tail)
        )

        def pack() -> bytes:
            out = [
                _HEADER.pack(len(data), self.channels, self.epsilon, len(tail))
            ]
            for channel in channels:
                blob = channel.pack()
                out += [_WORD.pack(len(blob)), blob]
            out.append(tail)
            return b"".join(out)

        segments = sum(len(channel.lengths) for channel in channels)
        counters = {
            "input_bytes": float(len(data)),
            "words": float(word_count),
            "segments": float(segments),
            "cone_updates": float(
                sum(channel.updates for channel in channels)
            ),
            "mean_segment_length": (
                word_count / segments if segments else 0.0
            ),
        }
        step_costs = self._step_costs(
            input_bytes=len(data),
            payload_bytes=output_size,
            samples_per_channel=[channel.samples for channel in channels],
            blob_bytes_per_channel=[channel.size for channel in channels],
            updates_per_channel=[channel.updates for channel in channels],
            segments_per_channel=[
                len(channel.lengths) for channel in channels
            ],
        )
        return CompressionResult(
            payload=pack,
            input_size=len(data),
            step_costs=step_costs,
            counters=counters,
            output_size=output_size,
        )

    def _encode_channel(self, words: np.ndarray) -> _Channel:
        """LTC-encode one channel: its segments and zig-zag residuals."""
        n = words.size
        if n == 0:
            empty = np.zeros(0, dtype=np.int64)
            return _Channel(0, 0, empty, empty, empty, 0, 0)
        x = words.astype(np.int64)
        lengths, ends, updates = self._segments(x)
        residuals = x - _reconstruct(int(x[0]), lengths, ends, n)
        codes = np.where(
            residuals >= 0, 2 * residuals, -2 * residuals - 1
        ).astype(np.uint64)
        width = bits_required(int(codes.max()))
        return _Channel(n, int(x[0]), lengths, ends, codes, width, updates)

    def _segments(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
        """The LTC segments of one channel: (lengths, end anchors, cone
        updates).

        A segment that starts at ``p`` on anchor ``x[p]`` closes at
        ``p + 2`` exactly when the cones of its first two samples do not
        overlap: ``max(l1, l2) > min(h1, h2)``, with ``h1``/``l1`` =
        ``x[p+1] ± ε - x[p]`` and ``h2``/``l2`` = ``(x[p+2] ± ε - x[p])/2``
        — the float64 operations of the scalar cone. Such a segment has
        length 1, end anchor ``x[p+1]`` (exact) and two cone updates, and
        its successor again starts on its own value, so a run of such
        starts is emitted in one slice. Every other start grows its cone
        sample by sample.
        """
        n = x.size
        epsilon = self.epsilon
        ahead = x[2:] - x[:-2]
        step = x[1:-1] - x[:-2]
        closes = np.maximum(step - epsilon, (ahead - epsilon) / 2) > np.minimum(
            step + epsilon, (ahead + epsilon) / 2
        )
        # unit_stop[p]: the first start at or after p whose segment is not
        # a unit one (len(closes) if every later one is)
        index = np.arange(closes.size)
        unit_stop = np.minimum.accumulate(
            np.where(closes, closes.size, index)[::-1]
        )[::-1].tolist()
        values = x.tolist()
        lengths: List[int] = []
        ends: List[int] = []
        updates = 0
        anchor = values[0]
        start = 0
        while start < n - 1:
            if (
                start < len(unit_stop)
                and unit_stop[start] > start
                and anchor == values[start]
            ):
                stop = unit_stop[start]
                lengths += [1] * (stop - start)
                ends += values[start + 1:stop + 1]
                updates += 2 * (stop - start)
                anchor = values[stop]
                start = stop
                continue
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
            anchor = min(max(end_anchor, 0), _WORD_MAX)
            lengths.append(length)
            ends.append(anchor)
            start = end
        return (
            np.array(lengths, dtype=np.int64),
            np.array(ends, dtype=np.int64),
            updates,
        )

    # --- decode ---------------------------------------------------------

    def decompress(self, payload: bytes) -> bytes:
        if len(payload) < _HEADER.size:
            raise CorruptStreamError("mltc stream shorter than its header")
        original, channels, _epsilon, tail_length = _HEADER.unpack_from(
            payload
        )
        if channels != self.channels:
            raise CorruptStreamError(
                f"mltc stream has {channels} channels, decoder expects "
                f"{self.channels}"
            )
        position = _HEADER.size
        channel_values: List[List[int]] = []
        for _ in range(channels):
            if position + _WORD.size > len(payload):
                raise CorruptStreamError("mltc stream truncated at blob size")
            (blob_length,) = _WORD.unpack_from(payload, position)
            position += _WORD.size
            if position + blob_length > len(payload):
                raise CorruptStreamError("mltc channel blob exceeds stream")
            blob = payload[position:position + blob_length]
            position += blob_length
            channel_values.append(self._decode_channel(blob))
        tail = payload[position:]
        if len(tail) != tail_length:
            raise CorruptStreamError(
                f"mltc trailing bytes {len(tail)} != promised {tail_length}"
            )

        word_count = sum(len(values) for values in channel_values)
        out = bytearray()
        cursors = [0] * channels
        for index in range(word_count):
            channel = index % channels
            out.extend(
                _WORD.pack(channel_values[channel][cursors[channel]])
            )
            cursors[channel] += 1
        out.extend(tail)
        if len(out) != original:
            raise CorruptStreamError(
                f"mltc decoded {len(out)} bytes, header promised {original}"
            )
        return bytes(out)

    def _decode_channel(self, blob: bytes) -> List[int]:
        if len(blob) < _CHANNEL_HEADER.size:
            raise CorruptStreamError("mltc channel blob shorter than header")
        count, first, segment_count, width = _CHANNEL_HEADER.unpack_from(blob)
        if count == 0:
            return []
        position = _CHANNEL_HEADER.size + _SEGMENT.size * segment_count
        if position > len(blob):
            raise CorruptStreamError("mltc blob truncated in segments")
        # checked before the reconstruction allocates ``count`` samples
        if width == 0 or count * width > 8 * (len(blob) - position):
            raise CorruptStreamError("mltc blob truncated in residuals")
        segments = np.frombuffer(
            blob, dtype="<u4", count=2 * segment_count,
            offset=_CHANNEL_HEADER.size,
        ).astype(np.int64)
        predictions = _reconstruct(
            first, segments[0::2], segments[1::2], count
        )
        reader = BitReader(blob[position:])
        return [
            predicted + _unzigzag(reader.read(width))
            for predicted in predictions.tolist()
        ]

    # --- cost model -----------------------------------------------------

    def _step_costs(
        self,
        input_bytes: int,
        payload_bytes: int,
        samples_per_channel: Sequence[int],
        blob_bytes_per_channel: Sequence[int],
        updates_per_channel: Sequence[int],
        segments_per_channel: Sequence[int],
    ) -> Dict[str, StepCost]:
        costs: Dict[str, StepCost] = {
            "m0": StepCost(
                instructions=_M0_INSTRUCTIONS_PER_BYTE * input_bytes,
                memory_accesses=_M0_ACCESSES_PER_BYTE * input_bytes,
                input_bytes=input_bytes,
                output_bytes=input_bytes,
            )
        }
        for index in range(self.channels):
            samples = samples_per_channel[index]
            costs[f"c{index + 1}"] = StepCost(
                instructions=(
                    _C_INSTRUCTIONS_PER_UPDATE * updates_per_channel[index]
                    + _C_INSTRUCTIONS_PER_SEGMENT
                    * segments_per_channel[index]
                    + _C_INSTRUCTIONS_PER_SAMPLE * samples
                ),
                memory_accesses=(
                    _C_ACCESSES_PER_SAMPLE * samples
                    + _C_ACCESSES_PER_SEGMENT * segments_per_channel[index]
                ),
                input_bytes=samples * _WORD_BYTES,
                output_bytes=blob_bytes_per_channel[index],
            )
        costs["mz"] = StepCost(
            instructions=(
                _MZ_INSTRUCTIONS_PER_BYTE * payload_bytes
                + _MZ_INSTRUCTIONS_PER_CHANNEL * self.channels
            ),
            memory_accesses=_MZ_ACCESSES_PER_BYTE * payload_bytes,
            input_bytes=sum(blob_bytes_per_channel),
            output_bytes=payload_bytes,
        )
        return costs
