"""Partitioned-state stream compression (the paper's future work, §IV-B).

The paper evaluates two state-management modes for replicated stateful
workers: a *shared* dictionary behind a lock (slow) and *private*
dictionaries over arbitrary data slices (loses compression ratio because
every replica re-learns the hot set). It points to concurrent stateful
stream processing [63] as the better mechanism and leaves it as future
work — this module implements the standard such mechanism:
**key partitioning**.

Each 32-bit symbol is routed to a shard by a hash of its value, so a
repeated symbol always meets the *same* shard's dictionary: no lock, no
hit-rate loss. The price is a routing stream — ``ceil(log2 shards)``
bits per symbol — that the decoder needs to re-interleave the shard
outputs; it is included in the compression ratio reported here, making
the trade-off honest: partitioning wins when the dictionary hit-rate
gain outweighs the routing overhead.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, List

import numpy as np

from repro.compression.base import StreamCompressor
from repro.compression.bitio import BitReader, BitWriter
from repro.compression.tdic32 import Tdic32, tdic32_hash
from repro.errors import CompressionError, CorruptStreamError

__all__ = ["PartitionedCodec"]

_HEADER = struct.Struct("<IHH")  # word count, shard count, reserved
_SHARD_LENGTH = struct.Struct("<I")
_WORD_BYTES = 4


class PartitionedCodec:
    """Key-partitioned wrapper around a (stateful) 32-bit word codec.

    Parameters
    ----------
    shards:
        Number of state shards (= replicated workers).
    codec_factory:
        Builds one codec per shard; defaults to :class:`Tdic32`.
    """

    def __init__(
        self,
        shards: int,
        codec_factory: Callable[[], StreamCompressor] = Tdic32,
    ) -> None:
        if not 1 <= shards <= 256:
            raise CompressionError(f"shards must be in [1, 256], got {shards}")
        self.shards = shards
        self._codecs: List[StreamCompressor] = [
            codec_factory() for _ in range(shards)
        ]
        self.routing_bits = max(1, math.ceil(math.log2(shards))) if shards > 1 else 0

    def shard_of(self, word: int) -> int:
        """Deterministic value-based shard routing."""
        if self.shards == 1:
            return 0
        return tdic32_hash(word, 16) % self.shards

    def compress(self, data: bytes) -> bytes:
        """Partition, compress each shard, frame the results."""
        if len(data) % _WORD_BYTES:
            raise CompressionError(
                f"partitioned codec needs whole 32-bit words, got {len(data)}"
            )
        words = np.frombuffer(data, dtype=np.uint32)
        routes = [self.shard_of(int(word)) for word in words.tolist()]

        shard_words: List[List[int]] = [[] for _ in range(self.shards)]
        for word, route in zip(words.tolist(), routes):
            shard_words[route].append(word)

        writer = BitWriter()
        writer.write_bytes(_HEADER.pack(len(words), self.shards, 0))
        for route in routes:
            writer.write(route, self.routing_bits)
        writer.align()

        out = bytearray(writer.getvalue())
        for shard, codec in enumerate(self._codecs):
            shard_data = np.asarray(
                shard_words[shard], dtype=np.uint32
            ).tobytes()
            payload = codec.compress(shard_data).payload
            out.extend(_SHARD_LENGTH.pack(len(payload)))
            out.extend(payload)
        return bytes(out)

    def decompress(self, payload: bytes) -> bytes:
        if len(payload) < _HEADER.size:
            raise CorruptStreamError("partitioned stream shorter than header")
        word_count, shards, _ = _HEADER.unpack_from(payload)
        if shards != self.shards:
            raise CorruptStreamError(
                f"stream has {shards} shards, decoder has {self.shards}"
            )
        reader = BitReader(payload[_HEADER.size:])
        routes = [reader.read(self.routing_bits) for _ in range(word_count)]
        reader.align()
        offset = _HEADER.size + reader.position // 8

        shard_iters = []
        for codec in self._codecs:
            if offset + _SHARD_LENGTH.size > len(payload):
                raise CorruptStreamError("partitioned stream truncated")
            (length,) = _SHARD_LENGTH.unpack_from(payload, offset)
            offset += _SHARD_LENGTH.size
            shard_payload = payload[offset:offset + length]
            if len(shard_payload) != length:
                raise CorruptStreamError("shard payload truncated")
            offset += length
            shard_data = codec.decompress(shard_payload)
            shard_iters.append(iter(np.frombuffer(shard_data, dtype=np.uint32)))

        words = np.empty(word_count, dtype=np.uint32)
        try:
            for index, route in enumerate(routes):
                if route >= self.shards:
                    raise CorruptStreamError(f"invalid shard route {route}")
                words[index] = next(shard_iters[route])
        except StopIteration:
            raise CorruptStreamError("shard ran out of words during reassembly")
        return words.tobytes()
