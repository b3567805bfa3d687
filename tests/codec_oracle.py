"""Scalar reference encoders for tcomp32 and tdic32 (paper Algorithms 2
and 4).

Each encoder walks the batch one 32-bit word at a time and writes every
code through :class:`~repro.compression.bitio.BitWriter`, exactly as the
paper's pseudocode reads (plus the codecs' word-count header and the
flag-first hit/miss code). The tests compare the vectorized codecs'
payloads, counters and dictionary tables with them byte for byte.
"""

import struct

import numpy as np

from repro.compression.bitio import BitWriter
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
