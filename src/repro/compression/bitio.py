"""Bit-level stream I/O used by every codec in this package.

The paper's codecs (tcomp32, tdic32, lz4) emit byte-unaligned codes: a
5-bit length indicator followed by an n-bit payload, for example. This
module provides a :class:`BitWriter` that packs such codes most-significant
bit first into a growing byte buffer, and a :class:`BitReader` that
consumes them.

The MSB-first convention means a stream written as ``write(0b101, 3)``
followed by ``write(0b1, 1)`` produces the byte ``0b1011_0000``. The
convention is an internal detail; readers and writers from this module
always agree with each other.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CorruptStreamError

__all__ = ["BitWriter", "BitReader", "bits_required", "pack_codes"]


def bits_required(value: int) -> int:
    """Number of bits needed to represent ``value`` as an unsigned int.

    Matches the paper's ``ceil(log2(number + 1))`` with the special case
    that zero needs one bit (Algorithm 2 line 4).

    >>> bits_required(0)
    1
    >>> bits_required(3)
    2
    >>> bits_required(4)
    3
    """
    if value < 0:
        raise ValueError(f"bits_required expects an unsigned value, got {value}")
    if value == 0:
        return 1
    return value.bit_length()


class BitWriter:
    """Accumulates bit codes MSB-first into a byte buffer.

    The writer keeps a small integer accumulator; bytes are flushed into a
    ``bytearray`` as they fill up. Call :meth:`getvalue` to obtain the
    padded byte string (the final partial byte, if any, is zero-padded on
    the right).
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._accumulator = 0
        self._bit_count = 0  # bits currently held in the accumulator

    def __len__(self) -> int:
        """Total number of bits written so far."""
        return 8 * len(self._buffer) + self._bit_count

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far (alias of ``len``)."""
        return len(self)

    def write(self, value: int, width: int) -> None:
        """Append the ``width`` low bits of ``value``.

        ``value`` must fit in ``width`` bits; this is checked because a
        silent truncation here would corrupt the stream in a way that is
        very hard to debug downstream.
        """
        if width < 0:
            raise ValueError(f"bit width must be non-negative, got {width}")
        if width == 0:
            return
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._accumulator = (self._accumulator << width) | value
        self._bit_count += width
        while self._bit_count >= 8:
            self._bit_count -= 8
            self._buffer.append((self._accumulator >> self._bit_count) & 0xFF)
        # Keep the accumulator small: only the unflushed low bits remain.
        self._accumulator &= (1 << self._bit_count) - 1

    def write_bytes(self, data: bytes) -> None:
        """Append whole bytes (still honoring any current bit offset)."""
        if self._bit_count == 0:
            self._buffer.extend(data)
        else:
            for byte in data:
                self.write(byte, 8)

    def align(self) -> None:
        """Zero-pad to the next byte boundary."""
        if self._bit_count:
            self.write(0, 8 - self._bit_count)

    def getvalue(self) -> bytes:
        """Return everything written so far as bytes (zero-padded)."""
        if self._bit_count == 0:
            return bytes(self._buffer)
        tail = (self._accumulator << (8 - self._bit_count)) & 0xFF
        return bytes(self._buffer) + bytes([tail])


class BitReader:
    """Consumes MSB-first bit codes from a byte string."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._position = 0  # absolute bit position

    @property
    def position(self) -> int:
        """Current absolute bit offset from the start of the stream."""
        return self._position

    @property
    def remaining_bits(self) -> int:
        """Number of unread bits left in the stream."""
        return 8 * len(self._data) - self._position

    def read(self, width: int) -> int:
        """Read ``width`` bits and return them as an unsigned int."""
        if width < 0:
            raise ValueError(f"bit width must be non-negative, got {width}")
        if width == 0:
            return 0
        if width > self.remaining_bits:
            raise CorruptStreamError(
                f"attempted to read {width} bits with only "
                f"{self.remaining_bits} remaining"
            )
        result = 0
        needed = width
        while needed:
            byte_index, bit_offset = divmod(self._position, 8)
            available = 8 - bit_offset
            take = min(available, needed)
            byte = self._data[byte_index]
            chunk = (byte >> (available - take)) & ((1 << take) - 1)
            result = (result << take) | chunk
            self._position += take
            needed -= take
        return result

    def read_bytes(self, count: int) -> bytes:
        """Read ``count`` whole bytes."""
        if self._position % 8 == 0:
            start = self._position // 8
            if start + count > len(self._data):
                raise CorruptStreamError(
                    f"attempted to read {count} bytes past end of stream"
                )
            self._position += 8 * count
            return self._data[start:start + count]
        return bytes(self.read(8) for _ in range(count))

    def align(self) -> None:
        """Skip forward to the next byte boundary."""
        remainder = self._position % 8
        if remainder:
            self._position += 8 - remainder


def pack_codes(chunks: "np.ndarray", widths: "np.ndarray") -> bytes:
    """Vectorized MSB-first packing of variable-width codes.

    ``chunks[i]`` holds code *i* in its low ``widths[i]`` bits; the
    result is byte-identical to writing each code through
    :class:`BitWriter`, which includes rejecting a chunk that does not
    fit its width. Codes may be up to 56 bits wide.

    The stream is built as big-endian 64-bit words. Code *i* starts in
    word ``offset >> 6`` with ``free`` bits left in it: a code that fits
    is shifted to sit just below the bits already used, and a code that
    does not fit puts its high bits at the bottom of that word and
    spills the rest into the top of the next one. Offsets only grow, so
    the codes that share a start word are adjacent and one
    ``bitwise_or.reduceat`` combines them; only the last code of a word
    can spill, so each word receives at most one spilled tail.
    """
    chunks = np.ascontiguousarray(chunks, dtype=np.uint64)
    widths = np.ascontiguousarray(widths, dtype=np.uint64)
    if chunks.shape != widths.shape:
        raise ValueError("chunks and widths must align")
    if chunks.size == 0:
        return b""
    if int(widths.max()) > 56:
        raise ValueError("pack_codes supports codes up to 56 bits")
    # every shift amount is at most 64, and uint8 arrays are an eighth
    # of the memory traffic of uint64 ones
    small_widths = widths.astype(np.uint8)
    if np.any(chunks >> small_widths):
        raise ValueError("pack_codes got a chunk wider than its width")
    ends = np.cumsum(widths)
    total_bits = int(ends[-1])
    offsets = ends - widths
    word_index = offsets >> np.uint64(6)
    free = np.uint8(64) - (offsets & np.uint64(63)).astype(np.uint8)
    # a code that fits shifts left by free - width; a code that spills
    # shifts right by its spill, width - free
    roof = np.maximum(small_widths, free)
    spill = roof - free
    heads = (chunks >> spill) << (roof - small_widths)
    words = np.zeros(total_bits // 64 + 1, dtype=np.uint64)
    starts = np.flatnonzero(
        np.concatenate(([True], word_index[1:] != word_index[:-1]))
    )
    words[word_index[starts]] = np.bitwise_or.reduceat(heads, starts)
    spilled = np.flatnonzero(spill != 0)
    words[word_index[spilled] + 1] |= chunks[spilled] << (
        np.uint64(64) - spill[spilled]
    )
    return words.astype(">u8").tobytes()[: (total_bits + 7) // 8]
