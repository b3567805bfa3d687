"""tcomp32 — stateless bit-level null suppression (paper Algorithm 2).

For every non-overlapping 32-bit word the codec cuts off leading zero
bits: it writes a 5-bit length indicator ``n-1`` followed by the ``n``
significant bits of the word, where ``n = ceil(log2(number+1))`` (one bit
for zero). A 32-bit word-count header makes the stream self-delimiting —
the paper's pseudocode leaves framing implicit, but a decodable stream
needs it.

Step decomposition (Algorithm 1):

* ``s0`` read — memory copy of the batch into words (low κ);
* ``s1`` encode — arithmetic search for the compressible part (high κ,
  grows with the data's dynamic range);
* ``s2`` write — bit-packing of the encoded output (medium κ, grows with
  the emitted bit count).

The per-step instruction/memory-access constants below are calibrated so
that, on a Rovio-like batch (mean significant bits ≈ 31), the fused
``s0+s1`` task has κ ≈ 320 and ≈ 280 instructions/byte while ``s2`` has
κ ≈ 102 and ≈ 120 instructions/byte — the paper's Table IV anchor values.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compression.base import CompressionResult, StatelessCompressor, StepCost
from repro.compression.bitio import BitReader, BitWriter, pack_codes
from repro.errors import CompressionError, CorruptStreamError

__all__ = ["Tcomp32"]

_WORD_BYTES = 4
_LENGTH_FIELD_BITS = 5
_HEADER = struct.Struct("<I")

# --- calibrated virtual-cost constants (per 32-bit word; see DESIGN.md) ---
_S0_INSTRUCTIONS = 16.0
_S0_ACCESSES = 1.0
_S1_INSTRUCTIONS_BASE = 88.0
_S1_INSTRUCTIONS_PER_BIT = 32.0
_S1_ACCESSES = 2.4
_S2_INSTRUCTIONS_BASE = 100.0
_S2_INSTRUCTIONS_PER_OUTPUT_BIT = 10.5
_S2_ACCESSES_BASE = 0.2
# one access per packed output byte
_S2_ACCESSES_PER_OUTPUT_BIT = 1.0 / 8.0
# s1 forwards (length, value) descriptors of roughly 5 bytes per word
_S1_DESCRIPTOR_BYTES = 5


def _vectorized_encode(words: np.ndarray):
    """Build all ``(n-1, value)`` codes in one numpy pass and pack them
    with :func:`~repro.compression.bitio.pack_codes`. Returns
    ``(packed bytes, total significant bits)`` — byte-identical to the
    BitWriter reference path.
    """
    if words.size == 0:
        return b"", 0
    w = words.astype(np.uint64)
    bits = np.ones(w.size, dtype=np.uint64)
    nonzero = w > 0
    # float64 has 52 mantissa bits, so log2 of a 32-bit value is exact
    # enough for a correct floor at every representable boundary.
    bits[nonzero] = np.floor(
        np.log2(w[nonzero].astype(np.float64))
    ).astype(np.uint64) + np.uint64(1)
    widths = bits + np.uint64(_LENGTH_FIELD_BITS)
    chunks = ((bits - np.uint64(1)) << bits) | w
    return pack_codes(chunks, widths), int(bits.sum())


class Tcomp32(StatelessCompressor):
    """Stateless 32-bit null-suppression stream compressor.

    Two byte-identical encoder implementations are provided: a
    vectorized numpy path (default — builds every word's
    ``(5-bit length, n-bit value)`` code at once and packs them into
    big-endian 64-bit words with
    :func:`~repro.compression.bitio.pack_codes`) and a reference loop over
    :class:`~repro.compression.bitio.BitWriter`. ``fast=False`` selects
    the reference path; the test suite asserts their equivalence.
    """

    name = "tcomp32"

    def __init__(self, fast: bool = True) -> None:
        self.fast = fast

    def compress(self, data: bytes) -> CompressionResult:
        if len(data) % _WORD_BYTES:
            raise CompressionError(
                f"tcomp32 requires input in 32-bit words, got {len(data)} bytes"
            )
        words = np.frombuffer(data, dtype=np.uint32)
        if self.fast:
            body, total_significant_bits = _vectorized_encode(words)
            payload = _HEADER.pack(len(words)) + body
        else:
            writer = BitWriter()
            writer.write_bytes(_HEADER.pack(len(words)))
            total_significant_bits = 0
            for number in words.tolist():
                n = 1 if number == 0 else number.bit_length()
                total_significant_bits += n
                writer.write(n - 1, _LENGTH_FIELD_BITS)
                writer.write(number, n)
            payload = writer.getvalue()

        word_count = len(words)
        mean_bits = total_significant_bits / word_count if word_count else 0.0
        counters = {
            "words": float(word_count),
            "significant_bits": float(total_significant_bits),
            "mean_significant_bits": mean_bits,
        }
        step_costs = self._step_costs(word_count, mean_bits, len(data), len(payload))
        return CompressionResult(
            payload=payload,
            input_size=len(data),
            step_costs=step_costs,
            counters=counters,
        )

    def decompress(self, payload: bytes) -> bytes:
        if len(payload) < _HEADER.size:
            raise CorruptStreamError("tcomp32 stream shorter than its header")
        (word_count,) = _HEADER.unpack_from(payload)
        reader = BitReader(payload[_HEADER.size:])
        words = np.empty(word_count, dtype=np.uint32)
        for i in range(word_count):
            n = reader.read(_LENGTH_FIELD_BITS) + 1
            words[i] = reader.read(n)
        return words.tobytes()

    def _step_costs(
        self,
        word_count: int,
        mean_bits: float,
        input_size: int,
        output_size: int,
    ) -> dict:
        output_bits_per_word = _LENGTH_FIELD_BITS + mean_bits
        descriptor_bytes = word_count * _S1_DESCRIPTOR_BYTES
        s0 = StepCost(
            instructions=_S0_INSTRUCTIONS * word_count,
            memory_accesses=_S0_ACCESSES * word_count,
            input_bytes=input_size,
            output_bytes=input_size,
        )
        s1 = StepCost(
            instructions=(
                _S1_INSTRUCTIONS_BASE + _S1_INSTRUCTIONS_PER_BIT * mean_bits
            ) * word_count,
            memory_accesses=_S1_ACCESSES * word_count,
            input_bytes=input_size,
            output_bytes=descriptor_bytes,
        )
        s2 = StepCost(
            instructions=(
                _S2_INSTRUCTIONS_BASE
                + _S2_INSTRUCTIONS_PER_OUTPUT_BIT * output_bits_per_word
            ) * word_count,
            memory_accesses=(
                _S2_ACCESSES_BASE
                + _S2_ACCESSES_PER_OUTPUT_BIT * output_bits_per_word
            ) * word_count,
            input_bytes=descriptor_bytes,
            output_bytes=output_size,
        )
        return {"s0": s0, "s1": s1, "s2": s2}
