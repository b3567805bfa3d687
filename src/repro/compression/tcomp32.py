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
from repro.compression.bitio import BitReader, pack_codes
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


def _significant_bits(w: np.ndarray) -> np.ndarray:
    """``n = ceil(log2(number+1))`` of every word, one bit for zero."""
    bits = np.ones(w.size, dtype=np.uint64)
    nonzero = w > 0
    # float64 has 52 mantissa bits, so log2 of a 32-bit value is exact
    # enough for a correct floor at every representable boundary.
    bits[nonzero] = np.floor(
        np.log2(w[nonzero].astype(np.float64))
    ).astype(np.uint64) + np.uint64(1)
    return bits


class Tcomp32(StatelessCompressor):
    """Stateless 32-bit null-suppression stream compressor.

    The encoder is vectorized: it finds every word's significant bits in
    one numpy pass, which sizes the output exactly. The
    ``(5-bit length, n-bit value)`` codes are built and packed with
    :func:`~repro.compression.bitio.pack_codes` only when the payload is
    read.
    """

    name = "tcomp32"

    def compress(self, data: bytes) -> CompressionResult:
        if len(data) % _WORD_BYTES:
            raise CompressionError(
                f"tcomp32 requires input in 32-bit words, got {len(data)} bytes"
            )
        w = np.frombuffer(data, dtype=np.uint32).astype(np.uint64)
        bits = _significant_bits(w)
        total_significant_bits = int(bits.sum())
        word_count = len(w)
        output_size = _HEADER.size + (
            total_significant_bits + _LENGTH_FIELD_BITS * word_count + 7
        ) // 8

        def pack() -> bytes:
            chunks = ((bits - np.uint64(1)) << bits) | w
            widths = bits + np.uint64(_LENGTH_FIELD_BITS)
            return _HEADER.pack(word_count) + pack_codes(chunks, widths)

        mean_bits = total_significant_bits / word_count if word_count else 0.0
        counters = {
            "words": float(word_count),
            "significant_bits": float(total_significant_bits),
            "mean_significant_bits": mean_bits,
        }
        step_costs = self._step_costs(word_count, mean_bits, len(data), output_size)
        return CompressionResult(
            payload=pack,
            input_size=len(data),
            step_costs=step_costs,
            counters=counters,
            output_size=output_size,
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
