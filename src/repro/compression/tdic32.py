"""tdic32 — stateful dictionary coding over 32-bit symbols (Algorithm 4).

The codec keeps a ``2**n``-entry hash table mapping hash slots to the last
32-bit symbol stored there. For every input word it computes the slot
(``s1``), reads-then-overwrites the slot (``s2``), and encodes either the
slot index (dictionary hit) or the literal word (miss) (``s3``); ``s4``
bit-packs the result.

Two deliberate deviations from the paper's pseudocode, both required for a
*decodable* stream:

* the hit/miss flag is written *before* the payload (the paper's
  ``(index << 1) | 1`` puts the flag in the last bit, which a decoder
  cannot see until it knows the width);
* a 32-bit word-count header frames the stream.

The decoder maintains an identical table, so hits resolve to the same
symbol the encoder saw.

State sharing (Fig 5): replicated ``s2`` tasks normally keep *private*
dictionaries (``shared_state=False``); the executor models a private table
per replica by letting each replica compress its own slice, which slightly
lowers the hit rate (the paper reports a 0.03 compression-ratio loss).
``shared_state=True`` marks the codec's state as shared so the runtime
serializes ``s2`` across replicas and charges lock traffic — the
configuration the paper shows to be 51 % more energy-hungry.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compression.base import CompressionResult, StatefulCompressor, StepCost
from repro.errors import CompressionError, CorruptStreamError
from repro.compression.bitio import BitReader, BitWriter, pack_codes

__all__ = ["Tdic32", "tdic32_hash"]

_WORD_BYTES = 4
_HEADER = struct.Struct("<I")
_LITERAL_BITS = 32
# Knuth multiplicative hashing, the same family lz4 uses.
_HASH_MULTIPLIER = 2654435761

# --- calibrated virtual-cost constants (per 32-bit word; see DESIGN.md).
# On a hit, s2 verifies and promotes the matched entry (an extra
# read-compare-write-back against the table), so both its instruction
# and access counts rise with the hit rate — with accesses rising
# faster, which drags s2's operational intensity down into the little
# core's in-order stall region as symbol duplication grows (Fig 13).
_S0_INSTRUCTIONS = 16.0
_S0_ACCESSES = 1.0
_S1_INSTRUCTIONS = 320.0
_S1_ACCESSES = 1.0
_S2_INSTRUCTIONS_BASE = 180.0
_S2_INSTRUCTIONS_PER_HIT = 180.0
_S2_ACCESSES_BASE = 1.6
_S2_ACCESSES_PER_HIT = 3.4
_S3_INSTRUCTIONS_BASE = 140.0
_S3_INSTRUCTIONS_PER_MISS = 260.0
_S3_ACCESSES_BASE = 1.3
_S3_ACCESSES_PER_MISS = 1.1
_S4_INSTRUCTIONS_BASE = 60.0
_S4_INSTRUCTIONS_PER_OUTPUT_BIT = 14.0
_S4_ACCESSES_BASE = 0.8
_S4_ACCESSES_PER_OUTPUT_BIT = 1.0 / 8.0
# inter-step descriptors: (slot, flag, span) records of ~5 bytes per word
_DESCRIPTOR_BYTES = 5


def tdic32_hash(number: int, index_bits: int) -> int:
    """Deterministic multiplicative hash of a 32-bit word into a slot."""
    return ((number * _HASH_MULTIPLIER) & 0xFFFFFFFF) >> (32 - index_bits)


class Tdic32(StatefulCompressor):
    """Stateful 32-bit dictionary stream compressor.

    Parameters
    ----------
    index_bits:
        log2 of the hash-table size (the paper's ``n``; default 12, a
        4096-entry table).
    shared_state:
        Declares whether replicated ``s2`` tasks share this dictionary.
        The codec's single-threaded behaviour is identical either way;
        the flag is consumed by the runtime's contention model (Fig 5).
    """

    name = "tdic32"

    def __init__(
        self,
        index_bits: int = 12,
        shared_state: bool = False,
        fast: bool = True,
    ) -> None:
        if not 1 <= index_bits <= 30:
            raise CompressionError(
                f"tdic32 index_bits must be in [1, 30], got {index_bits}"
            )
        self.index_bits = index_bits
        self.shared_state = shared_state
        self.fast = fast
        self._table = np.full(1 << index_bits, -1, dtype=np.int64)
        # The decoder mirrors the encoder's state batch for batch, so a
        # decoder instance must consume the same batch sequence the
        # encoder produced (batches may reference earlier batches).
        self._decoder_table = np.full(1 << index_bits, -1, dtype=np.int64)

    def reset(self) -> None:
        self._table.fill(-1)
        self._decoder_table.fill(-1)

    @property
    def state_entries(self) -> int:
        """Number of populated dictionary slots (for tests/diagnostics)."""
        return int((self._table >= 0).sum())

    def compress(self, data: bytes) -> CompressionResult:
        if len(data) % _WORD_BYTES:
            raise CompressionError(
                f"tdic32 requires input in 32-bit words, got {len(data)} bytes"
            )
        words = np.frombuffer(data, dtype=np.uint32)
        if self.fast:
            body, hits = self._vectorized_encode(words)
            payload = _HEADER.pack(len(words)) + body
        else:
            writer = BitWriter()
            writer.write_bytes(_HEADER.pack(len(words)))
            table = self._table
            index_bits = self.index_bits
            hits = 0
            for number in words.tolist():
                slot = tdic32_hash(number, index_bits)
                previous = table[slot]
                table[slot] = number
                if previous == number:
                    hits += 1
                    writer.write(1, 1)
                    writer.write(slot, index_bits)
                else:
                    writer.write(0, 1)
                    writer.write(number, _LITERAL_BITS)
            payload = writer.getvalue()

        word_count = len(words)
        hit_rate = hits / word_count if word_count else 0.0
        output_bits_per_word = (
            hit_rate * (1 + self.index_bits)
            + (1.0 - hit_rate) * (1 + _LITERAL_BITS)
        )
        counters = {
            "words": float(word_count),
            "hits": float(hits),
            "hit_rate": hit_rate,
            "output_bits_per_word": output_bits_per_word,
        }
        step_costs = self._step_costs(
            word_count, hit_rate, output_bits_per_word, len(data), len(payload)
        )
        return CompressionResult(
            payload=payload,
            input_size=len(data),
            step_costs=step_costs,
            counters=counters,
        )

    def _vectorized_encode(self, words: np.ndarray):
        """One-pass dictionary resolution plus vectorized packing.

        Hit/miss of every word is resolved without a sequential loop: a
        stable sort groups accesses by slot, so within a group each
        access sees the *previous group member's* word (original order
        is preserved by stability), and the first access per group sees
        the pre-batch table entry. The table then advances to each
        group's last word. Byte-identical to the reference loop.
        """
        if words.size == 0:
            return b"", 0
        index_bits = self.index_bits
        table = self._table
        w64 = words.astype(np.uint64)
        slots = (
            (w64 * np.uint64(_HASH_MULTIPLIER)) & np.uint64(0xFFFFFFFF)
        ) >> np.uint64(32 - index_bits)
        slots = slots.astype(np.int64)
        signed_words = words.astype(np.int64)

        # A stable sort yields one permutation whatever the key width;
        # on a key of 16 bits or less numpy's stable sort is a radix sort.
        order = np.argsort(
            slots.astype(np.min_scalar_type((1 << index_bits) - 1)),
            kind="stable",
        )
        sorted_slots = slots[order]
        sorted_words = signed_words[order]
        count = words.size
        hits_sorted = np.zeros(count, dtype=bool)
        if count > 1:
            same_slot = sorted_slots[1:] == sorted_slots[:-1]
            hits_sorted[1:] = same_slot & (
                sorted_words[1:] == sorted_words[:-1]
            )
        first_of_group = np.ones(count, dtype=bool)
        if count > 1:
            first_of_group[1:] = ~same_slot
        first_indices = np.nonzero(first_of_group)[0]
        hits_sorted[first_indices] = (
            table[sorted_slots[first_indices]]
            == sorted_words[first_indices]
        )
        last_of_group = np.ones(count, dtype=bool)
        if count > 1:
            last_of_group[:-1] = ~same_slot
        last_indices = np.nonzero(last_of_group)[0]
        table[sorted_slots[last_indices]] = sorted_words[last_indices]

        hits = np.empty(count, dtype=bool)
        hits[order] = hits_sorted

        widths = np.where(
            hits,
            np.uint64(1 + index_bits),
            np.uint64(1 + _LITERAL_BITS),
        ).astype(np.uint64)
        flag_payload = np.where(
            hits,
            (np.uint64(1) << np.uint64(index_bits)) | slots.astype(np.uint64),
            w64,
        ).astype(np.uint64)
        return pack_codes(flag_payload, widths), int(hits.sum())

    def decompress(self, payload: bytes) -> bytes:
        if len(payload) < _HEADER.size:
            raise CorruptStreamError("tdic32 stream shorter than its header")
        (word_count,) = _HEADER.unpack_from(payload)
        reader = BitReader(payload[_HEADER.size:])
        table = self._decoder_table
        words = np.empty(word_count, dtype=np.uint32)
        for i in range(word_count):
            if reader.read(1):
                slot = reader.read(self.index_bits)
                number = int(table[slot])
                if number < 0:
                    raise CorruptStreamError(
                        f"tdic32 hit references empty slot {slot} at word {i}"
                    )
            else:
                number = reader.read(_LITERAL_BITS)
                slot = tdic32_hash(number, self.index_bits)
            table[slot] = number
            words[i] = number
        return words.tobytes()

    def _step_costs(
        self,
        word_count: int,
        hit_rate: float,
        output_bits_per_word: float,
        input_size: int,
        output_size: int,
    ) -> dict:
        miss_rate = 1.0 - hit_rate
        descriptor_bytes = word_count * _DESCRIPTOR_BYTES
        s0 = StepCost(
            instructions=_S0_INSTRUCTIONS * word_count,
            memory_accesses=_S0_ACCESSES * word_count,
            input_bytes=input_size,
            output_bytes=input_size,
        )
        s1 = StepCost(
            instructions=_S1_INSTRUCTIONS * word_count,
            memory_accesses=_S1_ACCESSES * word_count,
            input_bytes=input_size,
            output_bytes=descriptor_bytes,
        )
        s2 = StepCost(
            instructions=(
                _S2_INSTRUCTIONS_BASE + _S2_INSTRUCTIONS_PER_HIT * hit_rate
            ) * word_count,
            memory_accesses=(
                _S2_ACCESSES_BASE + _S2_ACCESSES_PER_HIT * hit_rate
            ) * word_count,
            input_bytes=descriptor_bytes,
            output_bytes=descriptor_bytes,
        )
        s3 = StepCost(
            instructions=(
                _S3_INSTRUCTIONS_BASE + _S3_INSTRUCTIONS_PER_MISS * miss_rate
            ) * word_count,
            memory_accesses=(
                _S3_ACCESSES_BASE + _S3_ACCESSES_PER_MISS * miss_rate
            ) * word_count,
            input_bytes=descriptor_bytes,
            output_bytes=descriptor_bytes,
        )
        s4 = StepCost(
            instructions=(
                _S4_INSTRUCTIONS_BASE
                + _S4_INSTRUCTIONS_PER_OUTPUT_BIT * output_bits_per_word
            ) * word_count,
            memory_accesses=(
                _S4_ACCESSES_BASE
                + _S4_ACCESSES_PER_OUTPUT_BIT * output_bits_per_word
            ) * word_count,
            input_bytes=descriptor_bytes,
            output_bytes=output_size,
        )
        return {"s0": s0, "s1": s1, "s2": s2, "s3": s3, "s4": s4}
