"""lz4 — LZ77-family stateful compression (paper Algorithm 5).

This is a real encoder/decoder for the LZ4 *block* format: greedy parsing
with a hash table keyed on 4-byte prefixes, sequences of
``token | literal-length extension | literals | offset | match-length
extension``, and an all-literal final sequence. A 4-byte little-endian
original-length header frames each block (the paper compresses batch by
batch; each batch is one block, so the hash-table state — the paper's
``tb``, ``literal`` and ``buffer`` — lives for the duration of a block).

Step decomposition (Algorithm 3):

* ``s0`` read — append bytes to the search buffer;
* ``s1`` pre-process — hash the 4-byte prefix at each scan position;
* ``s2`` state update — read/overwrite the hash-table slot and trim the
  window (memory-bound, cost shrinks with vocabulary duplication because
  matched spans skip updates);
* ``s3`` state-based encoding — match expansion ("backward searching");
  cost grows with duplication via matched bytes and per-match setup;
* ``s4`` write — token/literal emission, cost tracks output volume.

The opposing trends of ``s2`` and ``s3`` under vocabulary duplication are
what Fig 12 of the paper studies.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from typing import List, NamedTuple, Tuple

import numpy as _np

from repro.compression.base import CompressionResult, StatefulCompressor, StepCost
from repro.errors import CompressionError, CorruptStreamError
from repro.memo import lru_lookup

__all__ = ["Lz4"]

_HEADER = struct.Struct("<I")
_MIN_MATCH = 4
_MAX_OFFSET = 0xFFFF
# Positions closer than this to the end are emitted as literals, matching
# the reference implementation's end-of-block conditions.
_MATCH_SEARCH_MARGIN = 12
_TOKEN_MAX = 15

# --- calibrated virtual-cost constants (see DESIGN.md) ------------------
_S0_INSTRUCTIONS_PER_BYTE = 2.5
_S0_ACCESSES_PER_BYTE = 0.35
_S1_INSTRUCTIONS_PER_PROBE = 60.0
_S1_INSTRUCTIONS_PER_BYTE = 8.0
_S1_ACCESSES_PER_PROBE = 0.24
_S1_ACCESSES_PER_BYTE = 0.02
_S2_INSTRUCTIONS_PER_UPDATE = 48.0
_S2_INSTRUCTIONS_PER_BYTE = 16.0
_S2_ACCESSES_PER_UPDATE = 4.0
_S2_ACCESSES_PER_BYTE = 0.6
_S3_INSTRUCTIONS_PER_MATCH_BYTE = 40.0
_S3_INSTRUCTIONS_PER_MATCH = 1000.0
_S3_INSTRUCTIONS_PER_BYTE = 12.0
_S3_ACCESSES_PER_MATCH_BYTE = 0.24
_S3_ACCESSES_PER_MATCH = 6.0
_S3_ACCESSES_PER_BYTE = 0.08
_S4_INSTRUCTIONS_PER_OUTPUT_BYTE = 150.0
_S4_INSTRUCTIONS_PER_TOKEN = 32.0
_S4_ACCESSES_PER_OUTPUT_BYTE = 1.5
_S4_ACCESSES_PER_TOKEN = 0.3
# (position, slot) descriptors flowing between the pipeline steps
_DESCRIPTOR_BYTES_PER_PROBE = 5


class _ParseSizes(NamedTuple):
    """What a dry run reads of one block's greedy parse."""

    probes: int
    matches: int
    matched_bytes: int
    output_size: int


#: bound of the parse memo; lz4's and unlz4's dry runs of a grid's
#: datasets parse the same fifteen batches
_PARSES_MAX = 32
#: (index_bits, max_search_length, block bytes) -> :class:`_ParseSizes`
_PARSES: "OrderedDict[tuple, _ParseSizes]" = OrderedDict()


def _hash_all(data: bytes, limit: int, index_bits: int) -> Tuple[list, list]:
    """The 4-byte little-endian word at every position in ``[0, limit)``
    and its multiplicative hash: ``(hashes, words)``.

    Pure integer arithmetic in uint32: the multiplication wraps exactly
    like ``(word * 2654435761) & 0xFFFFFFFF``, and the shift keeps the
    top ``index_bits``. Positions up to ``limit - 1`` read 4 bytes
    each, which stays in bounds because ``limit`` excludes the
    :data:`_MATCH_SEARCH_MARGIN` tail.
    """
    if limit <= 0:
        return [], []
    raw = _np.frombuffer(data, dtype=_np.uint8)
    words = raw[0:limit].astype(_np.uint32)
    words |= raw[1:limit + 1].astype(_np.uint32) << _np.uint32(8)
    words |= raw[2:limit + 2].astype(_np.uint32) << _np.uint32(16)
    words |= raw[3:limit + 3].astype(_np.uint32) << _np.uint32(24)
    hashes = words * _np.uint32(2654435761)
    hashes >>= _np.uint32(32 - index_bits)
    return hashes.tolist(), words.tolist()


def _extension_bytes(length: int) -> int:
    """Bytes of the LZ4 extended-length field of a 4-bit token field
    that holds ``length``."""
    if length < _TOKEN_MAX:
        return 0
    return (length - _TOKEN_MAX) // 255 + 1


def _write_length(out: bytearray, length: int) -> None:
    """LZ4 extended-length encoding: bytes of 255 then a final byte."""
    while length >= 255:
        out.append(255)
        length -= 255
    out.append(length)


class Lz4(StatefulCompressor):
    """LZ4 block-format stream compressor.

    Parameters
    ----------
    index_bits:
        log2 of the hash-table size (default 12).
    max_search_length:
        The paper's ``ml``: matches longer than this are split. ``None``
        (default) leaves match length unbounded, like reference lz4.
    """

    name = "lz4"

    def __init__(self, index_bits: int = 12, max_search_length: int = None) -> None:
        if not 1 <= index_bits <= 24:
            raise CompressionError(
                f"lz4 index_bits must be in [1, 24], got {index_bits}"
            )
        if max_search_length is not None and max_search_length < _MIN_MATCH:
            raise CompressionError(
                f"lz4 max_search_length must be >= {_MIN_MATCH}"
            )
        self.index_bits = index_bits
        self.max_search_length = max_search_length

    def compress(self, data: bytes) -> CompressionResult:
        """One block. The parse's sizes are memoized process-wide on
        (``index_bits``, ``max_search_length``, the block bytes), the
        inputs it reads, so unlz4's dry run of a block lz4 just parsed
        parses nothing; reading the payload of a hit parses again."""
        data = bytes(data)
        n = len(data)
        parsed = []  # this call's sequences, when it ran the parse

        def parse() -> _ParseSizes:
            sequences, anchor, sizes = self._parse(data)
            parsed.append((sequences, anchor))
            return sizes

        probes, matches, matched_bytes, output_size = lru_lookup(
            _PARSES, (self.index_bits, self.max_search_length, data),
            _PARSES_MAX, parse,
        )
        # Final all-literal sequence (always present, even if empty, so the
        # decoder can terminate on a literals-only token).
        tokens = matches + 1

        def pack() -> bytes:
            sequences, anchor = parsed[0] if parsed else self._parse(data)[:2]
            out = bytearray(_HEADER.pack(n))
            for sequence in sequences:
                self._emit_sequence(out, data, *sequence)
            literal_length = n - anchor
            out.append(min(literal_length, _TOKEN_MAX) << 4)
            if literal_length >= _TOKEN_MAX:
                _write_length(out, literal_length - _TOKEN_MAX)
            out.extend(data[anchor:])
            return bytes(out)

        counters = {
            "input_bytes": float(n),
            "probes": float(probes),
            # every probe overwrites its table slot
            "table_updates": float(probes),
            "matches": float(matches),
            "matched_bytes": float(matched_bytes),
            "literal_bytes": float(n - matched_bytes),
            "tokens": float(tokens),
            "matched_fraction": matched_bytes / n if n else 0.0,
        }
        step_costs = self._step_costs(
            n, probes, probes, matches, matched_bytes, tokens, output_size
        )
        return CompressionResult(
            payload=pack,
            input_size=n,
            step_costs=step_costs,
            counters=counters,
            output_size=output_size,
        )

    def _parse(
        self, data: bytes
    ) -> Tuple[List[Tuple[int, int, int, int]], int, _ParseSizes]:
        """Greedy parse of one block: its sequences (literal start,
        match position, offset, match length), the start of the final
        literal run and the sizes a dry run reads."""
        n = len(data)
        table = [-1] * (1 << self.index_bits)

        matched_bytes = 0
        extension_bytes = 0
        sequences: List[Tuple[int, int, int, int]] = []

        anchor = 0  # start of the pending literal run
        position = 0
        search_limit = n - _MATCH_SEARCH_MARGIN
        hashes, words = _hash_all(data, search_limit, self.index_bits)
        while position < search_limit:
            slot = hashes[position]
            candidate = table[slot]
            table[slot] = position
            if (
                candidate >= 0
                and position - candidate <= _MAX_OFFSET
                and words[candidate] == words[position]
            ):
                length = self._expand_match(data, candidate, position, search_limit)
                sequences.append(
                    (anchor, position, position - candidate, length)
                )
                extension_bytes += _extension_bytes(
                    position - anchor
                ) + _extension_bytes(length - _MIN_MATCH)
                matched_bytes += length
                position += length
                anchor = position
            else:
                position += 1

        matches = len(sequences)
        # one probe per literal position scanned and one per match
        probes = position - matched_bytes + matches
        output_size = (
            _HEADER.size
            + 3 * matches  # token and offset of each matched sequence
            + 1  # token of the final sequence
            + n - matched_bytes  # every literal
            + _extension_bytes(n - anchor)
            + extension_bytes
        )
        return sequences, anchor, _ParseSizes(
            probes, matches, matched_bytes, output_size
        )

    def _expand_match(
        self, data: bytes, candidate: int, position: int, limit: int
    ) -> int:
        """Length of the match between ``candidate`` and ``position``.

        This is the paper's "expand searching in buffer" — forward
        extension past the verified 4-byte seed, capped by the search
        margin and optionally by ``max_search_length``.
        """
        length = _MIN_MATCH
        max_length = limit - position
        if self.max_search_length is not None:
            max_length = min(max_length, self.max_search_length)
        while (
            length < max_length
            and data[candidate + length] == data[position + length]
        ):
            length += 1
        return length

    @staticmethod
    def _emit_sequence(
        out: bytearray,
        data: bytes,
        anchor: int,
        position: int,
        offset: int,
        match_length: int,
    ) -> None:
        literal_length = position - anchor
        token_literals = min(literal_length, _TOKEN_MAX)
        token_match = min(match_length - _MIN_MATCH, _TOKEN_MAX)
        out.append((token_literals << 4) | token_match)
        if literal_length >= _TOKEN_MAX:
            _write_length(out, literal_length - _TOKEN_MAX)
        out.extend(data[anchor:position])
        out.extend(offset.to_bytes(2, "little"))
        if match_length - _MIN_MATCH >= _TOKEN_MAX:
            _write_length(out, match_length - _MIN_MATCH - _TOKEN_MAX)

    def decompress(self, payload: bytes) -> bytes:
        if len(payload) < _HEADER.size:
            raise CorruptStreamError("lz4 stream shorter than its header")
        (expected,) = _HEADER.unpack_from(payload)
        src = payload[_HEADER.size:]
        out = bytearray()
        position = 0
        while len(out) < expected or position < len(src):
            if position >= len(src):
                raise CorruptStreamError("lz4 stream truncated mid-sequence")
            token = src[position]
            position += 1
            literal_length = token >> 4
            if literal_length == _TOKEN_MAX:
                literal_length, position = self._read_length(
                    src, position, literal_length
                )
            if position + literal_length > len(src):
                raise CorruptStreamError("lz4 literal run exceeds stream")
            out.extend(src[position:position + literal_length])
            position += literal_length
            if len(out) >= expected:
                break  # final literals-only sequence
            if position + 2 > len(src):
                raise CorruptStreamError("lz4 stream truncated at match offset")
            offset = int.from_bytes(src[position:position + 2], "little")
            position += 2
            if offset == 0 or offset > len(out):
                raise CorruptStreamError(f"lz4 invalid match offset {offset}")
            match_length = (token & 0x0F) + _MIN_MATCH
            if (token & 0x0F) == _TOKEN_MAX:
                extra, position = self._read_length(src, position, 0)
                match_length += extra
            # Byte-wise copy: matches may overlap their own output.
            start = len(out) - offset
            for i in range(match_length):
                out.append(out[start + i])
        if len(out) != expected:
            raise CorruptStreamError(
                f"lz4 decoded {len(out)} bytes, header promised {expected}"
            )
        return bytes(out)

    @staticmethod
    def _read_length(src: bytes, position: int, base: int):
        length = base
        while True:
            if position >= len(src):
                raise CorruptStreamError("lz4 stream truncated in length field")
            byte = src[position]
            position += 1
            length += byte
            if byte != 255:
                return length, position

    def _step_costs(
        self,
        input_bytes: int,
        probes: int,
        updates: int,
        matches: int,
        matched_bytes: int,
        tokens: int,
        output_bytes: int,
    ) -> dict:
        descriptor_bytes = probes * _DESCRIPTOR_BYTES_PER_PROBE
        s0 = StepCost(
            instructions=_S0_INSTRUCTIONS_PER_BYTE * input_bytes,
            memory_accesses=_S0_ACCESSES_PER_BYTE * input_bytes,
            input_bytes=input_bytes,
            output_bytes=input_bytes,
        )
        s1 = StepCost(
            instructions=(
                _S1_INSTRUCTIONS_PER_PROBE * probes
                + _S1_INSTRUCTIONS_PER_BYTE * input_bytes
            ),
            memory_accesses=(
                _S1_ACCESSES_PER_PROBE * probes
                + _S1_ACCESSES_PER_BYTE * input_bytes
            ),
            input_bytes=input_bytes,
            output_bytes=descriptor_bytes,
        )
        s2 = StepCost(
            instructions=(
                _S2_INSTRUCTIONS_PER_UPDATE * updates
                + _S2_INSTRUCTIONS_PER_BYTE * input_bytes
            ),
            memory_accesses=(
                _S2_ACCESSES_PER_UPDATE * updates
                + _S2_ACCESSES_PER_BYTE * input_bytes
            ),
            input_bytes=descriptor_bytes,
            output_bytes=descriptor_bytes,
        )
        s3 = StepCost(
            instructions=(
                _S3_INSTRUCTIONS_PER_MATCH_BYTE * matched_bytes
                + _S3_INSTRUCTIONS_PER_MATCH * matches
                + _S3_INSTRUCTIONS_PER_BYTE * input_bytes
            ),
            memory_accesses=(
                _S3_ACCESSES_PER_MATCH_BYTE * matched_bytes
                + _S3_ACCESSES_PER_MATCH * matches
            ),
            input_bytes=descriptor_bytes,
            output_bytes=descriptor_bytes,
        )
        s4 = StepCost(
            instructions=(
                _S4_INSTRUCTIONS_PER_OUTPUT_BYTE * output_bytes
                + _S4_INSTRUCTIONS_PER_TOKEN * tokens
            ),
            memory_accesses=(
                _S4_ACCESSES_PER_OUTPUT_BYTE * output_bytes
                + _S4_ACCESSES_PER_TOKEN * tokens
            ),
            input_bytes=descriptor_bytes,
            output_bytes=output_bytes,
        )
        return {"s0": s0, "s1": s1, "s2": s2, "s3": s3, "s4": s4}
