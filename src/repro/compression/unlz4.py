"""unlz4 — LZ4 block *decompression* as a fork-join pipeline workload.

Compression pipelines are not the only stream workloads an asymmetric
board runs: the downlink side of the paper's drone scenario decodes the
same batches it previously uplinked. Decoding LZ4 is naturally a DAG,
not a chain — after the sequence stream is parsed, literal runs and
match copies are independent per sequence and only meet again when the
output batch is stitched together:

* ``d0`` parse — walk tokens, extended lengths and offsets. Branchy
  integer work over a small window: *high* operational intensity;
* ``d1`` literal copy — memcpy literal runs to their output slots:
  *low* intensity (two memory accesses per byte, almost no arithmetic);
* ``d2`` match copy — resolve back-references against the decoded
  window (byte-wise, overlap-safe): *low* intensity;
* ``d3`` merge — stitch the materialized runs into the decoded batch
  and verify the promised length: *low* intensity.

The intensity profile is *inverted* relative to the encoder (lz4's
compute-heavy s1–s3 sit mid-pipeline; here the compute-heavy step comes
first and everything downstream is memory-bound), which exercises the
scheduler's cluster assignment in the opposite direction.

``compress`` performs a real LZ4 block encode (via
:class:`~repro.compression.lz4.Lz4`, whose bytes are built only when the
payload is read, and whose parse of a block lz4's own dry run already
made is shared) so the round-trip contract holds,
but the reported step costs model the *decoder's* work on that payload:
the encoder's sequence counters (tokens, matches, matched bytes) are
exactly what the decoder will traverse. ``decompress`` is a real decode.

Step graph::

            +-> d1 (literals) -+
    d0 ----+                   +--> d3
            +-> d2 (matches) --+
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from repro.compression.base import (
    CompressionResult,
    StepCost,
    StepRole,
    StepSpec,
    StreamCompressor,
)
from repro.compression.lz4 import Lz4

__all__ = ["UnLz4"]

# --- calibrated virtual-cost constants (see DESIGN.md) ------------------
# d0 parse: token/length/offset decode is branchy register arithmetic
# over bytes that stay cache-resident — few accesses, many instructions.
_D0_INSTRUCTIONS_PER_TOKEN = 240.0
_D0_INSTRUCTIONS_PER_BYTE = 6.0  # per compressed byte scanned
_D0_ACCESSES_PER_TOKEN = 1.1
_D0_ACCESSES_PER_BYTE = 0.04
# d1 literal copy: a straight memcpy, read + write per byte.
_D1_INSTRUCTIONS_PER_BYTE = 1.4
_D1_INSTRUCTIONS_PER_RUN = 28.0
_D1_ACCESSES_PER_BYTE = 2.05
_D1_ACCESSES_PER_RUN = 2.0
# d2 match copy: byte-wise because matches may overlap their output.
_D2_INSTRUCTIONS_PER_BYTE = 2.6
_D2_INSTRUCTIONS_PER_MATCH = 42.0
_D2_ACCESSES_PER_BYTE = 2.55
_D2_ACCESSES_PER_MATCH = 3.0
# d3 merge: stitch runs into the output batch and check the length.
_D3_INSTRUCTIONS_PER_BYTE = 1.1
_D3_INSTRUCTIONS_PER_TOKEN = 18.0
_D3_ACCESSES_PER_BYTE = 1.9
# (kind, output offset, length) run descriptors flowing d0 -> d1/d2
_DESCRIPTOR_BYTES_PER_RUN = 9


class UnLz4(StreamCompressor):
    """LZ4 block decompression modeled as a parse/{literal,match}/merge
    fork-join pipeline.

    Parameters
    ----------
    index_bits:
        log2 of the *encoder's* hash-table size (default 12) — it shapes
        the sequence mix the decoder sees.
    """

    name = "unlz4"
    stateful = False

    _STEPS = (
        StepSpec("d0", StepRole.READ,
                 "parse sequences: tokens, lengths, offsets"),
        StepSpec("d1", StepRole.ENCODE, "materialize literal runs"),
        StepSpec("d2", StepRole.ENCODE,
                 "resolve match copies against the decoded window"),
        StepSpec("d3", StepRole.WRITE,
                 "merge runs into the decoded batch"),
    )

    def __init__(self, index_bits: int = 12) -> None:
        self._codec = Lz4(index_bits=index_bits)

    def steps(self) -> Tuple[StepSpec, ...]:
        return self._STEPS

    def step_dependencies(self) -> Mapping[str, Tuple[str, ...]]:
        return {"d0": (), "d1": ("d0",), "d2": ("d0",), "d3": ("d1", "d2")}

    def compress(self, data: bytes) -> CompressionResult:
        encoded = self._codec.compress(data)
        counters = dict(encoded.counters)
        step_costs = self._step_costs(
            input_bytes=len(data),
            compressed_bytes=encoded.output_size,
            tokens=int(counters["tokens"]),
            matches=int(counters["matches"]),
            matched_bytes=int(counters["matched_bytes"]),
            literal_bytes=int(counters["literal_bytes"]),
        )
        return CompressionResult(
            payload=lambda: encoded.payload,
            input_size=len(data),
            step_costs=step_costs,
            counters=counters,
            output_size=encoded.output_size,
        )

    def decompress(self, payload: bytes) -> bytes:
        return self._codec.decompress(payload)

    def _step_costs(
        self,
        input_bytes: int,
        compressed_bytes: int,
        tokens: int,
        matches: int,
        matched_bytes: int,
        literal_bytes: int,
    ) -> Dict[str, StepCost]:
        # Every sequence carries one (possibly empty) literal run;
        # matched sequences additionally carry one match run.
        literal_runs = tokens
        descriptor_bytes = (
            (literal_runs + matches) * _DESCRIPTOR_BYTES_PER_RUN
        )
        d0 = StepCost(
            instructions=(
                _D0_INSTRUCTIONS_PER_TOKEN * tokens
                + _D0_INSTRUCTIONS_PER_BYTE * compressed_bytes
            ),
            memory_accesses=(
                _D0_ACCESSES_PER_TOKEN * tokens
                + _D0_ACCESSES_PER_BYTE * compressed_bytes
            ),
            input_bytes=compressed_bytes,
            output_bytes=descriptor_bytes,
        )
        d1 = StepCost(
            instructions=(
                _D1_INSTRUCTIONS_PER_BYTE * literal_bytes
                + _D1_INSTRUCTIONS_PER_RUN * literal_runs
            ),
            memory_accesses=(
                _D1_ACCESSES_PER_BYTE * literal_bytes
                + _D1_ACCESSES_PER_RUN * literal_runs
            ),
            input_bytes=descriptor_bytes,
            output_bytes=literal_bytes,
        )
        d2 = StepCost(
            instructions=(
                _D2_INSTRUCTIONS_PER_BYTE * matched_bytes
                + _D2_INSTRUCTIONS_PER_MATCH * matches
            ),
            memory_accesses=(
                _D2_ACCESSES_PER_BYTE * matched_bytes
                + _D2_ACCESSES_PER_MATCH * matches
            ),
            input_bytes=descriptor_bytes,
            output_bytes=matched_bytes,
        )
        d3 = StepCost(
            instructions=(
                _D3_INSTRUCTIONS_PER_BYTE * input_bytes
                + _D3_INSTRUCTIONS_PER_TOKEN * tokens
            ),
            memory_accesses=_D3_ACCESSES_PER_BYTE * input_bytes,
            input_bytes=literal_bytes + matched_bytes,
            output_bytes=input_bytes,
        )
        return {"d0": d0, "d1": d1, "d2": d2, "d3": d3}
