"""Stream-compression algorithms and their cost instrumentation.

The public surface:

* :func:`get_codec` / :func:`register_codec` / :data:`CODEC_NAMES` —
  the codec registry: the paper's three algorithms (``tcomp32``,
  ``lz4``, ``tdic32``), the DAG-shaped extras (``unlz4``, ``mltc``) and
  any out-of-tree codec registered at runtime or through a
  ``cstream.codecs`` packaging entry point (see
  :mod:`repro.compression.registry`);
* :class:`~repro.compression.base.StreamCompressor` — the interface;
* :class:`~repro.compression.stats.BatchStatistics` /
  :func:`~repro.compression.stats.analyze_batch` — workload statistics.
"""

from __future__ import annotations

from repro.compression.base import (
    CompressionResult,
    StatefulCompressor,
    StatelessCompressor,
    StepCost,
    StepRole,
    StepSpec,
    StreamCompressor,
)
from repro.compression.bitio import BitReader, BitWriter, bits_required
from repro.compression.lz4 import Lz4
from repro.compression.partitioned import PartitionedCodec
from repro.compression.registry import codec_names, get_codec, register_codec
from repro.compression.stats import BatchStatistics, analyze_batch
from repro.compression.stream import CompressionSession, DecompressionSession
from repro.compression.tcomp32 import Tcomp32
from repro.compression.tdic32 import Tdic32

__all__ = [
    "BatchStatistics",
    "BitReader",
    "BitWriter",
    "CODEC_NAMES",
    "CompressionResult",
    "CompressionSession",
    "DecompressionSession",
    "Lz4",
    "PartitionedCodec",
    "StatefulCompressor",
    "StatelessCompressor",
    "StepCost",
    "StepRole",
    "StepSpec",
    "StreamCompressor",
    "Tcomp32",
    "Tdic32",
    "analyze_batch",
    "bits_required",
    "codec_names",
    "get_codec",
    "register_codec",
]

#: Names of all registered codecs at import time, the paper's three
#: first. Codecs registered later (runtime plugins) appear in
#: :func:`codec_names` but not in this snapshot.
CODEC_NAMES = codec_names()
