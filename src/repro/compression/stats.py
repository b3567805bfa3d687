"""Statistical characterization of stream batches.

The paper's workload-sensitivity study (§VII-B) varies three data
properties — *vocabulary duplication*, *symbol duplication*, and *dynamic
range* — and its codecs' per-step costs depend on them. Following the
paper's convention, a **symbol** is a non-overlapping 32-bit word of the
batch and a **vocabulary** is a longer (64-bit here) unit.

:func:`analyze_batch` computes all the properties in one pass; the result
feeds both the cost model (operational-intensity estimation) and the
dataset generators' self-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BatchStatistics", "analyze_batch"]

_SYMBOL_BYTES = 4
_VOCABULARY_BYTES = 8


@dataclass(frozen=True)
class BatchStatistics:
    """Summary statistics of one batch of stream data.

    Attributes
    ----------
    size_bytes:
        Raw batch size.
    symbol_count:
        Number of 32-bit symbols in the batch.
    symbol_duplication:
        Fraction of symbols that repeat an earlier symbol, in ``[0, 1]``.
        This is what tdic32's dictionary hit rate tracks.
    vocabulary_duplication:
        Same, for 64-bit vocabularies — what lz4's match finder tracks.
    dynamic_range_bits:
        Mean number of significant bits per symbol (1..32). tcomp32's
        output size is proportional to this.
    symbol_entropy_bits:
        Shannon entropy of the symbol distribution, in bits (0..32).
    """

    size_bytes: int
    symbol_count: int
    symbol_duplication: float
    vocabulary_duplication: float
    dynamic_range_bits: float
    symbol_entropy_bits: float


def _as_words(data: bytes, word_bytes: int) -> np.ndarray:
    usable = len(data) - len(data) % word_bytes
    dtype = np.uint32 if word_bytes == _SYMBOL_BYTES else np.uint64
    if usable == 0:
        return np.zeros(0, dtype=dtype)
    return np.frombuffer(data[:usable], dtype=dtype)


def _value_counts(words: np.ndarray) -> np.ndarray:
    """Run length of each distinct value of ``words``, ascending by value.

    The same array ``np.unique(words, return_counts=True)`` returns as
    its counts, read off the change points of one plain sort.
    """
    if words.size == 0:
        return np.zeros(0, dtype=np.intp)
    ordered = np.sort(words)
    change = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    return np.diff(np.concatenate(([0], change, [ordered.size])))


def _duplication_fraction(distinct: int, size: int) -> float:
    """Fraction of ``size`` words that repeat a value already seen."""
    return 1.0 - distinct / size if size else 0.0


def analyze_batch(data: bytes) -> BatchStatistics:
    """Compute :class:`BatchStatistics` for a batch of raw stream bytes."""
    symbols = _as_words(data, _SYMBOL_BYTES)
    vocabularies = _as_words(data, _VOCABULARY_BYTES)

    symbol_counts = _value_counts(symbols)
    if symbols.size:
        # Significant bits per symbol; zero needs one bit (Algorithm 2).
        clipped = np.maximum(symbols, 1).astype(np.uint64)
        bits = np.floor(np.log2(clipped.astype(np.float64))).astype(np.int64) + 1
        dynamic_range = float(bits.mean())
        probabilities = symbol_counts / symbols.size
        entropy = float(-(probabilities * np.log2(probabilities)).sum())
    else:
        dynamic_range = 0.0
        entropy = 0.0

    return BatchStatistics(
        size_bytes=len(data),
        symbol_count=int(symbols.size),
        symbol_duplication=_duplication_fraction(
            symbol_counts.size, symbols.size
        ),
        vocabulary_duplication=_duplication_fraction(
            _value_counts(vocabularies).size, vocabularies.size
        ),
        dynamic_range_bits=dynamic_range,
        symbol_entropy_bits=entropy,
    )
