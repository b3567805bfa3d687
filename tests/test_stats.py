"""Batch statistics used by the cost model and generators."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.stats import analyze_batch, shannon_entropy


class TestShannonEntropy:
    def test_empty(self):
        assert shannon_entropy(Counter()) == 0.0

    def test_single_symbol(self):
        assert shannon_entropy(Counter({"a": 100})) == 0.0

    def test_uniform_two(self):
        assert shannon_entropy(Counter({"a": 5, "b": 5})) == pytest.approx(1.0)

    def test_uniform_n(self):
        counts = Counter({i: 1 for i in range(16)})
        assert shannon_entropy(counts) == pytest.approx(4.0)

    def test_skew_lowers_entropy(self):
        uniform = shannon_entropy(Counter({"a": 50, "b": 50}))
        skewed = shannon_entropy(Counter({"a": 99, "b": 1}))
        assert skewed < uniform


class TestAnalyzeBatch:
    def test_empty_batch(self):
        stats = analyze_batch(b"")
        assert stats.size_bytes == 0
        assert stats.symbol_count == 0
        assert stats.symbol_duplication == 0.0

    def test_symbol_count(self):
        stats = analyze_batch(b"\x00" * 64)
        assert stats.symbol_count == 16

    def test_all_identical_symbols(self):
        data = np.full(100, 7, dtype=np.uint32).tobytes()
        stats = analyze_batch(data)
        assert stats.symbol_duplication == pytest.approx(0.99)

    def test_all_unique_symbols(self):
        data = np.arange(100, dtype=np.uint32).tobytes()
        stats = analyze_batch(data)
        assert stats.symbol_duplication == 0.0

    def test_dynamic_range_of_zero_words(self):
        data = np.zeros(10, dtype=np.uint32).tobytes()
        stats = analyze_batch(data)
        assert stats.dynamic_range_bits == pytest.approx(1.0)

    def test_dynamic_range_of_max_words(self):
        data = np.full(10, 0xFFFFFFFF, dtype=np.uint32).tobytes()
        stats = analyze_batch(data)
        assert stats.dynamic_range_bits == pytest.approx(32.0)

    def test_entropy_bounded_by_log_count(self):
        data = np.arange(64, dtype=np.uint32).tobytes()
        stats = analyze_batch(data)
        assert stats.symbol_entropy_bits == pytest.approx(6.0)

    def test_vocabulary_duplication_independent_of_symbols(self):
        # Pairs (1,2),(3,4),(1,2): symbols repeat AND vocabularies repeat.
        data = np.array([1, 2, 3, 4, 1, 2], dtype=np.uint32).tobytes()
        stats = analyze_batch(data)
        assert stats.vocabulary_duplication == pytest.approx(1 / 3)

    def test_odd_tail_ignored(self):
        # 9 bytes: two symbols + 1 dangling byte.
        stats = analyze_batch(b"\x01\x00\x00\x00\x02\x00\x00\x00\xff")
        assert stats.symbol_count == 2

    @given(st.binary(min_size=4, max_size=512))
    @settings(max_examples=50, deadline=None)
    def test_invariants(self, data):
        stats = analyze_batch(data)
        assert 0.0 <= stats.symbol_duplication <= 1.0
        assert 0.0 <= stats.vocabulary_duplication <= 1.0
        assert 0.0 <= stats.dynamic_range_bits <= 32.0
        assert stats.symbol_entropy_bits >= 0.0
        assert stats.size_bytes == len(data)


def _reference_statistics(data):
    """analyze_batch as written on ``np.unique``, the parity oracle."""
    symbols = np.frombuffer(data[: len(data) - len(data) % 4], dtype=np.uint32)
    vocabularies = np.frombuffer(
        data[: len(data) - len(data) % 8], dtype=np.uint64
    )

    def duplication(words):
        if words.size == 0:
            return 0.0
        return 1.0 - np.unique(words).size / words.size

    if symbols.size:
        clipped = np.maximum(symbols, 1).astype(np.uint64)
        bits = np.floor(np.log2(clipped.astype(np.float64))).astype(np.int64) + 1
        dynamic_range = float(bits.mean())
        _, counts = np.unique(symbols, return_counts=True)
        probabilities = counts / symbols.size
        entropy = float(-(probabilities * np.log2(probabilities)).sum())
    else:
        dynamic_range = 0.0
        entropy = 0.0
    return (
        len(data),
        int(symbols.size),
        duplication(symbols),
        duplication(vocabularies),
        dynamic_range,
        entropy,
    )


def _fields(stats):
    return (
        stats.size_bytes,
        stats.symbol_count,
        stats.symbol_duplication,
        stats.vocabulary_duplication,
        stats.dynamic_range_bits,
        stats.symbol_entropy_bits,
    )


class TestAnalyzeBatchParity:
    """Every field equals the np.unique reference exactly, not approx."""

    @given(
        st.lists(
            st.one_of(
                st.integers(0, 7),
                st.integers(0, 0xFFFF),
                st.integers(0, 0xFFFFFFFF),
            ),
            max_size=400,
        ),
        st.binary(max_size=7),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_batches(self, words, tail):
        data = np.array(words, dtype=np.uint32).tobytes() + tail
        assert _fields(analyze_batch(data)) == _reference_statistics(data)

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"\x01\x02\x03",
            np.array([0xDEADBEEF], dtype=np.uint32).tobytes(),
            np.full(64, 7, dtype=np.uint32).tobytes(),
            np.full(65, 7, dtype=np.uint32).tobytes(),
            np.arange(3, dtype=np.uint32).tobytes(),
            np.arange(5, dtype=np.uint32).tobytes() + b"\xff\xff",
            np.random.default_rng(3)
            .integers(0, 40, 16387, dtype=np.uint32)
            .tobytes(),
        ],
        ids=[
            "empty", "under-one-word", "one-word", "all-equal",
            "all-equal-odd-count", "12-bytes", "22-bytes", "16387-words",
        ],
    )
    def test_edge_batches(self, data):
        assert _fields(analyze_batch(data)) == _reference_statistics(data)
