"""Dataset generators reproduce their traces' statistical profiles."""

import hashlib

import numpy as np
import pytest

from repro.compression.stats import analyze_batch
from repro.datasets import (
    DATASET_NAMES,
    MicroDataset,
    RovioDataset,
    SensorDataset,
    StockDataset,
    get_dataset,
)
from repro.errors import ConfigurationError, DatasetError

SAMPLE_BYTES = 32768


@pytest.fixture(params=DATASET_NAMES)
def dataset(request):
    return get_dataset(request.param)


class TestRegistry:
    def test_all_names_resolve(self):
        for name in DATASET_NAMES:
            assert get_dataset(name).name == name

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            get_dataset("taxi")

    def test_options_forwarded(self):
        dataset = get_dataset("micro", dynamic_range=1234)
        assert dataset.dynamic_range == 1234


class TestCommonContract:
    def test_generates_requested_bytes(self, dataset):
        data = dataset.generate(SAMPLE_BYTES, seed=0)
        expected = SAMPLE_BYTES - SAMPLE_BYTES % dataset.tuple_bytes
        assert len(data) == expected

    def test_deterministic_per_seed(self, dataset):
        assert dataset.generate(4096, seed=5) == dataset.generate(4096, seed=5)

    def test_seeds_differ(self, dataset):
        assert dataset.generate(4096, seed=1) != dataset.generate(4096, seed=2)

    def test_zero_bytes(self, dataset):
        assert dataset.generate(0) == b""

    def test_negative_bytes_rejected(self, dataset):
        with pytest.raises(DatasetError):
            dataset.generate(-1)

    def test_stream_batches(self, dataset):
        batches = list(dataset.stream(4096, 3, seed=0))
        assert len(batches) == 3
        sizes = {len(batch) for batch in batches}
        assert len(sizes) == 1  # uniform batch size

    def test_stream_rejects_sub_tuple_batches(self, dataset):
        with pytest.raises(DatasetError):
            list(dataset.stream(1, 1))

    def test_batches_are_contiguous_stream(self, dataset):
        whole = dataset.generate(8192 - 8192 % dataset.tuple_bytes, seed=3)
        usable = 4096 - 4096 % dataset.tuple_bytes
        parts = list(dataset.stream(4096, 2, seed=3))
        assert b"".join(parts) == whole[: 2 * usable]


class TestSensor:
    def test_ascii_only(self):
        data = SensorDataset().generate(SAMPLE_BYTES, seed=0)
        assert all(byte < 128 for byte in data)

    def test_record_structure(self):
        data = SensorDataset().generate(160, seed=0)
        for offset in range(0, len(data), 16):
            record = data[offset:offset + 16]
            assert record.startswith(b"<s")
            assert record.endswith(b"/>")

    def test_low_symbol_entropy(self):
        stats = analyze_batch(SensorDataset().generate(SAMPLE_BYTES, seed=0))
        assert stats.symbol_entropy_bits < 10

    def test_vocabulary_duplication_from_markup(self):
        stats = analyze_batch(SensorDataset().generate(SAMPLE_BYTES, seed=0))
        assert stats.vocabulary_duplication > 0.3

    def test_fewer_stations_more_duplication(self):
        few = analyze_batch(
            SensorDataset(station_count=2).generate(SAMPLE_BYTES, seed=0)
        )
        many = analyze_batch(
            SensorDataset(station_count=500).generate(SAMPLE_BYTES, seed=0)
        )
        assert few.vocabulary_duplication > many.vocabulary_duplication

    def test_invalid_parameters(self):
        with pytest.raises(DatasetError):
            SensorDataset(station_count=0)
        with pytest.raises(DatasetError):
            SensorDataset(station_count=10_000)
        with pytest.raises(DatasetError):
            SensorDataset(value_walk_step=0)


class TestRovio:
    def test_high_key_duplication(self):
        data = RovioDataset().generate(SAMPLE_BYTES, seed=0)
        keys = np.frombuffer(data, dtype=np.uint64)[0::2]
        assert np.unique(keys).size <= 256

    def test_payloads_high_entropy(self):
        data = RovioDataset().generate(SAMPLE_BYTES, seed=0)
        payloads = np.frombuffer(data, dtype=np.uint64)[1::2]
        assert np.unique(payloads).size > 0.99 * payloads.size

    def test_zipf_concentrates_traffic(self):
        data = RovioDataset(zipf_exponent=2.0).generate(SAMPLE_BYTES, seed=0)
        keys = np.frombuffer(data, dtype=np.uint64)[0::2]
        _, counts = np.unique(keys, return_counts=True)
        # The hottest key dominates under strong skew.
        assert counts.max() > 0.3 * keys.size

    def test_vocabulary_duplication_near_half(self):
        stats = analyze_batch(RovioDataset().generate(SAMPLE_BYTES, seed=0))
        assert 0.3 < stats.vocabulary_duplication < 0.6

    def test_invalid_parameters(self):
        with pytest.raises(DatasetError):
            RovioDataset(key_population=0)
        with pytest.raises(DatasetError):
            RovioDataset(zipf_exponent=0)


class TestStock:
    def test_keys_mostly_unique(self):
        data = StockDataset().generate(SAMPLE_BYTES, seed=0)
        keys = np.frombuffer(data, dtype=np.uint32)[0::2]
        assert np.unique(keys).size > 0.95 * keys.size

    def test_keys_monotone(self):
        data = StockDataset().generate(SAMPLE_BYTES, seed=0)
        keys = np.frombuffer(data, dtype=np.uint32)[0::2]
        assert np.all(np.diff(keys.astype(np.int64)) > 0)

    def test_prices_near_base(self):
        dataset = StockDataset(base_price=1_000_000, price_step=10)
        data = dataset.generate(SAMPLE_BYTES, seed=0)
        prices = np.frombuffer(data, dtype=np.uint32)[1::2]
        assert abs(int(prices.mean()) - 1_000_000) < 50_000

    def test_lower_duplication_than_rovio(self):
        stock = analyze_batch(StockDataset().generate(SAMPLE_BYTES, seed=0))
        rovio = analyze_batch(RovioDataset().generate(SAMPLE_BYTES, seed=0))
        assert stock.vocabulary_duplication < rovio.vocabulary_duplication

    def test_invalid_parameters(self):
        with pytest.raises(DatasetError):
            StockDataset(instrument_count=0)
        with pytest.raises(DatasetError):
            StockDataset(base_price=0)


class TestMicro:
    def test_dynamic_range_respected(self):
        data = MicroDataset(dynamic_range=1000).generate(SAMPLE_BYTES, seed=0)
        values = np.frombuffer(data, dtype=np.uint32)
        assert values.max() < 1000

    def test_dynamic_range_controls_significant_bits(self):
        narrow = analyze_batch(
            MicroDataset(dynamic_range=1 << 8).generate(SAMPLE_BYTES, seed=0)
        )
        wide = analyze_batch(
            MicroDataset(dynamic_range=1 << 24).generate(SAMPLE_BYTES, seed=0)
        )
        assert narrow.dynamic_range_bits < 9
        assert 20 < wide.dynamic_range_bits < 25

    @pytest.mark.parametrize("target", [0.0, 0.3, 0.6, 0.9])
    def test_symbol_duplication_tracks_target(self, target):
        dataset = MicroDataset(
            dynamic_range=1 << 28, symbol_duplication=target
        )
        stats = analyze_batch(dataset.generate(SAMPLE_BYTES, seed=0))
        assert stats.symbol_duplication == pytest.approx(target, abs=0.08)

    @pytest.mark.parametrize("target", [0.0, 0.3, 0.6])
    def test_vocabulary_duplication_tracks_target(self, target):
        dataset = MicroDataset(
            dynamic_range=1 << 28, vocabulary_duplication=target
        )
        stats = analyze_batch(dataset.generate(SAMPLE_BYTES, seed=0))
        assert stats.vocabulary_duplication == pytest.approx(target, abs=0.12)

    def test_duplication_bursts_grow_with_level(self):
        """Higher vocabulary duplication produces longer lz4 matches."""
        from repro.compression import get_codec

        def mean_match(dup):
            data = MicroDataset(
                dynamic_range=1 << 28, vocabulary_duplication=dup
            ).generate(SAMPLE_BYTES, seed=0)
            counters = get_codec("lz4").compress(data).counters
            if counters["matches"] == 0:
                return 0.0
            return counters["matched_bytes"] / counters["matches"]

        assert mean_match(0.9) > mean_match(0.3)

    def test_invalid_parameters(self):
        with pytest.raises(DatasetError):
            MicroDataset(dynamic_range=1)
        with pytest.raises(DatasetError):
            MicroDataset(dynamic_range=1 << 33)
        with pytest.raises(DatasetError):
            MicroDataset(symbol_duplication=1.5)
        with pytest.raises(DatasetError):
            MicroDataset(vocabulary_duplication=-0.1)


class TestGeneratorBytes:
    """The random walks' output bytes are pinned, so a rewrite of a
    generator's loop cannot move any profile built from it. Each digest
    covers seeds 0-2 at sizes 0, 1 and 6144 tuples; the non-default
    parameters make the clip to [0, 99999] and the price floor bind."""

    PINNED = {
        "sensor-default": (
            SensorDataset(),
            "09ba02f2d069c6851e3d5fdd73cd6e9d1a079493aefbbd808f6cca595754c95b",
        ),
        "sensor-clipped": (
            SensorDataset(1, 40000),
            "0a5465edad4e5eb1bb0c69fe4fe7d8e641b7e6b5785a3a6441e7a028a13aaf1f",
        ),
        "sensor-many-stations": (
            SensorDataset(9999, 1),
            "c1d2790f4a8a7bff6e280f1b2ece0f655a54f159446e3526218c1c6ae2afd9a2",
        ),
        "stock-default": (
            StockDataset(),
            "d4bfc19debb5a95f179c56d022ee7272fc58c92a871ad69ae0b7c5fd7f473544",
        ),
        "stock-price-floor": (
            StockDataset(1, 10, 1000),
            "a4e321aa272448bc900ed4251ebd1ef8990131a7f698055aee2846352342829d",
        ),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_generate_tuples_digest(self, case):
        dataset, expected = self.PINNED[case]
        digest = hashlib.sha256()
        for seed in (0, 1, 2):
            for size in (0, 1, 6144):
                digest.update(
                    dataset._generate_tuples(size, np.random.default_rng(seed))
                )
        assert digest.hexdigest() == expected

    def test_walks_reach_their_bounds(self):
        """The pinned non-default cases really exercise the clip and
        the floor."""
        text = SensorDataset(1, 40000)._generate_tuples(
            6144, np.random.default_rng(0)
        ).decode("ascii")
        values = {int(text[i + 9:i + 14]) for i in range(0, len(text), 16)}
        assert 0 in values and 99_999 in values
        payloads = np.frombuffer(
            StockDataset(1, 10, 1000)._generate_tuples(
                6144, np.random.default_rng(0)
            ),
            dtype=np.uint32,
        )[1::2]
        assert payloads.min() == 1
