"""Stock-profile dataset: exchange ticks with low key duplication.

The paper's Stock trace (Shanghai Stock Exchange) is packed as
``(32-bit key, 32-bit payload)`` binary tuples. Unlike Rovio, its key
duplication is much lower: order/trade identifiers are mostly unique.
Payloads are prices following a bounded random walk, so their dynamic
range is moderate and nearby payloads correlate without duplicating.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import Dataset
from repro.errors import DatasetError

__all__ = ["StockDataset"]


class StockDataset(Dataset):
    """Synthetic stand-in for the Shanghai Stock Exchange trace.

    Parameters
    ----------
    instrument_count:
        Number of instruments whose prices random-walk independently.
    base_price, price_step:
        Random-walk parameters (prices stored as integer cents).
    """

    name = "stock"
    tuple_bytes = 8  # 32-bit key + 32-bit payload

    def __init__(
        self,
        instrument_count: int = 64,
        base_price: int = 2_500_000,
        price_step: int = 500,
    ) -> None:
        if instrument_count < 1:
            raise DatasetError("instrument_count must be positive")
        if base_price <= 0 or price_step <= 0:
            raise DatasetError("base_price and price_step must be positive")
        self.instrument_count = instrument_count
        self.base_price = base_price
        self.price_step = price_step

    def _generate_tuples(self, tuple_count: int, rng: np.random.Generator) -> bytes:
        if tuple_count == 0:
            return b""
        # Keys: monotonically increasing order ids with random gaps —
        # essentially unique, giving the trace's low key duplication.
        gaps = rng.integers(1, 8, size=tuple_count, dtype=np.uint32)
        keys = (np.cumsum(gaps, dtype=np.uint64) + (1 << 20)).astype(np.uint32)
        # Payloads: per-instrument price random walks, interleaved.
        instruments = rng.integers(
            0, self.instrument_count, size=tuple_count
        ).tolist()
        steps = rng.integers(
            -self.price_step, self.price_step + 1, size=tuple_count
        ).tolist()
        prices = [self.base_price] * self.instrument_count
        payloads = []
        for instrument, step in zip(instruments, steps):
            price = max(1, prices[instrument] + step)
            prices[instrument] = price
            payloads.append(price & 0xFFFFFFFF)
        tuples = np.empty(tuple_count * 2, dtype=np.uint32)
        tuples[0::2] = keys
        tuples[1::2] = np.array(payloads, dtype=np.uint32)
        return tuples.tobytes()
