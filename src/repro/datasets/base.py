"""Dataset abstraction for stream workloads.

The paper evaluates on three real traces (Sensor, Rovio, Stock) and one
synthetic dataset (Micro). The traces are not redistributable, so each
dataset here is a seeded generator that reproduces the trace's *published
statistical profile* — tuple layout, duplication levels, entropy — which
is all the evaluation depends on (see DESIGN.md's substitution table).

A dataset produces an endless logical stream; :meth:`Dataset.generate`
materializes a prefix and :meth:`Dataset.stream` slices it into batches
(the paper's Definition 1 compresses batch by batch).
"""

from __future__ import annotations

import abc
from typing import Iterator

import numpy as np

from repro.errors import DatasetError

__all__ = ["Dataset"]


class Dataset(abc.ABC):
    """A reproducible stream-data generator."""

    #: registry name, e.g. ``"rovio"``
    name: str = ""
    #: size of one logical tuple in bytes
    tuple_bytes: int = 4

    @abc.abstractmethod
    def _generate_tuples(self, tuple_count: int, rng: np.random.Generator) -> bytes:
        """Produce ``tuple_count`` tuples' worth of raw bytes."""

    def generate(self, total_bytes: int, seed: int = 0) -> bytes:
        """Materialize ``total_bytes`` of stream data (rounded down to a
        whole number of tuples)."""
        if total_bytes < 0:
            raise DatasetError(f"total_bytes must be non-negative, got {total_bytes}")
        tuple_count = total_bytes // self.tuple_bytes
        rng = np.random.default_rng(seed)
        data = self._generate_tuples(tuple_count, rng)
        expected = tuple_count * self.tuple_bytes
        if len(data) != expected:
            raise DatasetError(
                f"{self.name} generator produced {len(data)} bytes, "
                f"expected {expected}"
            )
        return data

    def stream(
        self, batch_size: int, batch_count: int, seed: int = 0
    ) -> Iterator[bytes]:
        """Yield ``batch_count`` batches of ``batch_size`` bytes each.

        Batch sizes are rounded down to a whole number of tuples so every
        batch splits cleanly into 32-bit symbols.
        """
        if batch_size < self.tuple_bytes:
            raise DatasetError(
                f"batch_size {batch_size} smaller than one {self.name} tuple "
                f"({self.tuple_bytes} bytes)"
            )
        usable = batch_size - batch_size % self.tuple_bytes
        data = self.generate(usable * batch_count, seed=seed)
        for index in range(batch_count):
            yield data[index * usable:(index + 1) * usable]
