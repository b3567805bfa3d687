"""Codec framework: steps, cost reports, and the compressor interface.

The paper decomposes every stream-compression algorithm into *steps*
(Algorithms 1 and 3): a stateless codec has ``s0`` read, ``s1`` encode and
``s2`` write; a stateful codec has ``s0`` read, ``s1`` pre-process, ``s2``
state update, ``s3`` state-based encoding and ``s4`` write. CStream's
fine-grained decomposition (§IV) turns these steps into schedulable tasks,
so each codec here must report, *per step*, how much work it did on a
batch: virtual instruction count, memory accesses (their ratio is the
operational intensity κ), and the number of bytes forwarded to the next
step (which prices inter-task communication, Eq 7).

The compression itself is real — codecs produce actual compressed bytes
and must round-trip through their decoder. Only the instruction/memory
accounting is a calibrated analytic model (see DESIGN.md): each codec maps
counters gathered during real execution (dictionary hits, match lengths,
emitted bits, ...) to instruction and access counts.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import CompressionError

__all__ = [
    "StepRole",
    "StepSpec",
    "StepCost",
    "CompressionResult",
    "StreamCompressor",
    "StatelessCompressor",
    "StatefulCompressor",
]


class StepRole(enum.Enum):
    """What a step does; drives the decomposer's fusion heuristics."""

    READ = "read"
    PREPROCESS = "preprocess"
    STATE_UPDATE = "state_update"
    ENCODE = "encode"
    WRITE = "write"


@dataclass(frozen=True)
class StepSpec:
    """Static description of one step of a compression procedure.

    Attributes
    ----------
    step_id:
        The paper's step label (``"s0"`` ... ``"s4"``).
    role:
        Coarse classification of the step's function.
    description:
        Human-readable summary, used in plan dumps and bench output.
    """

    step_id: str
    role: StepRole
    description: str


@dataclass(frozen=True)
class StepCost:
    """Work performed by one step while compressing one batch.

    ``instructions`` and ``memory_accesses`` are *virtual* counts produced
    by the codec's calibrated cost model; their ratio is the operational
    intensity κ that the roofline model consumes. ``output_bytes`` is the
    volume handed to the next step (or the final compressed size for the
    last step), which prices communication when the steps land on
    different cores.
    """

    instructions: float
    memory_accesses: float
    input_bytes: int
    output_bytes: int

    def __post_init__(self) -> None:
        if self.instructions < 0 or self.memory_accesses < 0:
            raise ValueError("step costs must be non-negative")

    @property
    def operational_intensity(self) -> float:
        """Instructions per memory access (κ). Infinite-κ steps are capped
        by returning instructions when there are no accesses at all."""
        if self.memory_accesses <= 0:
            return self.instructions
        return self.instructions / self.memory_accesses

    @staticmethod
    def merged(costs: Sequence["StepCost"]) -> "StepCost":
        """Cost of a fused task running the given steps back to back.

        Instructions and accesses add; the fused task reads the first
        step's input and forwards the last step's output.
        """
        if not costs:
            raise ValueError("cannot merge an empty cost sequence")
        return StepCost(
            instructions=sum(c.instructions for c in costs),
            memory_accesses=sum(c.memory_accesses for c in costs),
            input_bytes=costs[0].input_bytes,
            output_bytes=costs[-1].output_bytes,
        )


class CompressionResult:
    """Everything a codec produced while compressing one batch.

    ``output_size`` is the payload's length in bytes, which the codec
    supplies. ``payload`` is passed either as the bytes themselves or as
    a zero-argument packer that builds them on first read. A dry run
    (§V-B profiling) reads the step costs and sizes only, so it never
    packs a bit. Packed bytes that do not measure ``output_size`` raise
    :class:`~repro.errors.CompressionError`.
    """

    def __init__(
        self,
        payload: Union[bytes, Callable[[], bytes]],
        input_size: int,
        step_costs: Dict[str, StepCost],
        counters: Optional[Dict[str, float]] = None,
        output_size: Optional[int] = None,
    ) -> None:
        if callable(payload):
            if output_size is None:
                raise CompressionError("a packed payload needs its output_size")
            self._packer: Optional[Callable[[], bytes]] = payload
            self._payload: Optional[bytes] = None
        else:
            self._packer, self._payload = None, payload
            if output_size is None:
                output_size = len(payload)
            self._check(payload, output_size)
        self.output_size = output_size
        self.input_size = input_size
        self.step_costs = step_costs
        self.counters = {} if counters is None else counters

    @staticmethod
    def _check(payload: bytes, output_size: int) -> None:
        if len(payload) != output_size:
            raise CompressionError(
                f"codec packed {len(payload)} bytes but reported "
                f"{output_size}"
            )

    @property
    def payload(self) -> bytes:
        """The compressed bytes, packed on first read."""
        if self._payload is None:
            payload = self._packer()
            self._check(payload, self.output_size)
            self._payload, self._packer = payload, None
        return self._payload

    @property
    def compression_ratio(self) -> float:
        """Input bytes per output byte (>1 means the data shrank)."""
        if self.output_size == 0:
            return float("inf")
        return self.input_size / self.output_size


class StreamCompressor(abc.ABC):
    """Interface every stream-compression algorithm implements.

    Implementations must be deterministic: compressing the same batch
    twice (after :meth:`reset`) yields identical payloads and costs. A
    compressor instance owns its state (dictionary, window, ...); use
    :meth:`reset` between independent streams.
    """

    #: codec registry name, e.g. ``"tcomp32"``
    name: str = ""
    #: whether the algorithm keeps cross-tuple state (Algorithm 3)
    stateful: bool = False

    @abc.abstractmethod
    def steps(self) -> Tuple[StepSpec, ...]:
        """The ordered step decomposition of this algorithm."""

    @abc.abstractmethod
    def compress(self, data: bytes) -> CompressionResult:
        """Compress one batch, returning payload plus per-step costs."""

    @abc.abstractmethod
    def decompress(self, payload: bytes) -> bytes:
        """Invert :meth:`compress` exactly."""

    def reset(self) -> None:
        """Drop any accumulated state. Default: stateless no-op."""

    def step_ids(self) -> Tuple[str, ...]:
        return tuple(spec.step_id for spec in self.steps())

    def step_dependencies(self) -> Mapping[str, Tuple[str, ...]]:
        """The codec's step DAG: each step id mapped to the step ids it
        consumes data from (empty tuple for source steps).

        Default: the paper's linear chain — every step depends on the
        step before it in :meth:`steps` order. DAG codecs (fork/join
        decompression, per-channel fan-out) override this; the mapping
        must be topologically consistent with :meth:`steps` order (a
        step may only depend on steps listed *earlier*), keys must be
        exactly :meth:`step_ids`, and the last step must be the unique
        sink so fused task graphs keep a single output stage.
        """
        ids = self.step_ids()
        return {
            step_id: (() if index == 0 else (ids[index - 1],))
            for index, step_id in enumerate(ids)
        }


class StatelessCompressor(StreamCompressor):
    """Template for Algorithm 1: read (s0), encode (s1), write (s2)."""

    stateful = False

    _STEPS = (
        StepSpec("s0", StepRole.READ, "read tuples from the input stream"),
        StepSpec("s1", StepRole.ENCODE, "find compressible parts"),
        StepSpec("s2", StepRole.WRITE, "write compressed data"),
    )

    def steps(self) -> Tuple[StepSpec, ...]:
        return self._STEPS


class StatefulCompressor(StreamCompressor):
    """Template for Algorithm 3: read, pre-process, state update,
    state-based encode, write (s0..s4)."""

    stateful = True

    _STEPS = (
        StepSpec("s0", StepRole.READ, "read tuples from the input stream"),
        StepSpec("s1", StepRole.PREPROCESS, "pre-process values (e.g. hash)"),
        StepSpec("s2", StepRole.STATE_UPDATE, "update the in-memory state"),
        StepSpec("s3", StepRole.ENCODE, "encode by state reference"),
        StepSpec("s4", StepRole.WRITE, "write compressed data"),
    )

    def steps(self) -> Tuple[StepSpec, ...]:
        return self._STEPS
