"""Exception hierarchy for the CStream reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one base class to handle any library failure.
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class CompressionError(ReproError):
    """A codec failed to compress or decompress a payload."""


class CorruptStreamError(CompressionError):
    """A compressed stream could not be decoded (truncated or corrupt)."""


class SchedulingError(ReproError):
    """The scheduler could not produce a plan for the given constraints."""


class InfeasiblePlanError(SchedulingError):
    """No scheduling plan satisfies the latency constraint with the
    available hardware resources."""


class InvariantViolationError(SchedulingError):
    """A scheduling plan (or trace stream) violated a structural
    invariant checked by :mod:`repro.analysis.verify` — e.g. a cyclic
    dependency graph, an unknown core id, or missing codec steps. The
    message lists every failing finding with its invariant code."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class ProfilingError(ReproError):
    """Dry-run profiling failed to produce usable cost samples."""


class DatasetError(ReproError):
    """A dataset generator received invalid parameters."""


class ConfigurationError(ReproError):
    """A component was configured with invalid or inconsistent options."""


class ArtifactError(ReproError):
    """A trace or health file is not UTF-8 text, or neither one JSON
    document nor an NDJSON stream of records.

    The message names the file; :attr:`reason` is the rest of it."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.reason = reason
