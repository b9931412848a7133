"""Resilience subsystem: typed errors, fault injection, supervised runs.

This package makes the proving pipeline survivable: a typed exception
taxonomy (:mod:`~repro.resilience.errors`), visible recovery counters
(:mod:`~repro.resilience.events`), deterministic fault injection
(:mod:`~repro.resilience.faults`), a supervised phase runner with
retries/deadlines/degradation (:mod:`~repro.resilience.supervisor`),
stage checkpointing (:mod:`~repro.resilience.checkpoint`), and a
proof-mutation fuzzer (:mod:`~repro.resilience.fuzz`).

Only the leaf modules (errors / events / faults) are imported eagerly:
they are referenced from hot modules like ``repro.field.domain`` and
must not pull the circuit stack into the import graph.  Import
``repro.resilience.supervisor`` / ``checkpoint`` / ``fuzz`` explicitly.
"""

from repro.resilience import events, faults
from repro.resilience.errors import (
    CacheCorruptionError,
    CheckpointError,
    DeadlineExceeded,
    FreivaldsCheckError,
    LayoutError,
    ProofFormatError,
    ProvingError,
    QuantizationRangeError,
    ResilienceError,
    ServiceError,
    ServiceOverloadedError,
    ServiceShutdownError,
    SpecError,
    UnknownNameError,
    VerificationFailure,
)

__all__ = [
    "CacheCorruptionError",
    "CheckpointError",
    "DeadlineExceeded",
    "FreivaldsCheckError",
    "LayoutError",
    "ProofFormatError",
    "ProvingError",
    "QuantizationRangeError",
    "ResilienceError",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceShutdownError",
    "SpecError",
    "UnknownNameError",
    "VerificationFailure",
    "events",
    "faults",
]
