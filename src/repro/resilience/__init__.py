"""Resilience subsystem: typed errors and recovery counters.

This package is a typed exception taxonomy
(:mod:`~repro.resilience.errors`) and the visible recovery counters
(:mod:`~repro.resilience.events`).  Both are leaf modules: hot modules
import them without pulling the circuit stack into the import graph.
"""

from repro.resilience import events
from repro.resilience.errors import (
    CacheCorruptionError,
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
]
