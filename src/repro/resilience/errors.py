"""Typed exception taxonomy for the proving pipeline.

Every failure the pipeline can surface maps to one class here, so
callers (the pipeline, the CLI, the services) can distinguish
*what* went wrong and *where* without parsing messages:

==========================  ==================================================
class                       raised when
==========================  ==================================================
``SpecError``               a model spec is malformed or references an
                            unknown model/layer
``QuantizationRangeError``  a value cannot be represented in the fixed-point
                            format (overflow, non-finite, bad scale)
``LayoutError``             a circuit layout is infeasible (too few columns,
                            too many rows); ``LayoutInfeasible`` subclasses it
``UnsupportedFieldError``   a circuit, domain or verifying key is over a
                            field other than Goldilocks
``KernelUnavailableError``  the compiled Goldilocks kernel cannot be built,
                            loaded or self-tested (no ``cc`` on the box):
                            nothing can prove or verify
``ProvingError``            the witness cannot satisfy the circuit, or a
                            prover phase failed permanently
``CacheCorruptionError``    a cached artifact (a pk cache entry) fails its
                            checksum or cannot be written
``ProofFormatError``        a serialized proof/artifact violates the wire
                            format (bad magic, truncation, out-of-range)
``EnvelopeError``           a proof envelope is malformed; subtypes name the
                            violation: ``EnvelopeSchemaError`` (wrong schema
                            id / unknown scheme), ``EnvelopeTruncatedError``
                            (data ends mid-field), ``EnvelopeCapError`` (a
                            count or size exceeds its hard DoS cap), and
                            ``EnvelopeChecksumError`` (integrity mismatch)
``VerificationFailure``     a structurally valid proof does not verify
``RegistryError``           the verifying-key registry cannot serve a
                            request; ``UnknownVerifyingKeyError`` (no entry
                            for a vk hash) subclasses it
``DeadlineExceeded``        a verify request overran its deadline
``ServiceError``            the proving service cannot accept or complete a
                            request; ``ServiceOverloadedError`` (queue full,
                            backpressure), ``ServiceShutdownError`` (closed),
                            ``ServiceTimeoutError`` (a live connection's reply
                            overran the client's budget), and
                            ``WorkerCrashError`` (a batch exhausted its
                            re-dispatch budget by killing workers) subclass it
==========================  ==================================================

Each error carries the originating pipeline ``phase`` plus optional
``layer`` / ``region`` attribution (the synthesis region map from
``CircuitBuilder.regions``) and free-form ``context`` key/values; all of
it is rendered into ``str(exc)`` so a bare log line is already useful.
Most classes also subclass ``ValueError`` (or ``KeyError`` for lookup
misses), so pre-taxonomy callers that caught built-ins keep working.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = [
    "ResilienceError",
    "SpecError",
    "UnknownNameError",
    "QuantizationRangeError",
    "LayoutError",
    "UnsupportedFieldError",
    "KernelUnavailableError",
    "ProvingError",
    "CacheCorruptionError",
    "ProofFormatError",
    "EnvelopeError",
    "EnvelopeSchemaError",
    "EnvelopeTruncatedError",
    "EnvelopeCapError",
    "EnvelopeChecksumError",
    "VerificationFailure",
    "RegistryError",
    "UnknownVerifyingKeyError",
    "DeadlineExceeded",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceShutdownError",
    "ServiceTimeoutError",
    "WorkerCrashError",
    "region_at",
]


class ResilienceError(Exception):
    """Base of the taxonomy: a message plus phase/layer/region context."""

    #: Phase attributed when the raise site does not pass one explicitly.
    default_phase = ""

    def __init__(self, message: str, *, phase: Optional[str] = None,
                 layer: Optional[str] = None, region: Optional[str] = None,
                 **context: Any):
        super().__init__(message)
        self.message = message
        self.phase = phase if phase is not None else self.default_phase
        self.layer = layer
        self.region = region
        self.context: Dict[str, Any] = context

    def with_context(self, phase: Optional[str] = None,
                     layer: Optional[str] = None,
                     region: Optional[str] = None,
                     **context: Any) -> "ResilienceError":
        """Fill in attribution blanks (never overwrites existing values)."""
        if phase and not self.phase:
            self.phase = phase
        if layer and self.layer is None:
            self.layer = layer
        if region and self.region is None:
            self.region = region
        for key, value in context.items():
            self.context.setdefault(key, value)
        return self

    def attribution(self) -> Dict[str, Any]:
        """The structured context (for structured log lines)."""
        out: Dict[str, Any] = {"error": type(self).__name__}
        if self.phase:
            out["phase"] = self.phase
        if self.layer is not None:
            out["layer"] = self.layer
        if self.region is not None:
            out["region"] = self.region
        out.update(self.context)
        return out

    def __str__(self) -> str:
        parts = []
        if self.phase:
            parts.append("phase=%s" % self.phase)
        if self.layer is not None:
            parts.append("layer=%s" % self.layer)
        if self.region is not None:
            parts.append("region=%s" % self.region)
        parts.extend("%s=%s" % (k, v) for k, v in self.context.items())
        if parts:
            return "%s [%s]" % (self.message, " ".join(parts))
        return self.message


class SpecError(ResilienceError, ValueError):
    """The model spec is malformed (bad graph, missing inputs/outputs)."""

    default_phase = "spec"


class UnknownNameError(SpecError, KeyError):
    """A lookup by name missed (unknown model, layer kind, gadget)."""


class QuantizationRangeError(ResilienceError, ValueError):
    """A value cannot be represented in the fixed-point format."""

    default_phase = "quantize"


class LayoutError(ResilienceError, ValueError):
    """A circuit layout is invalid or infeasible for the given grid."""

    default_phase = "layout"


class UnsupportedFieldError(ResilienceError, ValueError):
    """The field is not Goldilocks, the only one the kernels reduce in."""


class KernelUnavailableError(ResilienceError):
    """The compiled Goldilocks kernel (``field/gl64_native.c``) could not be
    built, loaded or self-tested; the message says which, and why."""

    default_phase = "kernel"


class ProvingError(ResilienceError, ValueError):
    """The witness cannot satisfy the circuit, or proving failed."""

    default_phase = "prove"


class CacheCorruptionError(ResilienceError, ValueError):
    """A cached artifact failed its integrity checksum."""

    default_phase = "keygen"


class ProofFormatError(ResilienceError, ValueError):
    """A serialized proof or artifact violates the wire format."""

    default_phase = "verify"


class EnvelopeError(ProofFormatError):
    """A proof envelope is malformed.

    Base of the envelope rejection taxonomy; subclasses name the exact
    violation so the verify service can count rejections by cause.
    Subclasses ``ProofFormatError`` (hence ``ValueError``), so callers
    that already catch format errors reject envelopes too.
    """

    default_phase = "envelope"


class EnvelopeSchemaError(EnvelopeError):
    """The schema id or scheme name is not one this decoder speaks."""


class EnvelopeTruncatedError(EnvelopeError):
    """The envelope ends mid-field — bytes promised by a length prefix
    or fixed-width slot are missing."""


class EnvelopeCapError(EnvelopeError):
    """A declared count or size exceeds its hard DoS cap.

    Raised *before* any allocation sized by the offending value, so a
    hostile envelope cannot make the decoder do work proportional to a
    number the attacker wrote.
    """


class EnvelopeChecksumError(EnvelopeError):
    """The trailing integrity checksum does not match the payload."""


class VerificationFailure(ResilienceError):
    """A well-formed proof was rejected by the verifier."""

    default_phase = "verify"


class RegistryError(ResilienceError, ValueError):
    """The verifying-key registry cannot serve a request."""

    default_phase = "registry"


class UnknownVerifyingKeyError(RegistryError, KeyError):
    """No registry entry exists for the requested verifying-key hash."""


class DeadlineExceeded(ResilienceError):
    """A request overran its wall-clock deadline."""


class ServiceError(ResilienceError):
    """The proving service could not accept or complete a request."""

    default_phase = "serve"


class ServiceOverloadedError(ServiceError):
    """The bounded request queue is full — backpressure, try again later."""


class ServiceShutdownError(ServiceError):
    """The service is shut down and no longer accepts requests."""


class ServiceTimeoutError(ServiceError):
    """A client-side wait on the service overran its budget mid-exchange.

    Distinct from the silent-close edge (the peer vanished) — here the
    connection is alive but the reply did not finish arriving in time.
    """


class WorkerCrashError(ServiceError):
    """A prover worker process died and its batch exhausted re-dispatch.

    A single crash is recovered transparently (the in-flight batch is
    re-dispatched to another worker); this surfaces only when the same
    batch kills every worker it touches — a poison batch."""


def region_at(regions: List[Any], row: int) -> Optional[Any]:
    """The innermost synthesis region covering ``row``.

    ``regions`` is ``CircuitBuilder.regions`` (ordered outer-first; inner
    regions appear later), so the *last* region containing the row is the
    most specific attribution — the same rule ``repro.halo2.mock`` uses.
    Returns the :class:`~repro.gadgets.builder.Region` (or ``None``).
    """
    best = None
    for region in regions:
        if region.start <= row < region.end:
            best = region
    return best
