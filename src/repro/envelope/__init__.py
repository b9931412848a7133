"""Versioned proof envelope: the consumer-facing proof format.

A :class:`ProofEnvelope` packages everything a verifier needs to check a
proof — schema id, commitment scheme, model name, verifying-key hash,
proving-config digest, public inputs, proof bytes — in one canonical,
checksummed byte string (``zkml-proof-envelope/v2``).  The decoder is
adversary-facing: every count and size is capped *before* any allocation
or field arithmetic, and every rejection is a typed
:class:`~repro.resilience.errors.EnvelopeError` subclass.  The verifier
then holds the proof length and instance shape to the verifying key's
before it parses the proof.

See ``docs/verification.md`` for the wire format and threat model.
"""

from repro.envelope.format import (
    SCHEMA_V2,
    ProofEnvelope,
    decode_envelope,
    encode_envelope,
    envelope_config_digest,
    is_envelope,
)
from repro.envelope.verify import verify_envelope

__all__ = [
    "SCHEMA_V2",
    "ProofEnvelope",
    "encode_envelope",
    "decode_envelope",
    "envelope_config_digest",
    "is_envelope",
    "verify_envelope",
]
