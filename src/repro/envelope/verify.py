"""Verify a decoded envelope against a verifying key.

The decoder (:mod:`repro.envelope.format`) already did the cheap
adversarial filtering under fixed ceilings; this module does the binding
checks (does the envelope's vk hash / scheme match the key we were
handed?), then holds the proof length and instance shape to the key's
exact ones, and only then parses the proof and hands off to the strict
proof verifier — the first point where field arithmetic happens.
"""

from __future__ import annotations

from repro.envelope.format import ProofEnvelope
from repro.resilience.errors import ProofFormatError, VerificationFailure

__all__ = ["verify_envelope"]


def verify_envelope(env: ProofEnvelope, vk) -> bool:
    """Verify an envelope's proof against ``vk``.

    Binding checks come first: the envelope's verifying-key hash must
    equal ``vk.digest()`` and its scheme must equal ``vk.scheme_name`` —
    a mismatch is a
    :class:`~repro.resilience.errors.VerificationFailure` (the envelope
    is well-formed; it just isn't a proof *for this key*).  Then the
    proof must be exactly ``vk.shape.proof_bytes`` long and the instance
    the key's columns of ``n`` rows, or a
    :class:`~repro.resilience.errors.ProofFormatError` names both
    numbers.  Only then do proof deserialization and the strict verifier
    run, over the key's own field (``vk.field``).  Every rejection
    raises; the only value returned is ``True``.
    """
    from repro.commit import scheme_by_name
    from repro.halo2.proof import proof_from_bytes
    from repro.halo2.verifier import check_instance_shape, verify_proof_strict

    if env.scheme_name != vk.scheme_name:
        raise VerificationFailure(
            "envelope scheme %r does not match verifying key scheme %r"
            % (env.scheme_name, vk.scheme_name), model=env.model)
    if env.vk_hash != vk.digest():
        raise VerificationFailure(
            "envelope verifying-key hash %s does not match key %s"
            % (env.vk_hash_hex[:16], vk.digest().hex()[:16]),
            model=env.model)
    if len(env.proof_bytes) != vk.shape.proof_bytes:
        raise ProofFormatError(
            "envelope carries a %d-byte proof, the key's proofs are %d bytes"
            % (len(env.proof_bytes), vk.shape.proof_bytes),
            size=len(env.proof_bytes), expected=vk.shape.proof_bytes)
    check_instance_shape(vk, env.instance)
    scheme = scheme_by_name(env.scheme_name, vk.field)
    verify_proof_strict(vk, proof_from_bytes(env.proof_bytes), env.instance,
                        scheme)
    return True
