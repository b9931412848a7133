"""Proof-mutation fuzzing: mutated proofs must be *cleanly* rejected.

Starting from a known-good ``(vk, proof, instance, scheme)`` tuple, each
iteration applies a seeded random mutation to the serialized proof bytes
(bit flip, truncation, insertion, range zeroing) — or tampers with the
public inputs — and asserts the hardened verifier rejects it with a
typed error:

- :class:`~repro.resilience.errors.ProofFormatError` when the mutation
  breaks the wire format (deserialization or shape validation), or
- :class:`~repro.resilience.errors.VerificationFailure` when the
  mutated proof parses but fails verification.

Any *other* exception is an **escape** — an unhandled crash path in the
verifier — and any mutation that still verifies is an **acceptance**
(soundness alarm).  Both fail :attr:`FuzzReport.ok`.  The tier-1 tests
import these loops from here (``from tests.fuzz import ...``).

:func:`run_envelope_fuzz` is the same discipline one trust layer up: it
mutates serialized **proof envelopes** (truncation, byte flips,
checksum tamper, schema-id confusion, count-cap overflow with a *fixed-
up* checksum, and well-formed instance tampering) and asserts whatever
verification surface it is pointed at — the in-process decoder or a
live ``zkml verify-serve`` socket — rejects every mutant with a typed
error and accepts none.  The checksum-fixup mutations matter: a hostile
sender can always compute a valid checksum over a malicious body, so
the caps must reject before the checksum ever gets a vote.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Tuple

from repro.halo2.proof import proof_from_bytes, proof_to_bytes
from repro.halo2.verifier import verify_proof_strict
from repro.resilience.errors import ProofFormatError, VerificationFailure

__all__ = ["FuzzReport", "run_proof_fuzz", "run_envelope_fuzz",
           "local_envelope_checker", "OFF_KEY_SHAPES", "spy_proof_parsing"]


@dataclass
class FuzzReport:
    """Outcome of one fuzzing session."""

    iterations: int = 0
    rejected_format: int = 0
    rejected_verify: int = 0
    #: Mutations the verifier still accepted (soundness alarm).
    accepted: List[str] = field(default_factory=list)
    #: Mutations that crashed with an untyped exception.
    escapes: List[Tuple[str, str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.accepted and not self.escapes

    def summary(self) -> str:
        line = ("%d mutations: %d rejected as malformed, %d rejected by "
                "verification, %d accepted, %d escaped"
                % (self.iterations, self.rejected_format,
                   self.rejected_verify, len(self.accepted),
                   len(self.escapes)))
        for what, exc_type, msg in self.escapes[:5]:
            line += "\n  ESCAPE %s: %s: %s" % (what, exc_type, msg)
        for what in self.accepted[:5]:
            line += "\n  ACCEPTED %s" % what
        return line


def _mutate(data: bytes, rng: random.Random) -> Tuple[bytes, str]:
    """One random mutation of a byte string; never returns it unchanged."""
    kind = rng.randrange(4)
    if kind == 0:  # flip one byte (guaranteed different)
        pos = rng.randrange(len(data))
        delta = rng.randrange(1, 256)
        out = bytearray(data)
        out[pos] ^= delta
        return bytes(out), "flip@%d^%02x" % (pos, delta)
    if kind == 1:  # truncate
        pos = rng.randrange(len(data))
        return data[:pos], "truncate@%d" % pos
    if kind == 2:  # insert junk
        pos = rng.randrange(len(data) + 1)
        junk = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 9)))
        return data[:pos] + junk + data[pos:], "insert@%d+%d" % (pos, len(junk))
    # zero a range (skip if it is already all zeros)
    pos = rng.randrange(len(data))
    length = min(rng.randrange(1, 65), len(data) - pos)
    if data[pos:pos + length] == b"\x00" * length:
        out = bytearray(data)
        out[pos] ^= 0xFF
        return bytes(out), "flip@%d^ff" % pos
    return (data[:pos] + b"\x00" * length + data[pos + length:],
            "zero@%d+%d" % (pos, length))


def _tamper_instance(instance, rng: random.Random, modulus: int):
    """Flip one public-input value (a well-formed but wrong instance;
    values wrap at ``modulus`` so they still fit the wire width)."""
    tampered = [list(col) for col in instance]
    candidates = [(i, j) for i, col in enumerate(tampered)
                  for j, v in enumerate(col) if v]
    if not candidates:
        candidates = [(0, 0)]
    i, j = candidates[rng.randrange(len(candidates))]
    tampered[i][j] = (int(tampered[i][j]) + 1 + rng.randrange(7)) % modulus
    return tampered, "instance[%d][%d]" % (i, j)


def run_proof_fuzz(vk, proof, instance, scheme, iterations: int = 200,
                   seed: int = 0) -> FuzzReport:
    """Mutate the proof ``iterations`` times; every mutant must be
    rejected with ``ProofFormatError`` or ``VerificationFailure``."""
    rng = random.Random(seed)
    baseline = proof_to_bytes(proof)
    report = FuzzReport()
    for i in range(iterations):
        if i % 10 == 9:
            mutated_bytes, what = baseline, None
            test_instance, tag = _tamper_instance(instance, rng, vk.field.p)
            what = "tamper:%s" % tag
        else:
            mutated_bytes, what = _mutate(baseline, rng)
            test_instance = instance
        report.iterations += 1
        try:
            mutant = proof_from_bytes(mutated_bytes)
        except ProofFormatError:
            report.rejected_format += 1
            continue
        except Exception as exc:  # noqa: BLE001 — parse crash: an escape
            report.escapes.append((what, type(exc).__name__, str(exc)[:120]))
            continue
        try:
            verify_proof_strict(vk, mutant, test_instance, scheme)
        except ProofFormatError:
            report.rejected_format += 1
        except VerificationFailure:
            report.rejected_verify += 1
        except Exception as exc:  # noqa: BLE001 — verifier crash: an escape
            report.escapes.append((what, type(exc).__name__, str(exc)[:120]))
        else:
            report.accepted.append(what)
    return report


# -- envelope-level fuzzing ---------------------------------------------------

#: Error class names counted as "rejected as malformed" by the envelope
#: fuzz loop (the decoder taxonomy plus the registry's lookup misses —
#: a mutated vk hash legitimately lands on an unknown key).
_FORMAT_REJECTIONS = frozenset({
    "EnvelopeError", "EnvelopeSchemaError", "EnvelopeTruncatedError",
    "EnvelopeCapError", "EnvelopeChecksumError", "ProofFormatError",
    "UnknownVerifyingKeyError", "RegistryError",
})

_CHECKSUM_BYTES = 16


def _fix_checksum(body: bytes) -> bytes:
    """Re-stamp a mutated envelope body with a *valid* trailing checksum
    — the adversarial shape: integrity passes, content is hostile."""
    return body + hashlib.blake2b(body,
                                  digest_size=_CHECKSUM_BYTES).digest()


def _mutate_envelope(data: bytes, rng: random.Random,
                     counts_offset: int) -> Tuple[bytes, str]:
    """One seeded envelope mutation; ``counts_offset`` is the byte
    offset of the instance-column-count field (header sizes vary with
    the model name, so the caller measures it once)."""
    kind = rng.randrange(6)
    if kind == 0:  # truncation
        pos = rng.randrange(len(data))
        return data[:pos], "truncate@%d" % pos
    if kind == 1:  # random byte flip (body or checksum)
        pos = rng.randrange(len(data))
        delta = rng.randrange(1, 256)
        out = bytearray(data)
        out[pos] ^= delta
        return bytes(out), "flip@%d^%02x" % (pos, delta)
    if kind == 2:  # checksum tamper: flip inside the trailing digest
        pos = len(data) - 1 - rng.randrange(_CHECKSUM_BYTES)
        out = bytearray(data)
        out[pos] ^= rng.randrange(1, 256)
        return bytes(out), "checksum-tamper@%d" % pos
    if kind == 3:  # schema-id confusion, checksum fixed up to be valid
        out = bytearray(data[: len(data) - _CHECKSUM_BYTES])
        # the schema string is bytes 1..out[0]; change its version digit
        digit = out[0]
        out[digit] = rng.choice(
            [d for d in b"0123456789" if d != out[digit]])
        return _fix_checksum(bytes(out)), "schema-confusion"
    if kind == 4:  # count-cap overflow: forge a huge count, valid checksum
        out = bytearray(data[: len(data) - _CHECKSUM_BYTES])
        forged = (1 << 31) | rng.randrange(1 << 30)
        out[counts_offset : counts_offset + 4] = forged.to_bytes(4, "little")
        return _fix_checksum(bytes(out)), "count-overflow=%d" % forged
    # flip a byte in the body, checksum fixed up: the envelope layer
    # passes and the *verification* layer must reject.  Flips land only
    # in regions the proof statement binds (vk hash, instance values,
    # proof bytes) — the model-name/config-digest metadata is bound by
    # the registry cross-check, which the in-process checker lacks.
    out = bytearray(data[: len(data) - _CHECKSUM_BYTES])
    vk_hash_start = counts_offset - 48  # 32B vk hash + 16B config digest
    pos = vk_hash_start + rng.randrange(len(out) - vk_hash_start - 16)
    if counts_offset - 16 <= pos < counts_offset:
        pos += 16  # skip the config digest (registry-bound, not proof-bound)
    out[pos] ^= rng.randrange(1, 256)
    return _fix_checksum(bytes(out)), "body-flip@%d" % pos


def local_envelope_checker(vk) -> Callable[[bytes], Dict]:
    """An in-process verdict function for :func:`run_envelope_fuzz`.

    Mirrors what one envelope's verdict looks like coming back from
    ``zkml verify-serve``: ``{"ok": bool, "error": <class name>}``.
    """
    from repro.envelope import decode_envelope
    from repro.envelope.verify import verify_envelope
    from repro.resilience.errors import ResilienceError

    def check(data: bytes) -> Dict:
        try:
            env = decode_envelope(data)
            verify_envelope(env, vk)
        except ResilienceError as exc:
            return {"ok": False, "error": type(exc).__name__}
        return {"ok": True}

    return check


#: Envelopes that pass the decoder but do not have their key's shape,
#: named by what is off: the proof length, the instance columns or the
#: rows of one of them.  ``verify_envelope`` refuses each with a
#: ``ProofFormatError`` before it parses the proof.
OFF_KEY_SHAPES = {
    "proof_one_byte_short": lambda env: replace(
        env, proof_bytes=env.proof_bytes[:-1]),
    "proof_one_byte_long": lambda env: replace(
        env, proof_bytes=env.proof_bytes + b"\x00"),
    "columns_one_extra": lambda env: replace(
        env, instance=env.instance + [[0] * len(env.instance[0])]),
    "rows_one_short": lambda env: replace(
        env, instance=env.instance[:-1] + [env.instance[-1][:-1]]),
}


def spy_proof_parsing(monkeypatch) -> List[bytes]:
    """Record every ``repro.halo2.proof.proof_from_bytes`` call (which
    still parses): the list it returns grows by the bytes of each."""
    import repro.halo2.proof as proof_module

    parsed: List[bytes] = []
    real = proof_module.proof_from_bytes
    monkeypatch.setattr(proof_module, "proof_from_bytes",
                        lambda data: parsed.append(data) or real(data))
    return parsed


def run_envelope_fuzz(envelope_bytes: bytes,
                      check: Callable[[bytes], Dict],
                      iterations: int = 200, seed: int = 0,
                      tamper_instance_every: int = 10) -> FuzzReport:
    """Mutate a known-good envelope ``iterations`` times; every mutant
    must come back rejected with a typed error.

    ``check(mutant_bytes) -> {"ok": bool, "error": str, ...}`` is the
    verification surface under test — :func:`local_envelope_checker`
    in-process, or a closure over
    :func:`repro.serve.client.verify_request` for a live socket.  A
    ``check`` that *raises* is an escape (the surface leaked a
    traceback); a verdict naming a non-taxonomy error is an escape too.
    Every ``tamper_instance_every``-th iteration re-encodes the envelope
    with one public input bumped — well-formed, wrong statement — which
    must be rejected by *verification*, not formatting.
    """
    from repro.envelope import decode_envelope

    pristine = decode_envelope(bytes(envelope_bytes))
    # offset of the instance-column-count u32 (after the three
    # length-prefixed strings, the scalar-width byte and the two fixed
    # digests)
    counts_offset = (1 + len(pristine.schema.encode())
                     + 1 + len(pristine.scheme_name.encode())
                     + 1 + len(pristine.model.encode()) + 1 + 32 + 16)
    rng = random.Random(seed)
    report = FuzzReport()
    for i in range(iterations):
        if tamper_instance_every and i % tamper_instance_every == \
                tamper_instance_every - 1:
            tampered, tag = _tamper_instance(
                pristine.instance, rng, 1 << 64)
            mutant_env = type(pristine)(
                scheme_name=pristine.scheme_name, model=pristine.model,
                vk_hash=pristine.vk_hash,
                config_digest=pristine.config_digest,
                instance=tampered, proof_bytes=pristine.proof_bytes)
            mutant, what = mutant_env.encode(), "tamper:%s" % tag
        else:
            mutant, what = _mutate_envelope(bytes(envelope_bytes), rng,
                                            counts_offset)
        report.iterations += 1
        try:
            verdict = check(mutant)
        except Exception as exc:  # noqa: BLE001 — the surface leaked an exception
            report.escapes.append((what, type(exc).__name__, str(exc)[:120]))
            continue
        if verdict.get("ok"):
            report.accepted.append(what)
        elif verdict.get("error") in _FORMAT_REJECTIONS:
            report.rejected_format += 1
        elif verdict.get("error") == "VerificationFailure":
            report.rejected_verify += 1
        else:
            report.escapes.append((what, str(verdict.get("error")),
                                   str(verdict.get("detail", ""))[:120]))
    return report
