"""End-to-end trustless audits (paper §2, Figures 1-2).

The paper's audit flow: the service provider *commits* to a model,
serves users while logging each inference with a ZK-SNARK, and an
auditor later checks that (a) every proof verifies, (b) every proof is
bound to the committed model, and (c) the published outputs match the
proven public values.  The paper pairs this with a trusted input log
(e.g. a verified database [47]); here the input binding is a hash chain
over the logged requests.

The model commitment is the verifying key's hash: the weights sit in
fixed columns, so ``vk.digest()`` binds them (DESIGN.md §6).  The
provider publishes its key to a :class:`~repro.registry.VKRegistry` and
announces the hash; the auditor resolves the key from the registry by
that hash and never takes one from the log.

- :class:`AuditLog` — the provider side: prove, publish the key, and
  append each proof's envelope bytes to a hash-chained log.
- :func:`audit` — the auditor side: check every entry against the
  published key.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.envelope import ProofEnvelope, decode_envelope, verify_envelope
from repro.model.spec import ModelSpec
from repro.registry import RegistryEntry, VKRegistry
from repro.resilience.errors import ProofFormatError, VerificationFailure
from repro.runtime.pipeline import prove_model


def _hash_array(h, arr) -> None:
    arr = np.asarray(arr, dtype=np.float64)
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())


def _chain(prev: bytes, input_digest: bytes, vk_hash: bytes) -> bytes:
    return hashlib.blake2b(prev + input_digest + vk_hash,
                           digest_size=32).digest()


@dataclass
class AuditEntry:
    """One logged inference: inputs digest, chain link and proof envelope."""

    index: int
    input_digest: bytes
    chain_digest: bytes
    #: the encoded v2 proof envelope (its public inputs are the outputs)
    envelope: bytes
    timestamp: float


@dataclass
class AuditFinding:
    """One problem an audit discovered."""

    index: int
    kind: str  # 'proof' | 'model' | 'chain'
    detail: str

    def __str__(self) -> str:
        return "entry %d: %s (%s)" % (self.index, self.kind, self.detail)


class AuditLog:
    """The provider-side log: prove every served inference, publish its
    key to ``registry`` (idempotent) and chain the envelope into the log.

    ``options`` are :func:`~repro.runtime.pipeline.prove_batch`'s keywords
    (``scheme_name``, ``plan``, ``num_cols``, ``scale_bits``, ...).
    """

    def __init__(self, spec: ModelSpec, registry: VKRegistry, **options):
        self.spec = spec
        self.registry = registry
        self.options = options
        self.entries: List[AuditEntry] = []

    def _digest_inputs(self, inputs: Dict[str, np.ndarray]) -> bytes:
        h = hashlib.blake2b(b"zkml-audit-input", digest_size=32)
        for name in sorted(inputs):
            h.update(name.encode())
            _hash_array(h, inputs[name])
        return h.digest()

    def serve(self, inputs: Dict[str, np.ndarray]) -> AuditEntry:
        """Run one inference, prove it, and append to the chained log."""
        result = prove_model(self.spec, inputs, **self.options)
        env = result.envelope()
        self.registry.publish(result.vk, env.model, env.config_digest)
        input_digest = self._digest_inputs(inputs)
        prev = self.entries[-1].chain_digest if self.entries else b"\x00" * 32
        entry = AuditEntry(
            index=len(self.entries),
            input_digest=input_digest,
            chain_digest=_chain(prev, input_digest, env.vk_hash),
            envelope=env.encode(),
            timestamp=time.time(),
        )
        self.entries.append(entry)
        return entry


def _check_envelope(data: bytes, vk, published: RegistryEntry
                    ) -> Tuple[Optional[ProofEnvelope], Optional[tuple]]:
    """The decoded envelope (None if it does not decode) and the kind and
    detail of its problem (None if it is a proof for the published key)."""
    try:
        env = decode_envelope(data)
    except ProofFormatError as exc:
        return None, ("proof", "envelope does not decode: %s" % exc)
    if env.vk_hash_hex != published.vk_hash:
        return env, ("model", "proven under key %s, not the published key %s"
                     % (env.vk_hash_hex[:16], published.vk_hash[:16]))
    try:
        published.bind(env)
    except VerificationFailure as exc:
        return env, ("model", "key %s: %s" % (published.vk_hash[:16], exc))
    try:
        verify_envelope(env, vk)
    except (ProofFormatError, VerificationFailure) as exc:
        return env, ("proof", "ZK-SNARK failed verification: %s" % exc)
    return env, None


def audit(log: AuditLog, registry: VKRegistry,
          vk_hash: str) -> List[AuditFinding]:
    """The auditor: check every entry of a log against the published key.

    The key is ``registry.resolve(vk_hash)`` (an unknown hash raises
    :class:`~repro.resilience.errors.UnknownVerifyingKeyError`); nothing
    is read from the log but envelope bytes and the chain.  Per entry:
    an envelope that does not decode, or whose proof fails verification,
    is a ``proof`` finding; one proven under another key, or relabeled
    with another model or config digest than the key was published
    with, is a ``model`` finding; a broken hash chain (an entry dropped
    or reordered) is a ``chain`` finding.  A finding names its entry by
    position in the log, never by the index the provider wrote.  Returns
    the findings; an empty list means the log is clean.  The auditor
    needs only public data — never the weights.

    A ``freivalds`` layout derives its challenge constants from the
    operands, so its key depends on the input: every entry whose key is
    not the published one gets a ``model`` finding.  Once that key is
    input-independent such a log passes with no change here.
    """
    vk, published = registry.resolve(vk_hash)
    findings: List[AuditFinding] = []
    prev = b"\x00" * 32
    for position, entry in enumerate(log.entries):
        env, problem = _check_envelope(entry.envelope, vk, published)
        if problem is not None:
            findings.append(AuditFinding(position, *problem))
        if (env is not None and entry.chain_digest
                != _chain(prev, entry.input_digest, env.vk_hash)):
            findings.append(AuditFinding(
                index=position, kind="chain",
                detail="hash chain broken (entry reordered or dropped)",
            ))
        prev = entry.chain_digest
    return findings
