"""End-to-end trustless audits (paper §2, Figures 1-2).

The paper's audit flow: the service provider *commits* to a model (hash
of weights + architecture), serves users while logging each inference
with a ZK-SNARK, and an auditor later checks that (a) every proof
verifies, (b) every proof is bound to the same committed model, and (c)
the published outputs match the proven public values.  The paper pairs
this with a trusted input log (e.g. a verified database [47]); here the
input binding is a hash chain over the logged requests.

This module packages that flow:

- :class:`ModelCommitment` — a binding digest of architecture + weights.
- :class:`AuditLog` — the provider side: prove-and-append entries.
- :func:`audit` — the auditor side: replay and verify everything.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.envelope import verify_envelope
from repro.model.spec import ModelSpec
from repro.resilience.errors import ProofFormatError, VerificationFailure
from repro.runtime.pipeline import ProveResult, prove_model


def _hash_array(h, arr) -> None:
    arr = np.asarray(arr, dtype=np.float64)
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())


@dataclass(frozen=True)
class ModelCommitment:
    """A binding digest of a model's architecture and weights."""

    digest: bytes

    @classmethod
    def commit(cls, spec: ModelSpec) -> "ModelCommitment":
        if not spec.materialized:
            raise ValueError("cannot commit to shape-only parameters")
        h = hashlib.blake2b(b"zkml-model-commitment", digest_size=32)
        h.update(spec.name.encode())
        for layer in spec.layers:
            h.update(layer.name.encode())
            h.update(layer.kind.encode())
            h.update(repr(sorted(layer.attrs.items())).encode())
            for pname in sorted(layer.params):
                h.update(pname.encode())
                _hash_array(h, layer.params[pname])
        return cls(h.digest())

    def hex(self) -> str:
        return self.digest.hex()


@dataclass
class AuditEntry:
    """One logged inference: inputs digest, proof, and public outputs."""

    index: int
    input_digest: bytes
    chain_digest: bytes
    result: ProveResult
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
    """The provider-side log: prove every served inference and chain it."""

    def __init__(self, spec: ModelSpec, scheme_name: str = "kzg",
                 num_cols: int = 10, scale_bits: int = 5,
                 lookup_bits: Optional[int] = None):
        self.spec = spec
        self.scheme_name = scheme_name
        self.num_cols = num_cols
        self.scale_bits = scale_bits
        self.lookup_bits = lookup_bits
        self.commitment = ModelCommitment.commit(spec)
        self.entries: List[AuditEntry] = []

    def _digest_inputs(self, inputs: Dict[str, np.ndarray]) -> bytes:
        h = hashlib.blake2b(b"zkml-audit-input", digest_size=32)
        for name in sorted(inputs):
            h.update(name.encode())
            _hash_array(h, inputs[name])
        return h.digest()

    def serve(self, inputs: Dict[str, np.ndarray]) -> AuditEntry:
        """Run one inference, prove it, and append to the chained log."""
        result = prove_model(
            self.spec, inputs, scheme_name=self.scheme_name,
            num_cols=self.num_cols, scale_bits=self.scale_bits,
            lookup_bits=self.lookup_bits,
        )
        input_digest = self._digest_inputs(inputs)
        prev = self.entries[-1].chain_digest if self.entries else b"\x00" * 32
        chain = hashlib.blake2b(
            prev + input_digest + result.vk.digest(), digest_size=32
        ).digest()
        entry = AuditEntry(
            index=len(self.entries),
            input_digest=input_digest,
            chain_digest=chain,
            result=result,
            timestamp=time.time(),
        )
        self.entries.append(entry)
        return entry


def audit(log: AuditLog,
          expected_commitment: ModelCommitment) -> List[AuditFinding]:
    """The auditor: verify every entry of a log against a commitment.

    Returns the list of findings; an empty list means the log is clean.
    The auditor needs only public data: the verifying keys, proofs,
    public values, and the model commitment — never the weights.
    """
    findings: List[AuditFinding] = []
    if log.commitment.digest != expected_commitment.digest:
        findings.append(AuditFinding(
            index=-1, kind="model",
            detail="log's model commitment does not match the published one",
        ))
    vk_digests = set()
    prev = b"\x00" * 32
    for entry in log.entries:
        result = entry.result
        try:
            verify_envelope(result.envelope(), result.vk)
        except (ProofFormatError, VerificationFailure):
            findings.append(AuditFinding(
                index=entry.index, kind="proof",
                detail="ZK-SNARK failed verification",
            ))
        vk_digests.add(result.vk.digest())
        expected_chain = hashlib.blake2b(
            prev + entry.input_digest + result.vk.digest(), digest_size=32
        ).digest()
        if entry.chain_digest != expected_chain:
            findings.append(AuditFinding(
                index=entry.index, kind="chain",
                detail="hash chain broken (entry reordered or dropped)",
            ))
        prev = entry.chain_digest
    if len(vk_digests) > 1:
        findings.append(AuditFinding(
            index=-1, kind="model",
            detail="entries proven under %d different circuits"
            % len(vk_digests),
        ))
    return findings
