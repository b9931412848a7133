"""Polynomial-commitment substrate.

The paper's halo2 backend supports two commitment schemes — KZG (one-time
universal trusted setup, constant-size openings, single pairing check) and
IPA (transparent, O(log n) proofs, O(n)-group-op verification).  Offline we
cannot link a pairing library, so both backends here run **one real
transparent protocol**: every commit round is a blake2b Merkle tree over
the rows of its columns' low-degree extension (:mod:`repro.commit.merkle`),
and all of a proof's claimed evaluations are proven by one batched DEEP
quotient whose low degree FRI establishes (:mod:`repro.commit.scheme`,
:mod:`repro.commit.fri`).  Proofs are succinct and binding; they are not
zero-knowledge (see docs/verification.md).  The *performance envelope* of
each named backend (proof bytes, verification work, extra MSMs) is
modeled explicitly with the formulas the paper's cost model uses, so the
optimizer sees the same trade-offs as on real halo2 (:mod:`repro.commit.kzg`,
:mod:`repro.commit.ipa`; :func:`scheme_by_name` imports them on first
use).  See DESIGN.md §2 for the substitution rationale.
"""

from repro.commit.merkle import MerkleTree, verify_merkle_path
from repro.commit.scheme import (
    Commitment,
    CommitmentScheme,
    CommittedRound,
    QueryOpening,
    RowOpening,
    scheme_by_name,
)
from repro.commit.fri import FRI_FINAL_LEN, FRI_QUERIES, FoldOpening
from repro.commit.transcript import Transcript

__all__ = [
    "Commitment",
    "CommitmentScheme",
    "CommittedRound",
    "QueryOpening",
    "RowOpening",
    "FoldOpening",
    "FRI_QUERIES",
    "FRI_FINAL_LEN",
    "scheme_by_name",
    "MerkleTree",
    "verify_merkle_path",
    "Transcript",
]
