"""The polynomial-commitment scheme: Merkle rounds, one batched DEEP-FRI opening.

**Commit.**  A *round* is a set of columns committed together (the fixed
columns at keygen; the advice, helper and quotient rounds of a proof).
Each column is its evaluations over the extended coset ``D`` (rate
``1 / extension``) and the round is one Merkle tree whose leaf ``j`` holds
*every* column of the round at extended positions ``j`` and ``j + N/2`` —
the points ``z`` and ``-z`` a FRI fold pairs up — so one authentication
path opens a whole row.

**Open.**  All claimed evaluations ``v = f(omega^rot x)`` of a proof — any
number of columns from any rounds, at any rotations — are proven by one
argument.  A transcript challenge ``lambda`` folds them into the DEEP
quotient

    G(X) = sum_rot  [ sum_j lambda^j (f_j(X) - v_j) ] / (X - omega^rot x)

which has degree below ``n - 1`` exactly when every claim is true;
:mod:`repro.commit.fri` proves that degree bound, and at each of its
query positions the verifier opens one row of every round tree and
recomputes ``G`` there itself.  Nothing else is revealed: a proof carries
``FRI_QUERIES`` rows per round, not polynomials.

The ``kzg`` and ``ipa`` subclasses share this one real protocol; what
distinguishes them is the *modeled* performance envelope — proof bytes
per object, MSM counts, verifier work — which follows the paper's halo2
accounting and feeds the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.commit import fri
from repro.commit.merkle import (
    DIGEST_BYTES,
    MerkleTree,
    leaf_bytes,
    verify_merkle_path,
)
from repro.commit.transcript import Transcript
from repro.field.domain import EvaluationDomain
from repro.field.prime_field import PrimeField
from repro.obs.stats import STATS

#: Size of one commitment (a compressed point on the paper's 254-bit
#: pairing curve) in the *modeled* proof, in bytes.
COMMITMENT_BYTES = 32
#: Size of one of that curve's scalars in the *modeled* proof, in bytes.
SCALAR_BYTES = 32

#: One claimed evaluation: ``(round index, column within the round, rotation)``.
Claim = Tuple[int, int, int]


@dataclass(frozen=True)
class Commitment:
    """A binding commitment: the 32-byte root of a round's Merkle tree."""

    digest: bytes

    def __post_init__(self) -> None:
        if len(self.digest) != DIGEST_BYTES:
            raise ValueError("commitment digest must be 32 bytes")


@dataclass
class CommittedRound:
    """The prover's side of one round: the columns' low-degree extension
    (in the domain's layout, see ``EvaluationDomain.lde``) and its tree."""

    lde: object
    tree: MerkleTree

    @property
    def root(self) -> bytes:
        return self.tree.root


@dataclass(frozen=True)
class RowOpening:
    """One round's answer to a query: the row's values (every column at
    ``z``, then every column at ``-z``) and its authentication path."""

    values: Tuple[int, ...]
    path: Tuple[bytes, ...]


@dataclass(frozen=True)
class QueryOpening:
    """Everything one query position opens: a row per (nonempty) round,
    then a pair per committed fold layer."""

    rows: Tuple[RowOpening, ...]
    folds: Tuple[fri.FoldOpening, ...]


def draw_opening_point(domain: EvaluationDomain, transcript: Transcript) -> int:
    """The evaluation point ``x``: redrawn until it lies outside both the
    base domain and the extended coset, so no DEEP denominator vanishes."""
    f = domain.field
    shift_inv = f.inv(domain.coset_shift)
    while True:
        x = transcript.challenge_nonzero(b"x")
        if (f.pow(x, domain.n) != 1
                and f.pow(f.mul(x, shift_inv), domain.extended_n) != 1):
            return x


def _deep_quotient(domain, columns_of, points, claims: Sequence[Claim],
                   evals: Sequence[int], x: int, lam: int):
    """``G`` at ``points`` (a backend vector).

    ``columns_of(round, cols)`` returns a matrix whose rows are a round's
    columns over the same points — the whole LDE for the prover, the opened
    rows' values for the verifier — and the row index ``cols`` into it, so
    the weighted sum reads the rows where they lie; ``claims`` must be
    sorted by rotation, then round.
    """
    backend, f = domain.backend, domain.field
    p = f.p
    numerators, shifts = [], []
    weight = 1
    for rot, group in groupby(enumerate(claims), key=lambda jc: jc[1][2]):
        numerator, const = None, 0
        for rnd, sub in groupby(group, key=lambda jc: jc[1][0]):
            cols, weights = [], []
            for j, (_, col, _) in sub:
                cols.append(col)
                weights.append(weight)
                const += weight * evals[j]
                weight = weight * lam % p
            mat, index = columns_of(rnd, cols)
            part = backend.weighted_sum(mat, weights, index)
            numerator = part if numerator is None else backend.add(
                numerator, part)
        numerators.append(backend.add_scalar(numerator, -const % p))
        shifts.append(-domain.rotate(x, rot) % p)
    # every rotation's denominators X - omega^rot x in ONE batched inversion
    inverses = backend.batch_inv(backend.concat(
        [backend.add_scalar(points, shift) for shift in shifts]))
    width = len(points)
    total = None
    for i, numerator in enumerate(numerators):
        term = backend.mul(numerator, inverses[i * width : (i + 1) * width])
        total = term if total is None else backend.add(total, term)
    return total


class CommitmentScheme:
    """Base class for the KZG and IPA cost profiles over the one protocol."""

    #: Backend name used by the CLI, optimizer, and reports.
    name = "abstract"
    #: Whether a trusted setup is required (True for KZG).
    requires_trusted_setup = False

    def __init__(self, field: PrimeField):
        self.field = field
        self._domains: Dict[int, EvaluationDomain] = {}

    # -- commit ---------------------------------------------------------------

    def commit_round(self, domain: EvaluationDomain, lde) -> CommittedRound:
        """Merkle-commit one round given its columns' LDE (``domain.lde``)."""
        STATS.commitments += len(lde)
        self._check_degree(domain.n)
        if domain.n < 2:
            raise ValueError("a committed round needs at least two rows")
        tree = MerkleTree.from_lde(lde)
        return CommittedRound(lde=lde, tree=tree)

    def commit(self, coeffs: Sequence[int]) -> Commitment:
        """Commit to one coefficient vector: a round of one column."""
        self._check_degree(len(coeffs))
        k = max(1, (len(coeffs) - 1).bit_length())
        domain = self._domains.get(k)
        if domain is None:
            domain = self._domains[k] = EvaluationDomain(self.field, k)
        if len(coeffs) < domain.n:
            coeffs = list(coeffs) + [0] * (domain.n - len(coeffs))
        lde = domain.lde(domain.backend.from_ints(coeffs)[None, :])
        return Commitment(self.commit_round(domain, lde).root)

    # -- open -----------------------------------------------------------------

    def open_batch(
        self,
        domain: EvaluationDomain,
        rounds: Sequence[Optional[CommittedRound]],
        claims: Sequence[Claim],
        evals: Sequence[int],
        x: int,
        transcript: Transcript,
    ) -> Tuple[List[bytes], List[int], List[QueryOpening]]:
        """Prove every claim ``evals[j] = f_j(omega^rot x)`` at once.

        ``rounds`` is indexed by the claims' round numbers (``None`` for a
        round with no columns); ``claims`` is sorted by rotation, then
        round.  Returns the fold-layer roots, the final polynomial and
        one :class:`QueryOpening` per query position.
        """
        STATS.openings += len(claims)
        transcript.append_scalar_vector(b"evals", evals)
        lam = transcript.challenge_scalar(b"lambda")

        g = _deep_quotient(
            domain, lambda rnd, cols: (domain.lde_columns(rounds[rnd].lde), cols),
            domain.lde_points(), claims, evals, x, lam)
        prover = fri.FriProver(domain, domain.lde_natural(g), transcript)
        positions = fri.draw_positions(domain, transcript)
        live = [rnd for rnd in rounds if rnd is not None]
        opened = [(domain.lde_rows(rnd.lde, positions),
                   rnd.tree.open_many(positions)) for rnd in live]
        folds = prover.open(positions)
        queries = [
            QueryOpening(
                rows=tuple(RowOpening(values=tuple(rows[q]), path=paths[q])
                           for rows, paths in opened),
                folds=tuple(folds[q]))
            for q in range(len(positions))]
        return prover.roots, prover.final_poly, queries

    def verify_batch(
        self,
        domain: EvaluationDomain,
        roots: Sequence[Optional[bytes]],
        claims: Sequence[Claim],
        evals: Sequence[int],
        x: int,
        fri_roots: Sequence[bytes],
        final_poly: Sequence[int],
        queries: Sequence[QueryOpening],
        transcript: Transcript,
    ) -> bool:
        """Check a batched opening against the rounds' roots.

        Shapes (counts, widths, path lengths) must already have been
        validated; this replays the transcript, checks every path,
        recomputes ``G`` at all query positions at once from the opened
        rows, and runs the FRI checks.
        """
        f, backend = domain.field, domain.backend
        transcript.append_scalar_vector(b"evals", evals)
        lam = transcript.challenge_scalar(b"lambda")
        verifier = fri.FriVerifier(domain, fri_roots, final_poly, transcript)
        positions = fri.draw_positions(domain, transcript)
        live = [i for i, root in enumerate(roots) if root is not None]

        for position, query in zip(positions, queries):
            for rnd, row in zip(live, query.rows):
                if not verify_merkle_path(
                        roots[rnd], position,
                        leaf_bytes(row.values), row.path):
                    return False

        # row c of round r's matrix: column c over the points
        # (z_1..z_Q, -z_1..-z_Q)
        opened = {}
        for slot, rnd in enumerate(live):
            rows = backend.from_ints([q.rows[slot].values for q in queries])
            width = rows.shape[1] // 2
            opened[rnd] = np.concatenate([rows[:, :width].T, rows[:, width:].T], axis=1)
        zs = [f.mul(domain.coset_shift, f.pow(domain.extended_omega, s))
              for s in positions]
        points = backend.from_ints(zs + [f.neg(z) for z in zs])
        g = backend.to_ints(_deep_quotient(
            domain, lambda rnd, cols: (opened[rnd], cols),
            points, claims, evals, x, lam))
        count = len(positions)
        return all(
            verifier.check(position, (g[q], g[count + q]), query.folds)
            for q, (position, query) in enumerate(zip(positions, queries)))

    def _check_degree(self, length: int) -> None:
        """Hook for backends with bounded setups (KZG)."""

    # -- modeled accounting (paper cost-model inputs) -----------------------

    def extra_msms(self, d_max: int) -> int:
        """MSMs beyond n_FFT for quotient evaluation proofs (§7.4)."""
        raise NotImplementedError

    def opening_proof_bytes(self, k: int) -> int:
        """Serialized size of one multiopen argument at 2^k rows."""
        raise NotImplementedError

    def verifier_group_ops(self, k: int) -> int:
        """Group operations the verifier performs for the PCS check."""
        raise NotImplementedError


def scheme_by_name(name: str, field: PrimeField) -> CommitmentScheme:
    """Instantiate a backend by name ('kzg' or 'ipa')."""
    from repro.commit.ipa import IPAScheme
    from repro.commit.kzg import KZGScheme

    if name == "kzg":
        return KZGScheme(field)
    if name == "ipa":
        return IPAScheme(field)
    raise KeyError("unknown commitment scheme %r; available: ipa, kzg" % name)
