"""FRI: a low-degree test for one function on the extended coset.

The batched opening (:mod:`repro.commit.scheme`) reduces every claimed
evaluation of a proof to one statement — "the DEEP quotient ``G``, given
by its values on the extended coset ``D`` (``|D| = N = extension * n``),
has degree below ``n``" — and this module proves it:

* **commit phase**: ``R = log2(n / FRI_FINAL_LEN)`` binary folds.  Layer
  ``i`` lives on ``D_i = D^(2^i)`` (size ``N / 2^i``); a transcript
  challenge ``beta_i`` folds it to
  ``G_{i+1}(z^2) = (G_i(z) + G_i(-z)) / 2 + beta_i (G_i(z) - G_i(-z)) / (2z)``,
  halving size and degree bound.  Layers ``1 .. R-1`` are committed as
  Merkle trees whose leaf ``j`` is the pair ``(G_i[j], G_i[j + N_i/2])``
  (the values at ``z`` and ``-z``); the last layer is sent in the clear
  as the ``FRI_FINAL_LEN`` coefficients of a polynomial.
* **query phase**: ``FRI_QUERIES`` transcript-drawn positions.  For each,
  the verifier gets layer 0's pair from the caller (recomputed from the
  opened commitment rows, which is what binds ``G`` to them), checks one
  pair + path per committed layer against the fold of the layer before,
  and checks the last fold against the final polynomial.

Layer 0 has no tree of its own: it is determined by the round trees and
the transcript.  The prover folds whole layers with the domain's
:class:`~repro.field.vector.GL64Backend` vector ops and interpolates the
final layer with the domain's coset NTT; the verifier's checks are
scalar arithmetic on the opened pairs.

Parameters are module constants, not options: the rate is the domain's
``1 / extension`` and :func:`soundness_bits` states what they buy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.commit.merkle import MerkleTree, leaf_bytes, verify_merkle_path
from repro.commit.transcript import Transcript
from repro.field import gl64

#: Query positions per proof.  At rate 1/2 each query is worth one
#: conjectured bit, which meets the ~44-bit cap the 64-bit challenges
#: impose anyway (see :func:`soundness_bits`).
FRI_QUERIES = 48
#: Coefficients of the final polynomial (sent in the clear): folding
#: stops once the degree bound is this small.
FRI_FINAL_LEN = 32


def num_folds(k: int) -> int:
    """Folds from degree bound ``2^k`` down to ``FRI_FINAL_LEN``."""
    return max(0, k - (FRI_FINAL_LEN.bit_length() - 1))


def final_len(k: int) -> int:
    """Coefficient count of the final polynomial for a ``2^k``-row circuit."""
    return min(1 << k, FRI_FINAL_LEN)


def soundness_bits(k: int, extension: int, columns: int,
                   field_bits: int) -> Dict[str, float]:
    """What the parameters buy for a ``2^k``-row proof over ``columns``
    committed columns, in bits — the numbers docs/verification.md quotes.

    ``query_conjectured`` assumes FRI is sound up to the code's capacity
    (each query catches a far word with probability ``1 - rate``);
    ``query_proven`` is the Johnson-bound figure (``1 - sqrt(rate)``).
    ``field_cap`` bounds every single challenge drawn from the base field
    (the evaluation point ``x``, the combiner ``lambda``, the fold
    challenges): a cheating prover wins one of them with probability
    about ``N * columns / |F|``.  The achieved figures are the minimum of
    the query bound and the cap — on Goldilocks the cap binds.
    """
    rate_bits = math.log2(extension)
    field_cap = field_bits - math.log2(extension * (1 << k) * max(columns, 1))
    conjectured = FRI_QUERIES * rate_bits
    proven = FRI_QUERIES * rate_bits / 2
    return {
        "query_conjectured": conjectured,
        "query_proven": proven,
        "field_cap": field_cap,
        "achieved_conjectured": min(conjectured, field_cap),
        "achieved_proven": min(proven, field_cap),
    }


@dataclass(frozen=True)
class FoldOpening:
    """One committed layer's answer to a query: the pair and its path."""

    pair: Tuple[int, int]
    path: Tuple[bytes, ...]


def _layers(domain) -> List[Tuple[int, int, int]]:
    """``(size, shift, generator)`` of fold layers ``0 .. num_folds``."""
    def build():
        f = domain.field
        return [(domain.extended_n >> i,
                 f.pow(domain.coset_shift, 1 << i),
                 f.pow(domain.extended_omega, 1 << i))
                for i in range(num_folds(domain.k) + 1)]

    return domain.memo("fri-layers", build)


def _fold_table(domain, i: int):
    """``1 / (2z)`` over the first half of layer ``i``, as a backend vector."""
    def build():
        f = domain.field
        size, shift, omega = _layers(domain)[i]
        return gl64.powers(f.inv(f.mul(2, shift)), f.inv(omega), size // 2)

    return domain.memo(("fri-fold-table", i), build)


def draw_positions(domain, transcript: Transcript) -> List[int]:
    """The query positions: pair indices into layer 0."""
    half = domain.extended_n // 2
    return [transcript.challenge_scalar(b"fri-query") % half
            for _ in range(FRI_QUERIES)]


class FriProver:
    """The commit phase and its state: every committed layer's values
    and tree, kept to answer the queries."""

    def __init__(self, domain, values: np.ndarray, transcript: Transcript):
        """Fold ``values`` (``G`` on the extended coset, natural order)
        down to the final polynomial, absorbing each layer's root and
        drawing each fold challenge from ``transcript``."""
        backend, f = domain.backend, domain.field
        half_inv = f.inv(2)
        self.layers: List[Tuple[object, MerkleTree]] = []
        for i in range(num_folds(domain.k)):
            mid = len(values) // 2
            if i:
                # leaf j is the pair (values[j], values[j + mid]), read in place
                tree = MerkleTree.from_lde(values.reshape(1, 1, -1))
                transcript.append_commitment(b"fri-layer", tree.root)
                self.layers.append((values, tree))
            beta = transcript.challenge_scalar(b"fri-beta")
            lo, hi = values[:mid], values[mid:]
            values = backend.add(
                backend.mul_scalar(backend.add(lo, hi), half_inv),
                backend.mul_scalar(
                    backend.mul(backend.sub(lo, hi), _fold_table(domain, i)),
                    beta),
            )
        _, shift, omega = _layers(domain)[-1]
        coeffs = domain.coset_intt(values, omega, shift)
        # an honest G leaves the upper coefficients zero; a dishonest one
        # is truncated here and caught by the verifier's final check
        self.final_poly: List[int] = coeffs[: final_len(domain.k)].tolist()
        transcript.append_scalar_vector(b"fri-final", self.final_poly)

    @property
    def roots(self) -> List[bytes]:
        return [tree.root for _, tree in self.layers]

    def open(self, positions: Sequence[int]) -> List[List[FoldOpening]]:
        """The committed layers' pairs and paths, one list per query
        position."""
        positions = np.asarray(positions, dtype=np.int64)
        layers = []
        for values, tree in self.layers:
            mid = len(values) // 2
            j = positions % mid
            pairs = zip(values[j].tolist(), values[j + mid].tolist())
            layers.append([FoldOpening(pair=pair, path=path)
                           for pair, path in zip(pairs, tree.open_many(j))])
        return [[layer[q] for layer in layers] for q in range(len(positions))]


class FriVerifier:
    """The verifier's replay of the commit phase, then one check per query."""

    def __init__(self, domain, roots: Sequence[bytes],
                 final_poly: Sequence[int], transcript: Transcript):
        """Absorb what the prover absorbed, in order, drawing the same
        fold challenges.  ``roots`` and ``final_poly`` must already have
        the lengths :func:`num_folds` and :func:`final_len` dictate."""
        self.domain = domain
        self.roots = roots
        self.final_poly = final_poly
        self.betas = []
        for i in range(num_folds(domain.k)):
            if i:
                transcript.append_commitment(b"fri-layer", roots[i - 1])
            self.betas.append(transcript.challenge_scalar(b"fri-beta"))
        transcript.append_scalar_vector(b"fri-final", final_poly)

    def _final_at(self, point: int) -> int:
        acc, p = 0, self.domain.field.p
        for c in reversed(self.final_poly):
            acc = (acc * point + c) % p
        return acc

    def check(self, position: int, pair: Tuple[int, int],
              openings: Sequence[FoldOpening]) -> bool:
        """``pair`` is layer 0 at ``position`` (recomputed by the caller
        from the committed rows); every later layer must be the fold of
        the one before, and the last must be the final polynomial."""
        f = self.domain.field
        layers = _layers(self.domain)
        half_inv = f.inv(2)
        lo, hi = pair
        index = position
        for i, beta in enumerate(self.betas):
            size, shift, omega = layers[i]
            index %= size // 2
            inv_2z = f.mul(f.inv(f.mul(2, shift)), f.pow(f.inv(omega), index))
            folded = f.add(f.mul(f.add(lo, hi), half_inv),
                           f.mul(beta, f.mul(f.sub(lo, hi), inv_2z)))
            if i + 1 == len(self.betas):
                _, shift, omega = layers[i + 1]
                return self._final_at(f.mul(shift, f.pow(omega, index))) == folded
            opening = openings[i]
            quarter = size // 4
            if folded != opening.pair[index >= quarter]:
                return False
            if not verify_merkle_path(
                    self.roots[i], index % quarter,
                    leaf_bytes(opening.pair),
                    opening.path):
                return False
            lo, hi = opening.pair
        # no folds (n <= FRI_FINAL_LEN): layer 0 is the final polynomial
        _, shift, omega = layers[0]
        point = f.mul(shift, f.pow(omega, position))
        return (self._final_at(point) == lo
                and self._final_at(f.neg(point)) == hi)
