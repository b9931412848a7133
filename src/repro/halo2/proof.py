"""Proof container and its canonical ``ZKMLPRF2`` wire encoding.

A proof is succinct: the roots of its commit rounds, one claimed
evaluation per ``vk.shape.claims`` entry, and one batched DEEP-FRI opening
(:mod:`repro.commit.scheme`) — fold-layer roots, a final polynomial and
``FRI_QUERIES`` query openings, each a row + path per round tree and a
pair + path per fold layer.  No polynomial is ever shipped.

Wire layout (integers little-endian; a *scalar* is an 8-byte Goldilocks
residue)::

    "ZKMLPRF2" [u8 scalar width = 8]
    [u32 count][count x 32B]            round roots (advice, helper, quotient)
    [u32 count][count x scalar]         claimed evaluations, vk.shape.claims order
    [u32 count][count x 32B]            fold-layer roots
    [u32 count][count x scalar]         final polynomial
    [u32 queries]
    [u32 rows]  rows x [u32 values per row]   one row per round tree
    [u32 row path length]
    [u32 folds] folds x [u32 path length]     one pair per fold layer
    queries x ( rows x (values, path)  folds x (pair, path) )

The width byte is always 8 and the decoder refuses any other.  The query
shape is declared once, so the body has a fixed stride: the decoder checks
every count against its cap and the exact remaining length before
allocating anything.  ``ProofShape.proof_bytes`` (:mod:`repro.halo2.shape`)
sums this layout before any proof exists, so a change here changes it.
The size a real halo2 proof of the same circuit would have is
``VerifyingKey.modeled_proof_bytes``; reports show both.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.commit.fri import FoldOpening
from repro.commit.merkle import DIGEST_BYTES
from repro.commit.scheme import QueryOpening, RowOpening
from repro.resilience.errors import ProofFormatError


@dataclass
class Proof:
    """A ZK-SNARK proof for one circuit execution."""

    #: Merkle roots of the proof's nonempty rounds: advice, helper, quotient.
    round_roots: List[bytes]
    #: Claimed evaluations, aligned with ``vk.shape.claims``.
    evals: List[int]
    fri_roots: List[bytes]
    final_poly: List[int]
    queries: List[QueryOpening]


MAGIC = b"ZKMLPRF2"

#: Bytes per scalar on the wire, declared by the width byte.
SCALAR_WIDTH = 8

#: Caps on the serialized count fields.  Real proofs stay far below
#: them; a count beyond its cap is always a corrupted or hostile length
#: prefix, rejected before it can size an allocation.
_MAX_ROOTS = 64
_MAX_SCALARS = 1 << 20
_MAX_QUERIES = 1 << 12
_MAX_ROWS = 8
_MAX_PATH = 64


def _scalars_to_bytes(values: Sequence[int]) -> bytes:
    try:
        return struct.pack("<%dQ" % len(values), *values)
    except (struct.error, OverflowError, TypeError) as exc:
        raise ProofFormatError("proof scalar does not fit %d bytes"
                               % SCALAR_WIDTH, detail=str(exc)[:80]) from None


def _digests_to_bytes(digests: Sequence[bytes], what: str) -> bytes:
    for d in digests:
        if not isinstance(d, bytes) or len(d) != DIGEST_BYTES:
            raise ProofFormatError("%s is not a %d-byte digest"
                                   % (what, DIGEST_BYTES))
    return b"".join(digests)


def _u32(v: int) -> bytes:
    return int(v).to_bytes(4, "little")


def proof_to_bytes(proof: Proof) -> bytes:
    """Serialize a proof to its canonical byte string.

    Every query must have the same shape (it does for any proof the
    prover builds); a ragged or out-of-range proof object raises
    :class:`~repro.resilience.errors.ProofFormatError`.
    """
    out = [MAGIC, bytes([SCALAR_WIDTH])]
    out += [_u32(len(proof.round_roots)),
            _digests_to_bytes(proof.round_roots, "round root")]
    out += [_u32(len(proof.evals)), _scalars_to_bytes(proof.evals)]
    out += [_u32(len(proof.fri_roots)),
            _digests_to_bytes(proof.fri_roots, "fold-layer root")]
    out += [_u32(len(proof.final_poly)),
            _scalars_to_bytes(proof.final_poly)]
    out.append(_u32(len(proof.queries)))
    first = proof.queries[0] if proof.queries else QueryOpening((), ())
    widths = [len(row.values) for row in first.rows]
    row_path = len(first.rows[0].path) if first.rows else 0
    fold_paths = [len(fold.path) for fold in first.folds]
    out.append(_u32(len(widths)))
    out += [_u32(w) for w in widths]
    out.append(_u32(row_path))
    out.append(_u32(len(fold_paths)))
    out += [_u32(n) for n in fold_paths]
    for query in proof.queries:
        if ([len(row.values) for row in query.rows] != widths
                or any(len(row.path) != row_path for row in query.rows)
                or [len(fold.path) for fold in query.folds] != fold_paths
                or any(len(fold.pair) != 2 for fold in query.folds)):
            raise ProofFormatError("query openings differ in shape")
        for row in query.rows:
            out.append(_scalars_to_bytes(row.values))
            out.append(_digests_to_bytes(row.path, "path node"))
        for fold in query.folds:
            out.append(_scalars_to_bytes(fold.pair))
            out.append(_digests_to_bytes(fold.path, "path node"))
    return b"".join(out)


class _Reader:
    """Bounds-checked sequential reads; every failure is typed."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> int:
        """Reserve ``n`` bytes; returns their start offset."""
        start = self.pos
        if n > len(self.data) - start:
            raise ProofFormatError(
                "truncated proof: %s needs %d bytes at offset %d, %d left"
                % (what, n, start, len(self.data) - start),
                offset=start, length=len(self.data))
        self.pos = start + n
        return start

    def count(self, what: str, cap: int) -> int:
        start = self.take(4, what + " count")
        n = int.from_bytes(self.data[start : start + 4], "little")
        if n > cap:
            raise ProofFormatError("implausible %s count %d (max %d)"
                                   % (what, n, cap), offset=start)
        return n

    def digests(self, n: int, what: str) -> Tuple[bytes, ...]:
        start = self.take(n * DIGEST_BYTES, what)
        return struct.unpack_from("%ds" % DIGEST_BYTES * n, self.data, start)

    def scalars(self, n: int, what: str) -> Tuple[int, ...]:
        start = self.take(n * SCALAR_WIDTH, what)
        return struct.unpack_from("<%dQ" % n, self.data, start)


def proof_from_bytes(data: bytes) -> Proof:
    """Inverse of :func:`proof_to_bytes`.

    Every count is validated against its cap and the remaining data
    before anything sized by it is allocated, and the query body must
    fill the rest of the buffer exactly — so truncated, padded, or
    hostile inputs raise :class:`~repro.resilience.errors.ProofFormatError`
    (a ``ValueError`` subclass) rather than producing a garbage proof or
    an unbounded allocation.  Field range and circuit shape are the
    verifier's job (``validate_proof_shape``).
    """
    data = bytes(data)
    if data[: len(MAGIC)] != MAGIC:
        raise ProofFormatError("not a serialized proof (bad magic)",
                               length=len(data))
    r = _Reader(data)
    r.pos = len(MAGIC)
    width = data[r.take(1, "scalar width")]
    if width != SCALAR_WIDTH:
        raise ProofFormatError("scalar width must be %d, got %d"
                               % (SCALAR_WIDTH, width), offset=len(MAGIC))
    round_roots = r.digests(r.count("round root", _MAX_ROOTS), "round roots")
    evals = r.scalars(r.count("evaluation", _MAX_SCALARS), "evaluations")
    fri_roots = r.digests(r.count("fold-layer root", _MAX_ROOTS),
                          "fold-layer roots")
    final_poly = r.scalars(r.count("final coefficient", _MAX_SCALARS),
                           "final polynomial")
    num_queries = r.count("query", _MAX_QUERIES)
    widths = [r.count("row value", _MAX_SCALARS)
              for _ in range(r.count("row", _MAX_ROWS))]
    row_path = r.count("row path node", _MAX_PATH)
    fold_paths = [r.count("fold path node", _MAX_PATH)
                  for _ in range(r.count("fold", _MAX_PATH))]
    stride = (sum(w * SCALAR_WIDTH + row_path * DIGEST_BYTES for w in widths)
              + sum(2 * SCALAR_WIDTH + n * DIGEST_BYTES for n in fold_paths))
    body = len(data) - r.pos
    if body < num_queries * stride:
        raise ProofFormatError(
            "truncated proof: %d queries of %d bytes need %d, %d left"
            % (num_queries, stride, num_queries * stride, body),
            offset=r.pos, length=len(data))
    if body > num_queries * stride:
        raise ProofFormatError("trailing bytes in serialized proof",
                               offset=r.pos + num_queries * stride,
                               length=len(data))
    queries = []
    for _ in range(num_queries):
        rows = tuple(
            RowOpening(values=r.scalars(w, "row values"),
                       path=r.digests(row_path, "row path"))
            for w in widths)
        folds = tuple(
            FoldOpening(pair=r.scalars(2, "fold pair"),
                        path=r.digests(n, "fold path"))
            for n in fold_paths)
        queries.append(QueryOpening(rows=rows, folds=folds))
    return Proof(
        round_roots=list(round_roots),
        evals=list(evals),
        fri_roots=list(fri_roots),
        final_poly=list(final_poly),
        queries=queries,
    )
