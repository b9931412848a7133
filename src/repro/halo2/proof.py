"""Proof container and modeled serialization size.

The in-memory proof carries the simulated opening witnesses (full
coefficient vectors — see ``repro.commit``), so its Python size is not
what a real halo2 proof would serialize to.  :meth:`Proof.modeled_size_bytes`
reports the size a real proof with this circuit shape would have: one
curve point per commitment, one scalar per opened evaluation, plus the
backend's multiopen argument.  Table 6/7/14 report this quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.commit.scheme import (
    COMMITMENT_BYTES,
    SCALAR_BYTES,
    Commitment,
    CommitmentScheme,
    OpeningProof,
)
from repro.field.gl64 import serialize_scalars
from repro.resilience.errors import ProofFormatError


@dataclass
class Proof:
    """A ZK-SNARK proof for one circuit execution."""

    advice_commitments: List[Commitment]
    helper_commitments: List[Commitment]
    quotient_commitments: List[Commitment]
    #: (advice column index, rotation) -> opening at omega^rotation * x
    advice_openings: Dict[Tuple[int, int], OpeningProof]
    quotient_openings: List[OpeningProof]

    def num_commitments(self) -> int:
        return (
            len(self.advice_commitments)
            + len(self.helper_commitments)
            + len(self.quotient_commitments)
        )

    def num_evaluations(self) -> int:
        return len(self.advice_openings) + len(self.quotient_openings)

    def modeled_size_bytes(self, scheme: CommitmentScheme, k: int) -> int:
        """Serialized size of the equivalent real halo2 proof."""
        return (
            COMMITMENT_BYTES * self.num_commitments()
            + SCALAR_BYTES * self.num_evaluations()
            + scheme.opening_proof_bytes(k)
        )


#: Upper bound on any serialized count field.  Real proofs have at most a
#: few thousand commitments/openings; a count beyond this is always a
#: corrupted or hostile length prefix, and rejecting it up front keeps a
#: 4-byte mutation from driving a multi-gigabyte allocation loop.
_MAX_ITEMS = 1 << 20


def _write_scalar(out: bytearray, v: int) -> None:
    out += int(v).to_bytes(32, "little")


def _read_scalar(data: bytes, pos: int):
    if pos + 32 > len(data):
        raise ProofFormatError("truncated proof: scalar at offset %d runs past "
                               "end of data" % pos, offset=pos, length=len(data))
    return int.from_bytes(data[pos : pos + 32], "little"), pos + 32


def _write_u32(out: bytearray, v: int) -> None:
    out += int(v).to_bytes(4, "little")


def _read_u32(data: bytes, pos: int):
    if pos + 4 > len(data):
        raise ProofFormatError("truncated proof: u32 at offset %d runs past "
                               "end of data" % pos, offset=pos, length=len(data))
    return int.from_bytes(data[pos : pos + 4], "little"), pos + 4


def _read_count(data: bytes, pos: int, what: str):
    n, pos = _read_u32(data, pos)
    if n > _MAX_ITEMS:
        raise ProofFormatError("implausible %s count %d (max %d)"
                               % (what, n, _MAX_ITEMS), offset=pos - 4)
    # each counted item is at least 4 bytes; a count the remaining data
    # cannot possibly hold is rejected before any allocation
    if n * 4 > len(data) - pos:
        raise ProofFormatError("%s count %d exceeds remaining %d bytes"
                               % (what, n, len(data) - pos), offset=pos - 4)
    return n, pos


def _write_opening(out: bytearray, opening: OpeningProof) -> None:
    _write_scalar(out, opening.point)
    _write_scalar(out, opening.value)
    _write_u32(out, len(opening.witness))
    out += serialize_scalars(opening.witness)


def _read_opening(data: bytes, pos: int):
    point, pos = _read_scalar(data, pos)
    value, pos = _read_scalar(data, pos)
    n, pos = _read_count(data, pos, "opening witness")
    if n * 32 > len(data) - pos:
        raise ProofFormatError("opening witness of %d scalars exceeds "
                               "remaining %d bytes" % (n, len(data) - pos),
                               offset=pos)
    witness = []
    for _ in range(n):
        w, pos = _read_scalar(data, pos)
        witness.append(w)
    return OpeningProof(point=point, value=value, witness=tuple(witness)), pos


_MAGIC = b"ZKMLPRF1"


def proof_to_bytes(proof: Proof) -> bytes:
    """Serialize a proof to a portable byte string.

    Note the simulated opening witnesses make this much larger than the
    real halo2 serialization; :meth:`Proof.modeled_size_bytes` reports the
    real-system size.
    """
    out = bytearray(_MAGIC)
    for group in (proof.advice_commitments, proof.helper_commitments,
                  proof.quotient_commitments):
        _write_u32(out, len(group))
        for com in group:
            out += com.digest
    _write_u32(out, len(proof.advice_openings))
    for (col, rot) in sorted(proof.advice_openings):
        _write_u32(out, col)
        _write_u32(out, rot & 0xFFFFFFFF)
        _write_opening(out, proof.advice_openings[(col, rot)])
    _write_u32(out, len(proof.quotient_openings))
    for opening in proof.quotient_openings:
        _write_opening(out, opening)
    return bytes(out)


def proof_from_bytes(data: bytes) -> Proof:
    """Inverse of :func:`proof_to_bytes`.

    Every length prefix is validated against the remaining data before
    anything is allocated, so truncated, padded, or hostile inputs raise
    :class:`~repro.resilience.errors.ProofFormatError` (a ``ValueError``
    subclass) rather than producing a garbage proof or an unbounded
    allocation.
    """
    if data[: len(_MAGIC)] != _MAGIC:
        raise ProofFormatError("not a serialized proof (bad magic)",
                               length=len(data))
    pos = len(_MAGIC)
    groups = []
    for group_name in ("advice", "helper", "quotient"):
        n, pos = _read_count(data, pos, "%s commitment" % group_name)
        if n * 32 > len(data) - pos:
            raise ProofFormatError("%d %s commitments exceed remaining %d "
                                   "bytes" % (n, group_name, len(data) - pos),
                                   offset=pos)
        commitments = []
        for _ in range(n):
            commitments.append(Commitment(data[pos : pos + 32]))
            pos += 32
        groups.append(commitments)
    n, pos = _read_count(data, pos, "advice opening")
    advice_openings = {}
    for _ in range(n):
        col, pos = _read_u32(data, pos)
        rot_raw, pos = _read_u32(data, pos)
        rot = rot_raw - (1 << 32) if rot_raw >= (1 << 31) else rot_raw
        if (col, rot) in advice_openings:
            raise ProofFormatError("duplicate advice opening for column %d "
                                   "rotation %d" % (col, rot), offset=pos)
        opening, pos = _read_opening(data, pos)
        advice_openings[(col, rot)] = opening
    n, pos = _read_count(data, pos, "quotient opening")
    quotient_openings = []
    for _ in range(n):
        opening, pos = _read_opening(data, pos)
        quotient_openings.append(opening)
    if pos != len(data):
        raise ProofFormatError("trailing bytes in serialized proof",
                               offset=pos, length=len(data))
    return Proof(
        advice_commitments=groups[0],
        helper_commitments=groups[1],
        quotient_commitments=groups[2],
        advice_openings=advice_openings,
        quotient_openings=quotient_openings,
    )
