"""Tests for proof byte serialization (the ``ZKMLPRF2`` wire format)."""

import dataclasses

import pytest

from repro.commit import FoldOpening, QueryOpening, RowOpening, scheme_by_name
from repro.field import GOLDILOCKS
from repro.halo2 import (
    Proof,
    create_proof,
    keygen,
    proof_from_bytes,
    proof_to_bytes,
)
from repro.halo2.verifier import verify_proof_strict
from repro.resilience.errors import ProofFormatError

from tests.halo2.circuits import mul_circuit, range_check_circuit
from tests.verdict import assert_rejected

F = GOLDILOCKS


@pytest.fixture(scope="module")
def proved():
    scheme = scheme_by_name("kzg", F)
    cs, asg = mul_circuit()
    pk, vk = keygen(cs, asg, scheme)
    proof = create_proof(pk, asg, scheme)
    return scheme, vk, proof, asg.instance_values()


def one_row_proof(values):
    """A proof object holding nothing but one opened row."""
    row = RowOpening(values=tuple(values), path=(bytes(32),))
    return Proof(round_roots=[], evals=[], fri_roots=[], final_poly=[],
                 queries=[QueryOpening(rows=(row,), folds=())])


class TestRoundTrip:
    def test_bytes_round_trip_verifies(self, proved):
        scheme, vk, proof, instance = proved
        data = proof_to_bytes(proof)
        again = proof_from_bytes(data)
        verify_proof_strict(vk, again, instance, scheme)

    def test_round_trip_is_identity(self, proved):
        _, _, proof, _ = proved
        again = proof_from_bytes(proof_to_bytes(proof))
        assert again == proof
        for field in dataclasses.fields(Proof):
            assert getattr(again, field.name) == getattr(proof, field.name)

    def test_deterministic(self, proved):
        _, _, proof, _ = proved
        assert proof_to_bytes(proof) == proof_to_bytes(proof)

    @pytest.mark.parametrize(
        "values", [(0, 1, 2**32, F.p - 1), ()], ids=["packed-64-bit", "empty"])
    def test_row_bytes_match_per_scalar_encoding(self, values):
        # scalars travel at the field's width, little-endian, nothing else
        data = proof_to_bytes(one_row_proof(values))
        scalars = b"".join(v.to_bytes(8, "little") for v in values)
        assert data.endswith(scalars + bytes(32))
        assert data[8] == 8
        assert proof_from_bytes(data).queries[0].rows[0].values == values

    def test_scalar_that_does_not_fit_is_a_typed_error(self):
        for bad in (2**64, -1):
            with pytest.raises(ProofFormatError, match="does not fit"):
                proof_to_bytes(one_row_proof((bad,)))

    def test_ragged_queries_cannot_be_encoded(self, proved):
        _, _, proof, _ = proved
        ragged = dataclasses.replace(proof, queries=list(proof.queries))
        first = ragged.queries[0]
        short = dataclasses.replace(first.rows[0], path=first.rows[0].path[:-1])
        ragged.queries[0] = dataclasses.replace(
            first, rows=(short,) + first.rows[1:])
        with pytest.raises(ProofFormatError, match="differ in shape"):
            proof_to_bytes(ragged)

    def test_negative_rotations_survive(self):
        scheme = scheme_by_name("ipa", F)
        cs, asg = range_check_circuit()
        pk, vk = keygen(cs, asg, scheme)
        assert any(rot != 0 for _, _, rot in vk.shape.claims)
        proof = create_proof(pk, asg, scheme)
        again = proof_from_bytes(proof_to_bytes(proof))
        verify_proof_strict(vk, again, asg.instance_values(), scheme)


class TestShape:
    def test_a_proof_is_queries_not_polynomials(self, proved):
        from repro.commit import FRI_QUERIES

        _, vk, proof, _ = proved
        assert len(proof.queries) == FRI_QUERIES
        assert len(proof.evals) == len(vk.shape.claims)
        # one row per nonempty round: fixed, advice, helper, quotient
        assert [len(r.values) for r in proof.queries[0].rows] == [
            2 * w for w in vk.shape.round_widths]
        assert all(isinstance(f, FoldOpening) for f in proof.queries[0].folds)
        # k=3: nothing to fold, the final polynomial is G itself
        assert proof.fri_roots == [] and len(proof.final_poly) == vk.n


class TestMalformed:
    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            proof_from_bytes(b"NOTPROOF" + b"\x00" * 64)

    def test_v1_magic_is_refused(self):
        with pytest.raises(ProofFormatError, match="magic"):
            proof_from_bytes(b"ZKMLPRF1" + b"\x00" * 64)

    def test_trailing_bytes(self, proved):
        _, _, proof, _ = proved
        with pytest.raises(ValueError, match="trailing"):
            proof_from_bytes(proof_to_bytes(proof) + b"\x00")

    def test_unknown_scalar_width(self, proved):
        _, _, proof, _ = proved
        data = bytearray(proof_to_bytes(proof))
        for width in (16, 32):
            data[8] = width
            with pytest.raises(ProofFormatError, match="scalar width"):
                proof_from_bytes(bytes(data))

    def test_corrupted_payload_fails_verification(self, proved):
        scheme, vk, proof, instance = proved
        data = bytearray(proof_to_bytes(proof))
        data[200] ^= 0xFF  # somewhere inside a root/evaluation/opening
        try:
            again = proof_from_bytes(bytes(data))
        except ValueError:
            return  # rejected at parse time: also fine
        assert_rejected(vk, again, instance, scheme)
