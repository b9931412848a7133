"""Tests for proof byte serialization."""

import pytest

from repro.commit import scheme_by_name
from repro.commit.scheme import OpeningProof
from repro.field import GOLDILOCKS
from repro.halo2 import (
    Proof,
    create_proof,
    keygen,
    proof_from_bytes,
    proof_to_bytes,
    verify_proof,
)

from tests.halo2.circuits import mul_circuit, range_check_circuit

F = GOLDILOCKS


@pytest.fixture(scope="module")
def proved():
    scheme = scheme_by_name("kzg", F)
    cs, asg = mul_circuit()
    pk, vk = keygen(cs, asg, scheme)
    proof = create_proof(pk, asg, scheme)
    return scheme, vk, proof, asg.instance_values()


class TestRoundTrip:
    def test_bytes_round_trip_verifies(self, proved):
        scheme, vk, proof, instance = proved
        data = proof_to_bytes(proof)
        again = proof_from_bytes(data)
        assert verify_proof(vk, again, instance, scheme)

    def test_round_trip_is_identity(self, proved):
        _, _, proof, _ = proved
        again = proof_from_bytes(proof_to_bytes(proof))
        assert again.advice_commitments == proof.advice_commitments
        assert again.helper_commitments == proof.helper_commitments
        assert again.quotient_commitments == proof.quotient_commitments
        assert again.advice_openings == proof.advice_openings
        assert again.quotient_openings == proof.quotient_openings

    def test_deterministic(self, proved):
        _, _, proof, _ = proved
        assert proof_to_bytes(proof) == proof_to_bytes(proof)

    @pytest.mark.parametrize(
        "witness",
        [(0, 1, 2**32, F.p - 1), (3, 2**64, 2**255 - 19), ()],
        ids=["packed-64-bit", "wide-per-scalar", "empty"],
    )
    def test_witness_bytes_match_per_scalar_encoding(self, witness):
        opening = OpeningProof(point=5, value=7, witness=witness)
        data = proof_to_bytes(Proof([], [], [], {}, [opening]))
        scalars = b"".join(w.to_bytes(32, "little") for w in witness)
        assert data.endswith(len(witness).to_bytes(4, "little") + scalars)
        assert proof_from_bytes(data).quotient_openings == [opening]

    def test_negative_rotations_survive(self):
        scheme = scheme_by_name("ipa", F)
        cs, asg = range_check_circuit()
        pk, vk = keygen(cs, asg, scheme)
        proof = create_proof(pk, asg, scheme)
        again = proof_from_bytes(proof_to_bytes(proof))
        assert verify_proof(vk, again, asg.instance_values(), scheme)


class TestMalformed:
    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            proof_from_bytes(b"NOTPROOF" + b"\x00" * 64)

    def test_trailing_bytes(self, proved):
        _, _, proof, _ = proved
        with pytest.raises(ValueError, match="trailing"):
            proof_from_bytes(proof_to_bytes(proof) + b"\x00")

    def test_corrupted_payload_fails_verification(self, proved):
        scheme, vk, proof, instance = proved
        data = bytearray(proof_to_bytes(proof))
        data[200] ^= 0xFF  # somewhere inside a commitment/opening
        try:
            again = proof_from_bytes(bytes(data))
        except ValueError:
            return  # rejected at parse time: also fine
        assert not verify_proof(vk, again, instance, scheme)
