"""End-to-end prove/verify tests, including negative paths."""

import copy

import pytest

from repro.commit import scheme_by_name
from repro.field import GOLDILOCKS
from repro.halo2 import create_proof, keygen
from repro.halo2.shape import QUOTIENT_ROUND
from repro.halo2.prover import ProvingError
from repro.halo2.verifier import verify_proof_strict

from tests.halo2.circuits import (
    copy_circuit,
    mul_circuit,
    range_check_circuit,
    relu_lookup_circuit,
)
from tests.verdict import assert_rejected

F = GOLDILOCKS


@pytest.fixture(params=["kzg", "ipa"])
def scheme(request):
    return scheme_by_name(request.param, F)


def prove(builder, scheme, **kwargs):
    cs, asg = builder(**kwargs)
    pk, vk = keygen(cs, asg, scheme)
    return asg, vk, create_proof(pk, asg, scheme)


def prove_and_verify(builder, scheme, **kwargs):
    asg, vk, proof = prove(builder, scheme, **kwargs)
    verify_proof_strict(vk, proof, asg.instance_values(), scheme)
    return asg, vk, proof


class TestHonestProofs:
    def test_mul_circuit(self, scheme):
        prove_and_verify(mul_circuit, scheme)

    def test_copy_circuit(self, scheme):
        prove_and_verify(copy_circuit, scheme)

    def test_range_check(self, scheme):
        prove_and_verify(range_check_circuit, scheme)

    def test_relu_lookup(self, scheme):
        prove_and_verify(relu_lookup_circuit, scheme)


class TestDishonestWitnesses:
    def test_gate_violation_rejected(self, scheme):
        asg, vk, proof = prove(mul_circuit, scheme, tamper_row=1)
        assert_rejected(vk, proof, asg.instance_values(), scheme)

    def test_copy_violation_rejected(self, scheme):
        asg, vk, proof = prove(copy_circuit, scheme, break_copy=True)
        assert_rejected(vk, proof, asg.instance_values(), scheme)

    def test_lookup_violation_raises_in_prover(self, scheme):
        cs, asg = range_check_circuit(values=(0, 99))
        pk, vk = keygen(cs, asg, scheme)
        with pytest.raises(ProvingError, match="not in the table"):
            create_proof(pk, asg, scheme)


class TestTamperedProofs:
    def test_wrong_instance_rejected(self, scheme):
        asg, vk, proof = prove_and_verify(mul_circuit, scheme)
        instance = asg.instance_values()
        instance[0][0] = F.add(instance[0][0], 1)
        assert_rejected(vk, proof, instance, scheme)

    def test_tampered_commitment_rejected(self, scheme):
        asg, vk, proof = prove_and_verify(mul_circuit, scheme)
        for i in range(len(proof.round_roots)):
            bad = copy.deepcopy(proof)
            digest = bytearray(bad.round_roots[i])
            digest[0] ^= 1
            bad.round_roots[i] = bytes(digest)
            assert_rejected(vk, bad, asg.instance_values(), scheme)

    def test_tampered_opening_value_rejected(self, scheme):
        asg, vk, proof = prove_and_verify(mul_circuit, scheme)
        for j in range(len(proof.evals)):
            bad = copy.deepcopy(proof)
            bad.evals[j] = F.add(bad.evals[j], 1)
            assert_rejected(vk, bad, asg.instance_values(), scheme)

    def test_dropped_quotient_piece_rejected(self, scheme):
        asg, vk, proof = prove_and_verify(mul_circuit, scheme)
        last_piece = max(j for j, claim in enumerate(vk.shape.claims)
                         if claim[0] == QUOTIENT_ROUND)
        del proof.evals[last_piece]
        assert_rejected(vk, proof, asg.instance_values(), scheme)


class TestProofShape:
    def test_modeled_size_positive_and_backend_dependent(self):
        kzg = scheme_by_name("kzg", F)
        ipa = scheme_by_name("ipa", F)
        _, vk_k, _ = prove_and_verify(mul_circuit, kzg)
        _, vk_i, _ = prove_and_verify(mul_circuit, ipa)
        size_k = vk_k.modeled_proof_bytes(kzg)
        size_i = vk_i.modeled_proof_bytes(ipa)
        assert size_k > 0
        assert size_i > size_k  # IPA openings grow with k

    def test_wrong_k_assignment_rejected(self, scheme):
        cs, asg = mul_circuit(k=3)
        pk, vk = keygen(cs, asg, scheme)
        _, asg4 = mul_circuit(k=4)
        with pytest.raises(ValueError):
            create_proof(pk, asg4, scheme)
