"""BN254, the paper's field, is refused wherever a field enters the prover.

The kernels reduce modulo the Goldilocks prime, so a circuit, a domain, a
commitment or a verifying key over another field would compute wrong
residues rather than fail.  Each entry point instead raises
:class:`~repro.resilience.errors.UnsupportedFieldError` naming Goldilocks:
circuit construction, and ``EvaluationDomain`` construction, which keygen
and ``scheme.commit`` reach without an assignment; the verifier refuses
a key over another field before reading the proof.
"""

import pytest

from repro.commit import scheme_by_name
from repro.field import GOLDILOCKS, EvaluationDomain
from repro.halo2 import ConstraintSystem, create_proof, keygen
from repro.halo2.verifier import verify_proof_strict
from repro.resilience.errors import UnsupportedFieldError

from tests.field.test_prime_field import BN254_FR
from tests.halo2.circuits import mul_circuit

REFUSED = pytest.raises(UnsupportedFieldError, match="Goldilocks")


def test_circuit_construction_refuses_bn254():
    with REFUSED:
        ConstraintSystem(BN254_FR)


def test_domain_construction_refuses_bn254():
    with REFUSED:
        EvaluationDomain(BN254_FR, 4)


def test_keygen_refuses_bn254():
    cs, asg = mul_circuit()
    cs.field = BN254_FR
    with REFUSED:
        keygen(cs, asg, scheme_by_name("kzg", BN254_FR))


@pytest.mark.parametrize("backend", ["kzg", "ipa"])
def test_commit_refuses_bn254(backend):
    with REFUSED:
        scheme_by_name(backend, BN254_FR).commit([1, 2, 3, 4])


def test_verify_refuses_a_key_over_bn254():
    cs, asg = mul_circuit()
    scheme = scheme_by_name("kzg", GOLDILOCKS)
    pk, vk = keygen(cs, asg, scheme)
    proof = create_proof(pk, asg, scheme)
    verify_proof_strict(vk, proof, asg.instance_values(), scheme)
    vk.field = BN254_FR
    with REFUSED:
        verify_proof_strict(vk, proof, asg.instance_values(), scheme)


def test_field_encoding_differs_but_semantics_agree():
    for field in (GOLDILOCKS, BN254_FR):
        assert field.decode_signed(field.encode_signed(-123)) == -123
    assert BN254_FR.encode_signed(-1) != GOLDILOCKS.encode_signed(-1)
