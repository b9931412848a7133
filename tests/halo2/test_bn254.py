"""End-to-end proving over the BN254 scalar field (the paper's field).

Goldilocks is the default for speed; this checks the whole stack is
field-generic by proving and verifying over BN254-Fr, including a gadget
circuit with lookups.
"""

import dataclasses

import pytest

from repro.commit import scheme_by_name
from repro.envelope import (
    ProofEnvelope,
    decode_envelope,
    envelope_config_digest,
    verify_envelope,
)
from repro.field import BN254_FR
from repro.gadgets import AddGadget, CircuitBuilder, MulGadget, PointwiseGadget
from repro.halo2 import (
    Assignment,
    ConstraintSystem,
    Ref,
    create_proof,
    keygen,
    verify_proof,
)
from repro.halo2.proof import proof_to_bytes
from repro.resilience.errors import EnvelopeError, VerificationFailure
from repro.tensor import Entry


@pytest.mark.parametrize("backend", ["kzg", "ipa"])
def test_plain_circuit_over_bn254(backend):
    cs = ConstraintSystem(BN254_FR)
    a, b, c = cs.advice_column(), cs.advice_column(), cs.advice_column()
    sel = cs.selector()
    cs.enable_equality(a)
    cs.enable_equality(c)
    cs.create_gate("mul", [Ref(a) * Ref(b) - Ref(c)], selector=sel)
    asg = Assignment(cs, 3)
    asg.assign_advice(a, 0, 6)
    asg.assign_advice(b, 0, 7)
    asg.assign_advice(c, 0, 42)
    asg.enable_selector(sel, 0)
    asg.assign_advice(a, 1, 42)
    asg.copy(c, 0, a, 1)

    scheme = scheme_by_name(backend, BN254_FR)
    pk, vk = keygen(cs, asg, scheme)
    proof = create_proof(pk, asg, scheme)
    assert verify_proof(vk, proof, asg.instance_values(), scheme)

    # and a violated gate is rejected
    asg.assign_advice(c, 0, 43)
    asg.assign_advice(a, 1, 43)
    pk2, vk2 = keygen(cs, asg, scheme)
    bad = create_proof(pk2, asg, scheme)
    assert not verify_proof(vk2, bad, asg.instance_values(), scheme)


def _gadget_circuit():
    """add -> mul -> relu over BN254-Fr, with the result exposed."""
    b = CircuitBuilder(k=7, num_cols=8, scale_bits=4, lookup_bits=6,
                       field=BN254_FR)
    add = b.gadget(AddGadget)
    mul = b.gadget(MulGadget)
    relu = b.gadget(PointwiseGadget, fn_name="relu")
    (s,) = add.assign_row([(Entry(b.fp.encode(0.5)), Entry(b.fp.encode(-1.0)))])
    (m,) = mul.assign_row([(s, Entry(b.fp.encode(2.0)))])
    (r,) = relu.assign_row([(m,)])
    assert r.value == 0  # relu(-1.0) at any scale
    b.expose([r])
    b.mock_check()
    return b


def test_gadget_circuit_with_lookups_over_bn254():
    b = _gadget_circuit()
    scheme = scheme_by_name("kzg", BN254_FR)
    pk, vk = keygen(b.cs, b.asg, scheme)
    proof = create_proof(pk, b.asg, scheme)
    assert verify_proof(vk, proof, b.asg.instance_values(), scheme)


def test_envelope_verifies_over_the_keys_field():
    # the verifier takes its field from the key: nobody has to tell
    # verify_envelope that this proof lives over BN254-Fr
    b = _gadget_circuit()
    scheme = scheme_by_name("kzg", BN254_FR)
    pk, vk = keygen(b.cs, b.asg, scheme)
    env = ProofEnvelope(
        scheme_name="kzg",
        model="bn254-gadgets",
        vk_hash=vk.digest(),
        config_digest=envelope_config_digest(8, 4, 7, 6),
        instance=b.asg.instance_values(),
        proof_bytes=proof_to_bytes(create_proof(pk, b.asg, scheme)),
        scalar_bytes=32,
    )
    assert verify_envelope(env, vk) is True
    assert decode_envelope(env.encode()).scalar_bytes == 32

    # the width is part of the statement: an 8-byte envelope cannot even
    # carry these public inputs, and one that claims 8 is not for this key
    narrow = dataclasses.replace(
        env, scalar_bytes=8, instance=[list(col) for col in env.instance])
    with pytest.raises(VerificationFailure, match="8 bytes wide"):
        verify_envelope(narrow, vk)
    narrow.instance[0][0] = BN254_FR.p - 1
    with pytest.raises(EnvelopeError, match="does not fit 8 bytes"):
        narrow.encode()

    env.instance[0][0] = BN254_FR.add(env.instance[0][0], 1)
    with pytest.raises(VerificationFailure):
        verify_envelope(env, vk)


def test_field_encoding_differs_but_semantics_agree():
    from repro.field import GOLDILOCKS

    for field in (GOLDILOCKS, BN254_FR):
        assert field.decode_signed(field.encode_signed(-123)) == -123
    assert BN254_FR.encode_signed(-1) != GOLDILOCKS.encode_signed(-1)
