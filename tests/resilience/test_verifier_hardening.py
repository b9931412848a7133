"""Hardened verifier: malformed proofs are rejected, never crash."""

import dataclasses

import numpy as np
import pytest

from repro.commit import scheme_by_name
from repro.envelope import verify_envelope
from repro.halo2.proof import proof_from_bytes, proof_to_bytes
from repro.halo2.verifier import validate_proof_shape, verify_proof_strict
from repro.model import get_model
from repro.resilience.errors import ProofFormatError, VerificationFailure
from repro.runtime import prove_model

from tests.fuzz import run_proof_fuzz

rng = np.random.default_rng(23)


@pytest.fixture(scope="module")
def proven():
    spec = get_model("dlrm", "mini")
    inputs = {k: rng.uniform(-0.5, 0.5, s) for k, s in spec.inputs.items()}
    result = prove_model(spec, inputs, scheme_name="kzg", num_cols=10,
                         scale_bits=5)
    return result


class TestDeserializerBounds:
    def test_roundtrip_survives(self, proven):
        data = proof_to_bytes(proven.proof)
        again = proof_from_bytes(data)
        assert proof_to_bytes(again) == data

    def test_bad_magic_rejected(self, proven):
        data = b"NOTPROOF" + proof_to_bytes(proven.proof)[8:]
        with pytest.raises(ProofFormatError, match="magic"):
            proof_from_bytes(data)

    def test_every_truncation_rejected_cleanly(self, proven):
        # chop the wire format at a spread of offsets: each prefix must
        # raise ProofFormatError, never IndexError/struct.error/MemoryError
        data = proof_to_bytes(proven.proof)
        for cut in range(0, len(data) - 1, max(1, len(data) // 64)):
            with pytest.raises(ProofFormatError):
                proof_from_bytes(data[:cut])

    def test_trailing_garbage_rejected(self, proven):
        data = proof_to_bytes(proven.proof) + b"\x00"
        with pytest.raises(ProofFormatError, match="trailing"):
            proof_from_bytes(data)

    def test_huge_count_rejected_before_allocation(self, proven):
        # forge a 4 GiB count in every count field of the header (the
        # round-root count sits right after the magic and the width
        # byte): the reader must bail on the length prefix, not loop or
        # allocate
        good = proof_to_bytes(proven.proof)
        proof = proven.proof
        sb = 8
        offsets = [9]
        offsets.append(offsets[-1] + 4 + 32 * len(proof.round_roots))
        offsets.append(offsets[-1] + 4 + sb * len(proof.evals))
        offsets.append(offsets[-1] + 4 + 32 * len(proof.fri_roots))
        offsets.append(offsets[-1] + 4 + sb * len(proof.final_poly))
        offsets += [offsets[-1] + 4 * i for i in range(1, 9)]
        for offset in offsets:
            data = bytearray(good)
            data[offset : offset + 4] = (0xFFFFFFFF).to_bytes(4, "little")
            with pytest.raises(ProofFormatError, match="implausible|count"):
                proof_from_bytes(bytes(data))


class TestShapeValidation:
    def test_wrong_scheme_rejected_typed(self, proven):
        # an ipa verifier fed a kzg proof must reject, not crash
        ipa = scheme_by_name("ipa", proven.vk.field)
        with pytest.raises((ProofFormatError, VerificationFailure)):
            verify_proof_strict(proven.vk, proven.proof, proven.instance, ipa)

    def test_tampered_instance_rejected(self, proven):
        # accept is True, reject is an exception: there is no False
        env = proven.envelope()
        assert verify_envelope(env, proven.vk) is True
        forged = [list(col) for col in proven.instance]
        forged[0][0] = (forged[0][0] + 1) % proven.vk.field.p
        with pytest.raises(VerificationFailure):
            verify_envelope(dataclasses.replace(env, instance=forged),
                            proven.vk)

    def test_out_of_field_scalar_rejected(self, proven):
        import copy

        p = proven.vk.field.p  # == p: the smallest out-of-field value

        def check(mutant):
            with pytest.raises(ProofFormatError, match="out-of-field"):
                validate_proof_shape(proven.vk, mutant, proven.instance)

        mutant = copy.deepcopy(proven.proof)
        mutant.evals[0] = p
        check(mutant)
        mutant = copy.deepcopy(proven.proof)
        mutant.final_poly[-1] = p
        check(mutant)
        query = proven.proof.queries[5]
        row = dataclasses.replace(query.rows[1],
                                  values=(p,) + query.rows[1].values[1:])
        mutant = copy.deepcopy(proven.proof)
        mutant.queries[5] = dataclasses.replace(
            query, rows=(query.rows[0], row) + query.rows[2:])
        check(mutant)
        fold = dataclasses.replace(query.folds[0],
                                   pair=(query.folds[0].pair[0], p))
        mutant = copy.deepcopy(proven.proof)
        mutant.queries[5] = dataclasses.replace(
            query, folds=(fold,) + query.folds[1:])
        check(mutant)


class TestFuzzLoop:
    def test_200_mutations_all_rejected(self, proven):
        # the acceptance bar: 200 seeded mutations, 100% clean rejection
        scheme = scheme_by_name("kzg", proven.vk.field)
        report = run_proof_fuzz(proven.vk, proven.proof, proven.instance,
                                scheme, iterations=200, seed=0)
        assert report.iterations == 200
        assert report.ok, report.summary()
        assert report.rejected_format + report.rejected_verify == 200

    def test_fuzz_is_deterministic(self, proven):
        scheme = scheme_by_name("kzg", proven.vk.field)
        a = run_proof_fuzz(proven.vk, proven.proof, proven.instance,
                           scheme, iterations=30, seed=5)
        b = run_proof_fuzz(proven.vk, proven.proof, proven.instance,
                           scheme, iterations=30, seed=5)
        assert (a.rejected_format, a.rejected_verify) == \
            (b.rejected_format, b.rejected_verify)
