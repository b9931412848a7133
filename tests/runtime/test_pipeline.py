"""Tests for the end-to-end prove/verify pipeline."""

import dataclasses

import numpy as np
import pytest

from repro.envelope import verify_envelope
from repro.halo2.proof import proof_to_bytes
from repro.model import get_model
from repro.resilience.errors import VerificationFailure
from repro.runtime import prove_batch, prove_model

rng = np.random.default_rng(41)


def mini_inputs(spec):
    return {k: rng.uniform(-0.5, 0.5, s) for k, s in spec.inputs.items()}


@pytest.fixture(scope="module")
def mnist_result():
    spec = get_model("mnist", "mini")
    return spec, prove_model(spec, mini_inputs(spec), scheme_name="kzg",
                             num_cols=10, scale_bits=5)


class TestProveModel:
    def test_proof_verifies(self, mnist_result):
        _, result = mnist_result
        assert result.verification_seconds() > 0  # raises if invalid

    def test_outputs_are_public(self, mnist_result):
        spec, result = mnist_result
        flat_outputs = [
            int(v) for name in spec.outputs
            for v in result.outputs[name].reshape(-1)
        ]
        exposed = result.instance[0][: len(flat_outputs)]
        field_p = result.vk.field.p
        decoded = [v - field_p if v > field_p // 2 else v for v in exposed]
        assert decoded == flat_outputs

    def test_wrong_instance_rejected(self, mnist_result):
        _, result = mnist_result
        instance = [list(col) for col in result.instance]
        instance[0][0] += 1
        forged = dataclasses.replace(result.envelope(), instance=instance)
        with pytest.raises(VerificationFailure):
            verify_envelope(forged, result.vk)

    def test_times_recorded(self, mnist_result):
        _, result = mnist_result
        assert result.proving_seconds > 0
        assert result.keygen_seconds > 0
        assert result.modeled_proof_bytes > 1000

    def test_ipa_backend_roundtrip(self):
        spec = get_model("dlrm", "mini")
        result = prove_model(spec, mini_inputs(spec), scheme_name="ipa",
                             num_cols=10, scale_bits=5)
        assert result.envelope().scheme_name == "ipa"
        assert verify_envelope(result.envelope(), result.vk)


def test_environment_cannot_change_what_the_prover_counts(monkeypatch):
    # the prover has no hidden process-pool switch: ZKML_JOBS (deleted)
    # moves neither the operation counts nor a byte of the envelope
    spec = get_model("dlrm", "mini")
    inputs = mini_inputs(spec)
    prove_model(spec, inputs)  # warm the pk cache: keygen counts no ops below
    monkeypatch.delenv("ZKML_JOBS", raising=False)
    plain = prove_model(spec, inputs)
    monkeypatch.setenv("ZKML_JOBS", "2")
    with_env = prove_model(spec, inputs)
    # 45 and 44 with one lookup helper column per lookup
    assert plain.observed_counts["commitments"] == 40
    assert plain.observed_counts["ntt_base"] == 39
    assert with_env.observed_counts == plain.observed_counts
    assert with_env.envelope_bytes() == plain.envelope_bytes()


def prove(spec, batch, **kwargs):
    """The one pipeline through its two doors: ``prove_model`` for a
    batch of one, ``prove_batch`` otherwise."""
    if len(batch) == 1:
        return prove_model(spec, batch[0], **kwargs)
    return prove_batch(spec, batch, **kwargs)


@pytest.mark.parametrize("batch_size", [1, 3])
class TestEveryBatchSize:
    @pytest.fixture()
    def case(self, batch_size):
        spec = get_model("dlrm", "mini")
        batch = [mini_inputs(spec) for _ in range(batch_size)]
        return spec, batch, prove(spec, batch)

    def test_reproving_reproduces_proof(self, case):
        # proving is deterministic: an interrupted prove is resumed by
        # running it again, and the bytes come out the same
        spec, batch, reference = case
        again = prove(spec, batch, use_pk_cache=False)
        assert proof_to_bytes(again.proof) == proof_to_bytes(reference.proof)
        assert again.batch_size == len(batch)
