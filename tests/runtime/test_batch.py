"""Tests for batch proving (one proof, many inferences).

The pipeline is the one ``prove_model`` runs (a single inference is a
batch of one), so what holds for every batch size — serial == parallel
— is parametrised over ``batch_size`` in
``test_pipeline.py``; this file keeps what only a multi-slot proof has,
and the test that the two entry points agree byte for byte.
"""

import dataclasses

import numpy as np
import pytest

from repro.compiler import synthesize_batch
from repro.envelope import verify_envelope
from repro.halo2.proof import proof_to_bytes
from repro.model import GraphBuilder, run_fixed
from repro.resilience.errors import (
    ProvingError,
    SpecError,
    VerificationFailure,
)
from repro.runtime import pipeline, prove_batch, prove_model

rng = np.random.default_rng(61)


def small_model():
    gb = GraphBuilder("batched", materialize=True, seed=2)
    x = gb.input("x", (1, 4))
    h = gb.fully_connected(x, 4, 3)
    h = gb.activation(h, "relu")
    out = gb.fully_connected(h, 3, 2)
    return gb.build([out])


@pytest.fixture(scope="module")
def batch_result():
    spec = small_model()
    inputs = [{"x": rng.uniform(-1, 1, (1, 4))} for _ in range(3)]
    return spec, inputs, prove_batch(spec, inputs, num_cols=10, scale_bits=6)


class TestBatchProve:
    def test_single_proof_verifies(self, batch_result):
        _, _, result = batch_result
        assert result.batch_size == 3
        assert result.verify()

    def test_outputs_match_fixed_reference(self, batch_result):
        spec, inputs, result = batch_result
        for i, inp in enumerate(inputs):
            reference = run_fixed(spec, inp, 6)
            for name in spec.outputs:
                got = result.slot_outputs[i][name]
                want = np.asarray(reference[name], dtype=object)
                assert (got == want).all()

    def test_single_slot_view_refuses_a_multi_slot_result(self, batch_result):
        _, _, result = batch_result
        with pytest.raises(SpecError, match="3 inference slots"):
            result.outputs

    def test_each_inference_has_instance_column(self, batch_result):
        _, _, result = batch_result
        assert len(result.instance) == result.batch_size

    def test_tampering_any_inference_rejected(self, batch_result):
        _, _, result = batch_result
        env = result.envelope()
        for victim in range(result.batch_size):
            forged = [list(col) for col in result.instance]
            forged[victim][0] = (forged[victim][0] + 1) % result.vk.field.p
            with pytest.raises(VerificationFailure):
                verify_envelope(dataclasses.replace(env, instance=forged),
                                result.vk)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            prove_batch(small_model(), [], num_cols=10, scale_bits=6)

    def test_weights_shared_across_batch(self, batch_result):
        # the batch circuit holds the parameters once: its weight fixed
        # columns match a single-inference circuit's
        spec, inputs, result = batch_result
        single = prove_model(spec, inputs[0], num_cols=10, scale_bits=6)
        assert result.vk.cs.num_fixed == single.vk.cs.num_fixed


class TestBatchHardening:
    """A multi-slot proof is as trustworthy as a single-slot one."""

    def test_batch_of_one_matches_prove_model(self, batch_result):
        # the adapter itself: prove_model is prove_batch on [inputs],
        # down to the envelope bytes
        spec, inputs, _ = batch_result
        single = prove_model(spec, inputs[0], num_cols=10, scale_bits=6)
        batch = prove_batch(spec, inputs[:1], num_cols=10, scale_bits=6)
        assert batch.batch_size == 1
        assert batch.envelope_bytes() == single.envelope_bytes()
        for name in spec.outputs:
            assert (batch.outputs[name] == single.outputs[name]).all()
        assert batch.instance == single.instance

    def test_strict_verify_raises_on_tampered_instance(self, batch_result):
        _, _, result = batch_result
        forged = [list(col) for col in result.instance]
        forged[1][0] = (forged[1][0] + 1) % result.vk.field.p
        mutant = dataclasses.replace(result, instance=forged)
        with pytest.raises(VerificationFailure):
            mutant.verify()

    def test_fuzzed_batch_proofs_all_rejected(self, batch_result):
        from tests.fuzz import run_proof_fuzz
        from repro.runtime.pipeline import scheme_by_name

        _, _, result = batch_result
        scheme = scheme_by_name(result.scheme_name, result.vk.field)
        report = run_proof_fuzz(result.vk, result.proof, result.instance,
                                scheme, iterations=40, seed=7)
        assert report.ok, (report.accepted, report.escapes)
        assert report.iterations == 40

    def test_keygen_cache_hit_on_repeat_shape(self, batch_result):
        from repro.perf.pkcache import GLOBAL_PK_CACHE

        spec, inputs, _ = batch_result
        GLOBAL_PK_CACHE.clear()
        cold = prove_batch(spec, inputs, num_cols=10, scale_bits=6)
        warm = prove_batch(spec, inputs, num_cols=10, scale_bits=6)
        assert not cold.keygen_cache_hit
        assert warm.keygen_cache_hit
        assert proof_to_bytes(warm.proof) == proof_to_bytes(cold.proof)


class TestOnePipeline:
    """What a batch only gets because it runs ``prove_model``'s pipeline
    (each of these fails on a tree with a separate batch path)."""

    def test_proving_error_row_is_attributed_to_its_slot_layer(
            self, batch_result, monkeypatch):
        spec, inputs, _ = batch_result
        regions = synthesize_batch(spec, inputs[:2], num_cols=10,
                                   scale_bits=6).builder.regions
        slot = next(r for r in regions if r.name == "inference[1]")
        layer = [r for r in regions
                 if r.kind != "batch" and slot.start <= r.start < slot.end
                 and r.end > r.start][1]
        assert layer.name == spec.layers[1].name

        def failing_prover(*args, **kwargs):
            raise ProvingError("witness does not satisfy the circuit",
                               row=layer.start)

        monkeypatch.setattr(pipeline, "create_proof", failing_prover)
        with pytest.raises(ProvingError) as caught:
            prove_batch(spec, inputs[:2], num_cols=10, scale_bits=6)
        assert caught.value.layer == layer.name
        assert caught.value.region == "%s[%d:%d]" % (
            layer.name, layer.start, layer.end)

    def test_synthesis_lands_every_cell_it_queues(self, batch_result):
        # the builder's queued cells and copies reach the grid inside
        # synthesis, so the keygen span is not billed for them
        spec, inputs, _ = batch_result
        builder = synthesize_batch(spec, inputs[:2], num_cols=10,
                                   scale_bits=6).builder
        assert not (builder._cells or builder._values or builder._homes
                    or builder._copies)

    def test_forced_k_reaches_the_batch_grid(self, batch_result):
        spec, inputs, natural = batch_result
        forced = prove_batch(spec, inputs, num_cols=10, scale_bits=6,
                             k=natural.k + 1)
        assert forced.k == natural.k + 1
        assert forced.verify()

    def test_batch_result_carries_rss_and_the_circuit(self, batch_result):
        spec, inputs, plain = batch_result
        assert plain.synthesized is None
        kept = prove_batch(spec, inputs, num_cols=10, scale_bits=6,
                           keep_synthesized=True)
        assert kept.synthesized.builder.k == kept.k
        assert len(kept.synthesized.slot_outputs) == 3

    def test_layer_spans_nest_under_each_inference(self, batch_result):
        from repro.obs.trace import Tracer

        spec, inputs, _ = batch_result
        tracer = Tracer()
        prove_batch(spec, inputs[:2], num_cols=10, scale_bits=6,
                    tracer=tracer)
        spans = tracer.spans()
        slots = [s for s in spans if s.name.startswith("inference[")]
        assert [s.name for s in slots] == ["inference[0]", "inference[1]"]
        for slot in slots:
            children = [s.name for s in spans
                        if s.parent_id == slot.span_id]
            assert children == ["layer:%s" % l.name for l in spec.layers]

        # a batch of one is prove_model: top-level layers, no wrapper
        tracer = Tracer()
        prove_batch(spec, inputs[:1], num_cols=10, scale_bits=6,
                    tracer=tracer)
        names = [s.name for s in tracer.spans()]
        assert "prove_model" in names and "prove_batch" not in names
        assert not any(n.startswith("inference[") for n in names)
