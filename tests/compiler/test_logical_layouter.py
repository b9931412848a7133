"""Tests for logical layout generation and whole-model synthesis."""

import numpy as np
import pytest

from repro.commit import scheme_by_name
from repro.compiler import (
    LayoutPlan,
    check_against_reference,
    generate_logical_layouts,
    model_families,
    synthesize_model,
)
from repro.field import GOLDILOCKS
from repro.halo2 import create_proof, keygen
from repro.halo2.verifier import verify_proof_strict
from repro.layers.base import LayoutChoices
from repro.model import get_model

rng = np.random.default_rng(31)


def mini_inputs(spec):
    return {k: rng.uniform(-0.5, 0.5, s) for k, s in spec.inputs.items()}


class TestLogicalLayouts:
    def test_families_detected(self):
        spec = get_model("mnist", "mini")
        fams = model_families(spec)
        assert fams["linear"] >= 2
        assert fams["relu"] >= 1

    def test_pruned_is_family_product(self):
        spec = get_model("mnist", "mini")
        plans = generate_logical_layouts(spec, prune=True)
        assert all(p.is_uniform for p in plans)
        # linear(3) x relu(2) x arithmetic(1: no arith layers) = 6
        assert len(plans) == 6

    def test_unpruned_strictly_larger(self):
        spec = get_model("mnist", "mini")
        pruned = generate_logical_layouts(spec, prune=True)
        full = generate_logical_layouts(spec, prune=False)
        assert len(full) > len(pruned)
        assert any(not p.is_uniform for p in full)

    def test_restricted_gadgets_single_layout(self):
        spec = get_model("mnist", "mini")
        plans = generate_logical_layouts(spec, restrict_gadgets=True)
        assert len(plans) == 1
        assert plans[0].base.arithmetic == "dotprod"

    def test_models_without_relu_skip_relu_axis(self):
        spec = get_model("gpt2", "mini")
        plans = generate_logical_layouts(spec)
        assert all(p.base.relu == "lookup" for p in plans)

    def test_layout_plan_override_lookup(self):
        base = LayoutChoices()
        plan = LayoutPlan(base, overrides=(
            ("conv_1", base.replace(linear="freivalds")),))
        assert plan.for_layer("conv_1").linear == "freivalds"
        assert plan.for_layer("other").linear == "dot_bias"


class TestModelSynthesis:
    @pytest.mark.parametrize("name", ["mnist", "dlrm", "gpt2"])
    def test_circuit_matches_fixed_reference(self, name):
        spec = get_model(name, "mini")
        inputs = mini_inputs(spec)
        result = synthesize_model(spec, inputs, num_cols=10, scale_bits=5)
        result.builder.mock_check()
        check_against_reference(result, inputs)

    def test_shape_only_model_rejected(self):
        spec = get_model("gpt2", "paper")
        with pytest.raises(ValueError, match="shape-only"):
            synthesize_model(spec, {})

    def test_missing_inputs_rejected(self):
        spec = get_model("mnist", "mini")
        with pytest.raises(ValueError, match="missing"):
            synthesize_model(spec, {})

    def test_mixed_plan_synthesizes(self):
        spec = get_model("mnist", "mini")
        base = LayoutChoices()
        fc_name = next(l.name for l in spec.layers
                       if l.kind == "fully_connected")
        plan = LayoutPlan(base, overrides=(
            (fc_name, base.replace(linear="dot_sum")),))
        inputs = mini_inputs(spec)
        result = synthesize_model(spec, inputs, plan=plan, num_cols=10,
                                  scale_bits=5)
        result.builder.mock_check()
        check_against_reference(result, inputs)

    def test_end_to_end_proof_of_mnist_mini(self):
        spec = get_model("mnist", "mini")
        inputs = mini_inputs(spec)
        result = synthesize_model(spec, inputs, num_cols=10, scale_bits=5)
        scheme = scheme_by_name("kzg", GOLDILOCKS)
        pk, vk = keygen(result.builder.cs, result.builder.asg, scheme)
        proof = create_proof(pk, result.builder.asg, scheme)
        verify_proof_strict(vk, proof, result.builder.asg.instance_values(),
                            scheme)
