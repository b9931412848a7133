"""Tests for the model zoo."""

import numpy as np
import pytest

from repro.compiler import synthesize_model
from repro.compiler.layouter import check_against_reference
from repro.layers.base import LayoutChoices
from repro.model import (
    PAPER_TABLE5,
    get_model,
    model_names,
    seeded_inputs,
    seeded_paper_model,
)


def test_all_eight_paper_models_present():
    assert model_names() == sorted(PAPER_TABLE5)
    assert len(model_names()) == 8


@pytest.mark.parametrize("name", sorted(PAPER_TABLE5))
class TestPaperScale:
    def test_validates(self, name):
        get_model(name, "paper").validate()

    def test_params_within_25_percent_of_paper(self, name):
        spec = get_model(name, "paper")
        paper_params, _ = PAPER_TABLE5[name]
        ratio = spec.param_count() / paper_params
        assert 0.75 <= ratio <= 1.25, "params off by %.2fx" % ratio

    def test_shape_only(self, name):
        assert not get_model(name, "paper").materialized

    def test_mini_is_materialized_and_small(self, name):
        mini = get_model(name, "mini")
        assert mini.materialized
        assert mini.param_count() < 2000


def test_unknown_model():
    with pytest.raises(KeyError):
        get_model("skynet")


def test_bad_scale():
    with pytest.raises(ValueError):
        get_model("mnist", "huge")


def test_gpt2_has_transformer_pieces():
    spec = get_model("gpt2", "paper")
    kinds = {l.kind for l in spec.layers}
    assert {"batch_matmul", "softmax", "layer_norm", "gelu", "gather"} <= kinds


def test_mobilenet_uses_depthwise():
    spec = get_model("mobilenet", "paper")
    assert any(l.kind == "depthwise_conv2d" for l in spec.layers)


def test_seeded_paper_model_is_the_paper_graph_with_weights():
    spec, shapes = seeded_paper_model("dlrm"), get_model("dlrm", "paper")
    assert spec.materialized and spec.name == shapes.name
    assert spec.param_count() == shapes.param_count()
    assert [l.kind for l in spec.layers] == [l.kind for l in shapes.layers]
    again = seeded_paper_model("dlrm")
    assert all(np.array_equal(a.params[k], b.params[k])
               for a, b in zip(spec.layers, again.layers) for k in a.params)


def test_seeded_paper_dlrm_synthesizes_to_the_reference():
    # the paper dlrm rung: 764k parameters at k=16 x 20 columns, dot_bias
    spec = seeded_paper_model("dlrm")
    inputs = seeded_inputs(spec, 0)
    synth = synthesize_model(spec, inputs, num_cols=20, k=16,
                             plan=LayoutChoices(linear="dot_bias"))
    check_against_reference(synth, inputs)
