"""Tests for activation layers across implementations."""

import numpy as np
import pytest

from repro.layers import ACTIVATION_LAYERS
from repro.layers.base import LayoutChoices

from tests.layers.harness import assert_close_to_float, count_layer, run_layer

rng = np.random.default_rng(3)


@pytest.mark.parametrize(
    "fn_name", ["relu", "sigmoid", "tanh", "gelu", "elu", "silu", "relu6",
                "exp", "softplus", "leaky_relu", "hard_sigmoid", "hard_swish",
                "erf", "mish"]
)
def test_activation_matches_reference(fn_name):
    layer = ACTIVATION_LAYERS[fn_name]()
    x = rng.uniform(-2, 2, (3, 4))
    got, _, _ = run_layer(layer, [x])
    # exp amplifies input quantization error by up to e^2
    tol = 0.25 if fn_name == "exp" else 0.1
    assert_close_to_float(layer, [x], {}, got, tol=tol)


@pytest.mark.parametrize(
    "fn_name,domain", [("sqrt", (0.1, 4)), ("rsqrt", (0.3, 4)),
                       ("log", (0.2, 4)), ("reciprocal", (0.3, 4))]
)
def test_positive_domain_activations(fn_name, domain):
    layer = ACTIVATION_LAYERS[fn_name]()
    x = rng.uniform(*domain, (5,))
    got, _, _ = run_layer(layer, [x], scale_bits=5, k=11)
    assert_close_to_float(layer, [x], {}, got, tol=0.25)


class TestReluChoices:
    def test_bitdecomp_matches_lookup(self):
        layer = ACTIVATION_LAYERS["relu"]()
        x = rng.uniform(-2, 2, (2, 6))
        lookup, _, _ = run_layer(layer, [x], choices=LayoutChoices(relu="lookup"))
        bitd, _, _ = run_layer(
            layer, [x],
            choices=LayoutChoices(relu="bitdecomp", relu_bits=10),
            num_cols=13,
        )
        assert (lookup == bitd).all()

    def test_bitdecomp_needs_no_table(self):
        counted = count_layer(ACTIVATION_LAYERS["relu"](), [(2, 2)],
                              LayoutChoices(relu="bitdecomp", relu_bits=6))
        assert counted.table_rows_needed() == 0
        assert counted.num_lookups == 0
        assert counted.cs.num_fixed == 1  # just the constants column

    def test_lookup_needs_table(self):
        counted = count_layer(ACTIVATION_LAYERS["relu"](), [(2, 2)])
        assert counted.table_rows_needed() == 1 << counted.lookup_bits
        assert counted.cs.num_fixed == 3  # constants + the table's in/out

    def test_bitdecomp_only_affects_relu(self):
        counted = count_layer(ACTIVATION_LAYERS["sigmoid"](), [(2,)],
                              LayoutChoices(relu="bitdecomp", relu_bits=6))
        assert counted.num_lookups > 0
        assert counted.cs.num_fixed == 3

    def test_bitdecomp_costs_more_rows_when_narrow(self):
        layer = ACTIVATION_LAYERS["relu"]()
        lookup = count_layer(layer, [(8, 8)], LayoutChoices(), num_cols=12)
        bitd = count_layer(layer, [(8, 8)],
                           LayoutChoices(relu="bitdecomp", relu_bits=10),
                           num_cols=12)
        assert bitd.rows_used > lookup.rows_used
