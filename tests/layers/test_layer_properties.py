"""Property-based tests of layer semantics (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.layers import (
    AddLayer,
    FullyConnectedLayer,
    MulLayer,
    ReduceSumLayer,
    SoftmaxLayer,
    SubLayer,
)
from repro.quantize import FixedPoint

FP = FixedPoint(6)


def fixed_arrays(shape, lo=-200, hi=200):
    return arrays(np.int64, shape,
                  elements=st.integers(lo, hi)).map(
        lambda a: a.astype(object))


@given(a=fixed_arrays((3, 4)), b=fixed_arrays((3, 4)))
@settings(max_examples=25, deadline=None)
def test_add_sub_inverse(a, b):
    added = AddLayer().forward_fixed([a, b], {}, FP)
    back = SubLayer().forward_fixed([added, b], {}, FP)
    assert (back == a).all()


@given(a=fixed_arrays((2, 3)), b=fixed_arrays((2, 3)))
@settings(max_examples=25, deadline=None)
def test_mul_commutative(a, b):
    ab = MulLayer().forward_fixed([a, b], {}, FP)
    ba = MulLayer().forward_fixed([b, a], {}, FP)
    assert (ab == ba).all()


@given(a=fixed_arrays((3, 4)))
@settings(max_examples=25, deadline=None)
def test_reduce_sum_axis_decomposition(a):
    total = ReduceSumLayer().forward_fixed([a], {}, FP)
    by_rows = ReduceSumLayer(axis=1).forward_fixed([a], {}, FP)
    assert total == sum(int(v) for v in by_rows)


@given(x=fixed_arrays((5,), lo=-100, hi=100), shift=st.integers(-50, 50))
@settings(max_examples=25, deadline=None)
def test_softmax_shift_invariant_in_fixed_point(x, shift):
    layer = SoftmaxLayer()
    base = layer.forward_fixed([x], {}, FP)
    shifted = layer.forward_fixed([x + shift], {}, FP)
    # shift invariance is exact in our pipeline: the max-subtraction
    # cancels any constant shift before the exponential table
    assert (base == shifted).all()


@given(x=fixed_arrays((4,), lo=-100, hi=100))
@settings(max_examples=25, deadline=None)
def test_softmax_outputs_sum_near_scale_factor(x):
    out = SoftmaxLayer().forward_fixed([x], {}, FP)
    total = sum(int(v) for v in out)
    # probabilities sum to 1.0 = SF up to per-element rounding
    assert abs(total - FP.factor) <= len(out)


@given(x=fixed_arrays((1, 5), lo=-50, hi=50),
       w=fixed_arrays((5, 3), lo=-50, hi=50))
@settings(max_examples=25, deadline=None)
def test_fully_connected_linearity(x, w):
    layer = FullyConnectedLayer(units=3)
    params = {"weight": w, "bias": np.zeros(3, dtype=object)}
    y1 = layer.forward_fixed([x], params, FP)
    y2 = layer.forward_fixed([2 * x], params, FP)
    # doubling the input doubles the output up to rescale rounding
    diff = np.abs((2 * y1 - y2).astype(np.int64))
    assert diff.max() <= 2


@given(x=fixed_arrays((2, 4), lo=-100, hi=100))
@settings(max_examples=25, deadline=None)
def test_count_rows_positive_and_width_monotone(x):
    from repro.layers import ACTIVATION_LAYERS

    from tests.layers.harness import count_layer

    layer = ACTIVATION_LAYERS["relu"]()
    narrow = count_layer(layer, [x.shape], num_cols=6, scale_bits=6)
    wide = count_layer(layer, [x.shape], num_cols=24, scale_bits=6)
    assert narrow.rows_used >= wide.rows_used >= 1
