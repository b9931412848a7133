"""Tests for the linear layers across all three implementations."""

import numpy as np
import pytest

from repro.layers import (
    BatchMatMulLayer,
    Conv2DLayer,
    DepthwiseConv2DLayer,
    FullyConnectedLayer,
)
from repro.layers.base import LayoutChoices

from tests.layers.harness import assert_close_to_float, count_layer, run_layer

rng = np.random.default_rng(11)

LINEAR_CHOICES = [
    LayoutChoices(linear="dot_bias"),
    LayoutChoices(linear="dot_sum"),
    LayoutChoices(linear="freivalds"),
]
IDS = ["dot_bias", "dot_sum", "freivalds"]


@pytest.mark.parametrize("choices", LINEAR_CHOICES, ids=IDS)
class TestFullyConnected:
    def test_matvec(self, choices):
        layer = FullyConnectedLayer(units=3)
        x = rng.uniform(-1, 1, (1, 5))
        params = {"weight": rng.uniform(-1, 1, (5, 3)),
                  "bias": rng.uniform(-0.5, 0.5, (3,))}
        got, _, _ = run_layer(layer, [x], params, choices=choices)
        assert_close_to_float(layer, [x], params, got, tol=0.3)

    def test_matmul_batch(self, choices):
        layer = FullyConnectedLayer(units=4)
        x = rng.uniform(-1, 1, (3, 6))
        params = {"weight": rng.uniform(-1, 1, (6, 4)),
                  "bias": rng.uniform(-0.5, 0.5, (4,))}
        got, _, _ = run_layer(layer, [x], params, choices=choices)
        assert got.shape == (3, 4)
        assert_close_to_float(layer, [x], params, got, tol=0.3)

    def test_long_inner_dimension(self, choices):
        layer = FullyConnectedLayer(units=2)
        x = rng.uniform(-0.5, 0.5, (1, 23))  # forces multi-row dots
        params = {"weight": rng.uniform(-0.5, 0.5, (23, 2)),
                  "bias": np.zeros(2)}
        got, _, _ = run_layer(layer, [x], params, choices=choices)
        assert_close_to_float(layer, [x], params, got, tol=0.4)


@pytest.mark.parametrize("choices", LINEAR_CHOICES, ids=IDS)
class TestConv2D:
    def test_same_padding(self, choices):
        layer = Conv2DLayer(kernel=(3, 3), filters=2, stride=1, padding="same")
        x = rng.uniform(-1, 1, (4, 4, 2))
        params = {"weight": rng.uniform(-0.5, 0.5, (3, 3, 2, 2)),
                  "bias": rng.uniform(-0.2, 0.2, (2,))}
        got, _, _ = run_layer(layer, [x], params, choices=choices)
        assert got.shape == (4, 4, 2)
        assert_close_to_float(layer, [x], params, got, tol=0.5)

    def test_valid_padding_stride2(self, choices):
        layer = Conv2DLayer(kernel=(2, 2), filters=3, stride=2, padding="valid")
        x = rng.uniform(-1, 1, (4, 4, 1))
        params = {"weight": rng.uniform(-0.5, 0.5, (2, 2, 1, 3)),
                  "bias": np.zeros(3)}
        got, _, _ = run_layer(layer, [x], params, choices=choices)
        assert got.shape == (2, 2, 3)
        assert_close_to_float(layer, [x], params, got, tol=0.4)


class TestDepthwiseConv2D:
    @pytest.mark.parametrize("choices", LINEAR_CHOICES, ids=IDS)
    def test_depthwise(self, choices):
        layer = DepthwiseConv2DLayer(kernel=(3, 3), multiplier=1, stride=1,
                                     padding="same")
        x = rng.uniform(-1, 1, (4, 4, 2))
        params = {"weight": rng.uniform(-0.5, 0.5, (3, 3, 2, 1)),
                  "bias": rng.uniform(-0.2, 0.2, (2,))}
        got, _, _ = run_layer(layer, [x], params, choices=choices)
        assert got.shape == (4, 4, 2)
        assert_close_to_float(layer, [x], params, got, tol=0.4)

    def test_multiplier(self):
        layer = DepthwiseConv2DLayer(kernel=(2, 2), multiplier=2, stride=1,
                                     padding="valid")
        x = rng.uniform(-1, 1, (3, 3, 2))
        params = {"weight": rng.uniform(-0.5, 0.5, (2, 2, 2, 2)),
                  "bias": np.zeros(4)}
        got, _, _ = run_layer(layer, [x], params)
        assert got.shape == (2, 2, 4)


@pytest.mark.parametrize("choices", LINEAR_CHOICES, ids=IDS)
class TestBatchMatMul:
    def test_batched(self, choices):
        layer = BatchMatMulLayer()
        a = rng.uniform(-1, 1, (2, 3, 4))
        b = rng.uniform(-1, 1, (2, 4, 2))
        got, _, _ = run_layer(layer, [a, b], choices=choices)
        assert got.shape == (2, 3, 2)
        assert_close_to_float(layer, [a, b], {}, got, tol=0.4)


class TestFreivaldsEconomics:
    def test_freivalds_uses_fewer_rows_for_large_matmul(self):
        layer = BatchMatMulLayer()
        shapes = [(32, 32), (32, 32)]
        naive = count_layer(layer, shapes,
                            LayoutChoices(linear="dot_bias")).rows_used
        freivalds = count_layer(layer, shapes,
                                LayoutChoices(linear="freivalds")).rows_used
        assert freivalds < naive / 3

    def test_freivalds_catches_wrong_product(self):
        # corrupt one output cell of the freivalds-verified product and the
        # copy/gate system must reject
        from repro.gadgets import CircuitBuilder
        from repro.halo2 import MockProver
        from repro.tensor import Tensor

        layer = BatchMatMulLayer()
        builder = CircuitBuilder(k=11, num_cols=10, scale_bits=5)
        a = Tensor.from_values(builder.fp.encode_array(rng.uniform(-1, 1, (1, 3, 3))))
        b = Tensor.from_values(builder.fp.encode_array(rng.uniform(-1, 1, (1, 3, 3))))
        out = layer.synthesize(builder, [a, b], {},
                               LayoutChoices(linear="freivalds"))
        victim = out.entries()[0]
        builder.asg.assign_advice(victim.cell.column, victim.cell.row,
                                  victim.value + 1)
        failures = MockProver(builder.cs, builder.asg).verify()
        assert failures
