"""Tests for elementwise arithmetic and reduction layers."""

import numpy as np
import pytest

from repro.layers import (
    AddLayer,
    DivLayer,
    MulLayer,
    ReduceMeanLayer,
    ReduceSumLayer,
    SquareLayer,
    SquaredDifferenceLayer,
    SubLayer,
)
from repro.layers.base import LayoutChoices

from tests.layers.harness import assert_close_to_float, count_layer, run_layer

rng = np.random.default_rng(7)

CHOICES = [LayoutChoices(arithmetic="custom"), LayoutChoices(arithmetic="dotprod")]
IDS = ["custom", "dotprod"]


@pytest.mark.parametrize("choices", CHOICES, ids=IDS)
class TestBinaryLayers:
    def test_add(self, choices):
        a = rng.uniform(-2, 2, (3, 4))
        b = rng.uniform(-2, 2, (3, 4))
        got, _, _ = run_layer(AddLayer(), [a, b], choices=choices)
        assert_close_to_float(AddLayer(), [a, b], {}, got)

    def test_sub(self, choices):
        a = rng.uniform(-2, 2, (2, 5))
        b = rng.uniform(-2, 2, (2, 5))
        got, _, _ = run_layer(SubLayer(), [a, b], choices=choices)
        assert_close_to_float(SubLayer(), [a, b], {}, got)

    def test_mul(self, choices):
        a = rng.uniform(-1.5, 1.5, (4,))
        b = rng.uniform(-1.5, 1.5, (4,))
        got, _, _ = run_layer(MulLayer(), [a, b], choices=choices)
        assert_close_to_float(MulLayer(), [a, b], {}, got, tol=0.2)

    def test_squared_difference(self, choices):
        a = rng.uniform(-1, 1, (3, 3))
        b = rng.uniform(-1, 1, (3, 3))
        got, _, _ = run_layer(SquaredDifferenceLayer(), [a, b], choices=choices)
        assert_close_to_float(SquaredDifferenceLayer(), [a, b], {}, got, tol=0.2)

    def test_square(self, choices):
        a = rng.uniform(-1.5, 1.5, (6,))
        got, _, _ = run_layer(SquareLayer(), [a], choices=choices)
        assert_close_to_float(SquareLayer(), [a], {}, got, tol=0.2)

    def test_broadcasting(self, choices):
        a = rng.uniform(-1, 1, (3, 4))
        b = rng.uniform(-1, 1, (4,))
        got, ref, _ = run_layer(AddLayer(), [a, b], choices=choices)
        assert got.shape == (3, 4)


class TestDotprodCostsMoreRows:
    def test_add_row_blowup(self):
        shapes = [(8, 8), (8, 8)]
        custom = count_layer(AddLayer(), shapes).rows_used
        dotprod = count_layer(AddLayer(), shapes,
                              LayoutChoices(arithmetic="dotprod")).rows_used
        assert dotprod > 2 * custom

    def test_mul_row_blowup(self):
        shapes = [(8, 8), (8, 8)]
        custom = count_layer(MulLayer(), shapes).rows_used
        dotprod = count_layer(MulLayer(), shapes,
                              LayoutChoices(arithmetic="dotprod")).rows_used
        assert dotprod > 2 * custom


class TestDiv:
    def test_positive_divisor(self):
        a = rng.uniform(-2, 2, (5,))
        b = rng.uniform(0.5, 3, (5,))
        got, _, _ = run_layer(DivLayer(), [a, b])
        assert_close_to_float(DivLayer(), [a, b], {}, got, tol=0.3)


class TestReductions:
    def test_reduce_sum_all(self):
        a = rng.uniform(-1, 1, (4, 3))
        got, _, _ = run_layer(ReduceSumLayer(), [a])
        assert got.shape == ()
        assert_close_to_float(ReduceSumLayer(), [a], {}, got, tol=0.5)

    def test_reduce_sum_axis(self):
        a = rng.uniform(-1, 1, (4, 3))
        layer = ReduceSumLayer(axis=1)
        got, _, _ = run_layer(layer, [a])
        assert got.shape == (4,)
        assert_close_to_float(layer, [a], {}, got, tol=0.5)

    def test_reduce_mean_axis0(self):
        a = rng.uniform(-1, 1, (6, 2))
        layer = ReduceMeanLayer(axis=0)
        got, _, _ = run_layer(layer, [a])
        assert got.shape == (2,)
        assert_close_to_float(layer, [a], {}, got, tol=0.2)

    def test_reduce_mean_all(self):
        a = rng.uniform(-1, 1, (3, 3))
        layer = ReduceMeanLayer()
        got, _, _ = run_layer(layer, [a])
        assert_close_to_float(layer, [a], {}, got, tol=0.2)
