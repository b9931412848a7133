"""Tests for the dot-product gadgets."""

import numpy as np
import pytest

from repro.gadgets import CircuitBuilder, DotProdBiasGadget, DotProdGadget, SumGadget
from repro.halo2 import MockProver
from repro.tensor import Entry, ShapeTensor, Tensor


def entries(values):
    return [Entry(v) for v in values]


def row(values):
    """One operand row, as ``dots`` takes it."""
    return Tensor.from_entries(entries(values), (1, len(values)))


class TestDotProd:
    def test_single_row(self):
        b = CircuitBuilder(k=8, num_cols=9, scale_bits=4)
        g = b.gadget(DotProdGadget)
        assert g.terms_per_row(9) == 4
        (z,) = g.assign_row([(entries([1, 2, 3, 4]), entries([5, 6, 7, 8]))])
        assert z.value == 1 * 5 + 2 * 6 + 3 * 7 + 4 * 8
        b.mock_check()

    def test_partial_row(self):
        b = CircuitBuilder(k=8, num_cols=9, scale_bits=4)
        g = b.gadget(DotProdGadget)
        (z,) = g.assign_row([(entries([2, 3]), entries([10, 10]))])
        assert z.value == 50
        b.mock_check()

    def test_misaligned_rejected(self):
        b = CircuitBuilder(k=8, num_cols=9, scale_bits=4)
        g = b.gadget(DotProdGadget)
        with pytest.raises(ValueError):
            g.assign_row([(entries([1]), entries([1, 2]))])

    def test_long_dot_product_with_sum(self):
        # paper §5.2: split into ceil(m/n) partials, combine with Sum
        b = CircuitBuilder(k=8, num_cols=7, scale_bits=4)  # 3 terms/row
        dot = b.gadget(DotProdGadget)
        summed = b.gadget(SumGadget)
        xs, ys = list(range(1, 11)), list(range(10, 0, -1))
        partials = []
        for s in range(0, 10, 3):
            (z,) = dot.assign_row([(entries(xs[s:s + 3]), entries(ys[s:s + 3]))])
            partials.append(z)
        total = summed.sum_vector(partials)
        assert total.value == sum(x * y for x, y in zip(xs, ys))
        b.mock_check()


class TestDotProdBias:
    def test_single_row_with_bias(self):
        b = CircuitBuilder(k=8, num_cols=10, scale_bits=4)
        g = b.gadget(DotProdBiasGadget)
        assert g.terms_per_row(10) == 4
        (z,) = g.assign_row([(entries([1, 2]), entries([3, 4]), Entry(100))])
        assert z.value == 100 + 3 + 8
        b.mock_check()

    def test_chained_accumulation(self):
        # paper §5.2: first bias is the real bias, then chain accumulators
        b = CircuitBuilder(k=8, num_cols=8, scale_bits=4)  # 3 terms/row
        g = b.gadget(DotProdBiasGadget)
        xs, ys = list(range(1, 8)), list(range(7, 0, -1))
        (z,) = g.dots(row(xs), row(ys), Entry(1000))
        assert z.value == 1000 + sum(x * y for x, y in zip(xs, ys))
        assert b.rows_used == 3
        b.mock_check()

    def test_tampered_accumulator_fails(self):
        b = CircuitBuilder(k=8, num_cols=8, scale_bits=4)
        g = b.gadget(DotProdBiasGadget)
        (z,) = g.dots(row([1, 2, 3, 4]), row([1, 1, 1, 1]), Entry(0))
        assert z.value == 10
        b.asg.assign_advice(z.cell.column, z.cell.row, 11)
        failures = MockProver(b.cs, b.asg).verify()
        assert any(f.kind == "gate" for f in failures)


def test_both_variants_agree():
    b = CircuitBuilder(k=8, num_cols=11, scale_bits=4)
    xs, ys = list(range(1, 14)), [3] * 13
    dot = b.gadget(DotProdGadget)
    summed = b.gadget(SumGadget)
    n = dot.terms_per_row(11)
    partials = []
    for s in range(0, 13, n):
        (z,) = dot.assign_row([(entries(xs[s:s + n]), entries(ys[s:s + n]))])
        partials.append(z)
    via_sum = summed.sum_vector(partials)
    bias_g = b.gadget(DotProdBiasGadget)
    (via_chain,) = bias_g.dots(row(xs), row(ys))
    assert via_sum.value == via_chain.value == sum(x * 3 for x in xs)
    b.mock_check()


@pytest.mark.parametrize("gadget", [DotProdGadget, DotProdBiasGadget])
class TestDots:
    """One ``dots`` call lays every dot of a layer: each is its operand
    rows' exact dot plus its y-row's bias, and the count walk claims the
    rows the call fills."""

    def matmul(self, b, gadget, a, w, bias):
        g = b.gadget(gadget)
        xs = Tensor.from_values(a)
        ys = Tensor.from_values(w).transpose()
        return g.dots(xs, ys, None if bias is None else entries(bias))

    @pytest.mark.parametrize("with_bias", [False, True])
    def test_every_pair_is_one_dot(self, gadget, with_bias):
        rng = np.random.default_rng(5)
        a, w = rng.integers(-50, 50, (3, 11)), rng.integers(-50, 50, (11, 4))
        bias = rng.integers(-500, 500, 4).tolist() if with_bias else None
        b = CircuitBuilder(k=9, num_cols=10, scale_bits=4)
        got = [z.value for z in self.matmul(b, gadget, a, w, bias)]
        want = (a @ w + (0 if bias is None else np.array(bias))).ravel()
        assert got == want.tolist()
        b.mock_check()
        counted = CircuitBuilder(None, 10, 4, 8)
        g = counted.gadget(gadget)
        g.dots(ShapeTensor((3, 11)), ShapeTensor((4, 11)),
               None if bias is None else ShapeTensor((4,)).entries())
        assert counted.rows_used == b.rows_used

    def test_products_beyond_int64_stay_exact(self, gadget):
        big = 1 << 40
        a, w = [[big, -big, big]], [[big], [big], [3]]
        b = CircuitBuilder(k=8, num_cols=10, scale_bits=4)
        (z,) = self.matmul(b, gadget, a, w, None)
        assert z.value == big * big - big * big + 3 * big
        b.mock_check()
