"""Tests for arithmetic gadgets against fixed-point reference semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gadgets import (
    AddGadget,
    CircuitBuilder,
    DivRoundConstGadget,
    MulGadget,
    SquareGadget,
    SquaredDiffGadget,
    SubGadget,
    SumGadget,
)
from repro.halo2 import MockProver
from repro.quantize import div_round
from repro.tensor import Entry


def builder(k=9, num_cols=10, scale_bits=6):
    return CircuitBuilder(k=k, num_cols=num_cols, scale_bits=scale_bits)


class TestAddSub:
    def test_add(self):
        b = builder()
        g = b.gadget(AddGadget)
        (z,) = g.assign_row([(Entry(5), Entry(7))])
        assert z.value == 12
        b.mock_check()

    def test_add_packs_slots(self):
        b = builder(num_cols=9)
        g = b.gadget(AddGadget)
        outs = g.assign_row([(Entry(1), Entry(2)), (Entry(3), Entry(4)),
                             (Entry(-5), Entry(5))])
        assert [o.value for o in outs] == [3, 7, 0]
        assert b.rows_used == 1
        b.mock_check()

    def test_assign_many_spills_rows(self):
        b = builder(num_cols=6)  # 2 slots per row
        g = b.gadget(AddGadget)
        outs = g.assign_many([Entry(i) for i in range(5)],
                             [Entry(i) for i in range(5)])
        assert [o.value for o in outs] == [0, 2, 4, 6, 8]
        assert b.rows_used == 3
        b.mock_check()

    def test_sub_negative_result(self):
        b = builder()
        g = b.gadget(SubGadget)
        (z,) = g.assign_row([(Entry(3), Entry(10))])
        assert z.value == -7
        b.mock_check()

    def test_tampered_output_fails_mock(self):
        b = builder()
        g = b.gadget(AddGadget)
        (z,) = g.assign_row([(Entry(5), Entry(7))])
        b.asg.assign_advice(z.cell.column, z.cell.row, 13)
        failures = MockProver(b.cs, b.asg).verify()
        assert any(f.kind == "gate" for f in failures)


class TestMulRescale:
    def test_mul_matches_reference(self):
        b = builder(scale_bits=6)
        sf = b.fp.factor
        g = b.gadget(MulGadget)
        x, y = b.fp.encode(1.5), b.fp.encode(2.25)
        (z,) = g.assign_row([(Entry(x), Entry(y))])
        assert z.value == div_round(x * y, sf)
        b.mock_check()

    def test_mul_negative(self):
        b = builder(scale_bits=6)
        g = b.gadget(MulGadget)
        x, y = b.fp.encode(-1.5), b.fp.encode(2.0)
        (z,) = g.assign_row([(Entry(x), Entry(y))])
        assert b.fp.decode(z.value) == pytest.approx(-3.0, abs=0.05)
        b.mock_check()

    def test_square(self):
        b = builder(scale_bits=6)
        g = b.gadget(SquareGadget)
        x = b.fp.encode(-2.5)
        (z,) = g.assign_row([(Entry(x),)])
        assert b.fp.decode(z.value) == pytest.approx(6.25, abs=0.05)
        b.mock_check()

    def test_squared_diff(self):
        b = builder(scale_bits=6)
        g = b.gadget(SquaredDiffGadget)
        x, y = b.fp.encode(3.0), b.fp.encode(1.0)
        (z,) = g.assign_row([(Entry(x), Entry(y))])
        assert b.fp.decode(z.value) == pytest.approx(4.0, abs=0.05)
        b.mock_check()

    def test_wrong_quotient_fails_mock(self):
        b = builder(scale_bits=6)
        g = b.gadget(MulGadget)
        (z,) = g.assign_row([(Entry(64), Entry(64))])
        b.asg.assign_advice(z.cell.column, z.cell.row, z.value + 1)
        failures = MockProver(b.cs, b.asg).verify()
        assert failures  # either the gate or the remainder range breaks

    @given(a=st.integers(-500, 500), c=st.integers(-500, 500))
    @settings(max_examples=15, deadline=None)
    def test_mul_property(self, a, c):
        b = builder(scale_bits=4)
        g = b.gadget(MulGadget)
        (z,) = g.assign_row([(Entry(a), Entry(c))])
        assert z.value == div_round(a * c, 16)
        b.mock_check()


class TestSum:
    def test_single_row(self):
        b = builder(num_cols=6)
        g = b.gadget(SumGadget)
        (z,) = g.assign_row([[Entry(v) for v in (1, 2, 3, 4, 5)]])
        assert z.value == 15
        b.mock_check()

    def test_too_many_terms_rejected(self):
        b = builder(num_cols=4)
        g = b.gadget(SumGadget)
        with pytest.raises(ValueError):
            g.assign_row([[Entry(v) for v in range(5)]])

    def test_sum_vector_chains(self):
        b = builder(num_cols=5)  # 4 terms per row
        g = b.gadget(SumGadget)
        z = g.sum_vector([Entry(v) for v in range(10)])
        assert z.value == 45
        assert b.rows_used > 1
        b.mock_check()

    def test_sum_vector_length_one(self):
        b = builder()
        g = b.gadget(SumGadget)
        e = Entry(7)
        assert g.sum_vector([e]) is e


class TestDivRoundConst:
    def test_basic(self):
        b = builder()
        g = b.gadget(DivRoundConstGadget, divisor=10)
        (z,) = g.assign_row([(Entry(25),)])
        assert z.value == 3  # 2.5 rounds up
        b.mock_check()

    def test_negative(self):
        b = builder()
        g = b.gadget(DivRoundConstGadget, divisor=10)
        (z,) = g.assign_row([(Entry(-26),)])
        assert z.value == div_round(-26, 10)
        b.mock_check()

    def test_bad_divisor(self):
        b = builder()
        with pytest.raises(ValueError):
            b.gadget(DivRoundConstGadget, divisor=0)

    def test_distinct_divisors_are_distinct_gadgets(self):
        b = builder()
        g2 = b.gadget(DivRoundConstGadget, divisor=2)
        g3 = b.gadget(DivRoundConstGadget, divisor=3)
        assert g2 is not g3
        (a,) = g2.assign_row([(Entry(7),)])
        (c,) = g3.assign_row([(Entry(7),)])
        assert (a.value, c.value) == (4, 2)
        b.mock_check()
