"""Tests for the bit-decomposition ReLU alternative."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gadgets import BitDecompReluGadget, CircuitBuilder, PointwiseGadget
from repro.halo2 import MockProver
from repro.resilience.errors import LayoutError
from repro.tensor import Entry, ShapeTensor


def builder(num_cols=12, **kw):
    kw.setdefault("k", 9)
    kw.setdefault("scale_bits", 4)
    return CircuitBuilder(num_cols=num_cols, **kw)


class TestBitDecompRelu:
    def test_positive(self):
        b = builder()
        g = b.gadget(BitDecompReluGadget, bits=8)
        (y,) = g.assign_row([(Entry(17),)])
        assert y.value == 17
        b.mock_check()

    def test_negative(self):
        b = builder()
        g = b.gadget(BitDecompReluGadget, bits=8)
        (y,) = g.assign_row([(Entry(-17),)])
        assert y.value == 0
        b.mock_check()

    def test_boundary_values(self):
        b = builder(num_cols=20)
        g = b.gadget(BitDecompReluGadget, bits=8)
        for v in (-128, -1, 0, 127):
            (y,) = g.assign_row([(Entry(v),)])
            assert y.value == max(v, 0)
        b.mock_check()

    def test_out_of_range_rejected(self):
        b = builder()
        g = b.gadget(BitDecompReluGadget, bits=8)
        with pytest.raises(ValueError, match="two's complement"):
            g.assign_row([(Entry(128),)])

    def test_needs_no_lookup_table(self):
        b = builder()
        b.gadget(BitDecompReluGadget, bits=8)
        assert not b.cs.lookups

    def test_too_narrow_row_rejected(self):
        b = builder(num_cols=4)
        with pytest.raises(ValueError, match="columns"):
            b.gadget(BitDecompReluGadget, bits=8)

    def test_nonbinary_bit_fails_mock(self):
        b = builder()
        g = b.gadget(BitDecompReluGadget, bits=8)
        (y,) = g.assign_row([(Entry(-3),)])
        # overwrite the sign bit with 0 and the output with the raw value
        sign_col = b.columns[2 + 7]
        b.asg.assign_advice(sign_col, y.cell.row, 0)
        failures = MockProver(b.cs, b.asg).verify()
        assert any(f.kind == "gate" for f in failures)

    def test_apply_vector_packs(self):
        b = builder(num_cols=20, k=9)
        g = b.gadget(BitDecompReluGadget, bits=8)  # 2 slots per row
        outs = g.apply_vector([Entry(v) for v in (-4, 4, -1, 9, 3)])
        assert [o.value for o in outs] == [0, 4, 0, 9, 3]
        assert b.rows_used == 3
        b.mock_check()

    def test_rows_for_ops_bits(self):
        # the count walk's closed form: 2 slots per row at 20 columns
        b = CircuitBuilder(None, num_cols=20, scale_bits=4, lookup_bits=8)
        b.gadget(BitDecompReluGadget, bits=8).apply_vector(
            ShapeTensor((10,)).entries())
        assert b.rows_used == 5
        with pytest.raises(LayoutError):
            CircuitBuilder(None, num_cols=4, scale_bits=4,
                           lookup_bits=8).gadget(BitDecompReluGadget, bits=8)

    @given(x=st.integers(-128, 127))
    @settings(max_examples=20, deadline=None)
    def test_matches_lookup_relu(self, x):
        b = builder(num_cols=12, lookup_bits=8)
        bd = b.gadget(BitDecompReluGadget, bits=8)
        lk = b.gadget(PointwiseGadget, fn_name="relu")
        (y1,) = bd.assign_row([(Entry(x),)])
        (y2,) = lk.assign_row([(Entry(x),)])
        assert y1.value == y2.value == max(x, 0)
        b.mock_check()
