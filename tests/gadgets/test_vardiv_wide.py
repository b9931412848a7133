"""Tests for the limb-decomposed wide variable division (paper §5.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gadgets import CircuitBuilder, VarDivGadget, VarDivWideGadget
from repro.halo2 import MockProver
from repro.quantize import div_round
from repro.tensor import Entry


def builder(num_cols=10, lookup_bits=6, k=8):
    return CircuitBuilder(k=k, num_cols=num_cols, scale_bits=4,
                          lookup_bits=lookup_bits)


class TestVarDivWide:
    def test_divisor_beyond_narrow_table(self):
        b = builder(lookup_bits=6)  # narrow table bound = 64
        wide = b.gadget(VarDivWideGadget)
        # divisor 500 >> 64: narrow vardiv would refuse, wide handles it
        (c,) = wide.assign_row([(Entry(500), Entry(12345))])
        assert c.value == div_round(12345, 500)
        b.mock_check()

    def test_narrow_gadget_refuses_same_divisor(self):
        b = builder(lookup_bits=6)
        narrow = b.gadget(VarDivGadget)
        with pytest.raises(ValueError, match="limbs"):
            narrow.assign_row([(Entry(500), Entry(12345))])

    def test_small_divisors_also_work(self):
        b = builder()
        wide = b.gadget(VarDivWideGadget)
        (c,) = wide.assign_row([(Entry(3), Entry(10))])
        assert c.value == div_round(10, 3)
        b.mock_check()

    def test_capacity_limit(self):
        b = builder(lookup_bits=4)  # two-limb capacity = 2^8 / 2 = 128
        wide = b.gadget(VarDivWideGadget)
        with pytest.raises(ValueError, match="capacity"):
            wide.assign_row([(Entry(200), Entry(5))])

    def test_zero_divisor_rejected(self):
        b = builder()
        wide = b.gadget(VarDivWideGadget)
        with pytest.raises(ValueError, match="positive"):
            wide.assign_row([(Entry(0), Entry(5))])

    def test_wrong_quotient_fails_mock(self):
        b = builder()
        wide = b.gadget(VarDivWideGadget)
        (c,) = wide.assign_row([(Entry(300), Entry(10000))])
        b.asg.assign_advice(c.cell.column, c.cell.row, c.value + 1)
        assert MockProver(b.cs, b.asg).verify()

    def test_remainder_ge_divisor_fails_mock(self):
        # forging r >= 2a (i.e. claiming a smaller quotient) breaks the
        # d = 2a - r - 1 limb range checks
        b = builder(lookup_bits=6)
        wide = b.gadget(VarDivWideGadget)
        (c,) = wide.assign_row([(Entry(100), Entry(1000))])
        row = c.cell.row
        # claim c-1 and stuff the remainder with +2a
        b.asg.assign_advice(b.columns[2], row, c.value - 1)
        r = 2 * 1000 + 100 - 2 * 100 * (c.value - 1)
        b.asg.assign_advice(b.columns[3], row, r % 64)
        b.asg.assign_advice(b.columns[4], row, r // 64)
        failures = MockProver(b.cs, b.asg).verify()
        assert failures

    def test_end_to_end_proof(self):
        from repro.commit import scheme_by_name
        from repro.field import GOLDILOCKS
        from repro.halo2 import create_proof, keygen
        from repro.halo2.verifier import verify_proof_strict

        b = builder()
        wide = b.gadget(VarDivWideGadget)
        wide.assign_row([(Entry(777), Entry(123456))])
        b.mock_check()
        scheme = scheme_by_name("kzg", GOLDILOCKS)
        pk, vk = keygen(b.cs, b.asg, scheme)
        proof = create_proof(pk, b.asg, scheme)
        verify_proof_strict(vk, proof, b.asg.instance_values(), scheme)

    @given(a=st.integers(1, 2000), num=st.integers(0, 100000))
    @settings(max_examples=20, deadline=None)
    def test_wide_vardiv_property(self, a, num):
        b = builder(lookup_bits=6)
        wide = b.gadget(VarDivWideGadget)
        (c,) = wide.assign_row([(Entry(a), Entry(num))])
        assert c.value == div_round(num, a)
        b.mock_check()


class TestSoftmaxUsesWideDivision:
    def test_many_classes_softmax_still_exact(self):
        import numpy as np

        from repro.layers import SoftmaxLayer
        from tests.layers.harness import run_layer

        layer = SoftmaxLayer()
        x = np.random.default_rng(5).uniform(-2, 2, (16,))
        got, ref, b = run_layer(layer, [x], scale_bits=5, num_cols=10, k=11)
        # wide division gadget was actually configured
        assert any("var_div_wide" in g.name for g in b.cs.gates)

    def test_few_classes_use_narrow(self):
        import numpy as np

        from repro.layers import SoftmaxLayer
        from tests.layers.harness import run_layer

        layer = SoftmaxLayer()
        x = np.random.default_rng(5).uniform(-2, 2, (3,))
        got, ref, b = run_layer(layer, [x], scale_bits=5, num_cols=10, k=11)
        assert any(g.name == "var_div" for g in b.cs.gates)
        assert not any("var_div_wide" in g.name for g in b.cs.gates)
