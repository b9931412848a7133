"""Tests for the multi-row gadget variants (Table 13's counterfactual)."""

import pytest

from repro.gadgets import (
    AddGadget,
    CircuitBuilder,
    DotProdGadget,
    MaxGadget,
    MultiRowAddGadget,
    MultiRowDotGadget,
    MultiRowMaxGadget,
)
from repro.halo2 import MockProver
from repro.tensor import Entry


def builder(**kw):
    kw.setdefault("k", 9)
    kw.setdefault("num_cols", 10)
    kw.setdefault("scale_bits", 5)
    kw.setdefault("lookup_bits", 8)
    return CircuitBuilder(**kw)


class TestMultiRowAdd:
    def test_matches_single_row(self):
        b = builder()
        multi = b.gadget(MultiRowAddGadget)
        single = b.gadget(AddGadget)
        (z1,) = multi.assign_row([(Entry(5), Entry(7))])
        (z2,) = single.assign_row([(Entry(5), Entry(7))])
        assert z1.value == z2.value == 12
        b.mock_check()

    def test_uses_two_rows(self):
        b = builder()
        g = b.gadget(MultiRowAddGadget)
        g.assign_row([(Entry(1), Entry(2))])
        assert b.rows_used == 2

    def test_tampered_next_row_fails(self):
        b = builder()
        g = b.gadget(MultiRowAddGadget)
        (z,) = g.assign_row([(Entry(5), Entry(7))])
        b.asg.assign_advice(z.cell.column, z.cell.row, 13)
        assert MockProver(b.cs, b.asg).verify()


class TestMultiRowMax:
    def test_matches_single_row(self):
        b = builder()
        multi = b.gadget(MultiRowMaxGadget)
        single = b.gadget(MaxGadget)
        (c1,) = multi.assign_row([(Entry(-4), Entry(9))])
        (c2,) = single.assign_row([(Entry(-4), Entry(9))])
        assert c1.value == c2.value == 9
        b.mock_check()

    def test_cheat_fails(self):
        b = builder()
        g = b.gadget(MultiRowMaxGadget)
        (c,) = g.assign_row([(Entry(5), Entry(9))])
        b.asg.assign_advice(c.cell.column, c.cell.row, 5)
        failures = MockProver(b.cs, b.asg).verify()
        assert any(f.kind == "lookup" for f in failures)


class TestMultiRowDot:
    def test_matches_single_row(self):
        b = builder()
        multi = b.gadget(MultiRowDotGadget)
        single = b.gadget(DotProdGadget)
        xs = [Entry(v) for v in (1, 2, 3)]
        ys = [Entry(v) for v in (4, 5, 6)]
        (z1,) = multi.assign_row([(xs, ys)])
        (z2,) = single.assign_row([([Entry(1), Entry(2), Entry(3)],
                                    [Entry(4), Entry(5), Entry(6)])])
        assert z1.value == z2.value == 32
        b.mock_check()

    def test_capacity_is_full_width(self):
        # multi-row dot fits N-1 terms vs single-row's (N-1)//2
        assert MultiRowDotGadget.terms_per_row(10) == 9
        assert DotProdGadget.terms_per_row(10) == 4

    def test_misaligned_rejected(self):
        b = builder()
        g = b.gadget(MultiRowDotGadget)
        with pytest.raises(ValueError):
            g.assign_row([([Entry(1)], [Entry(1), Entry(2)])])


def test_mixed_single_and_multi_row_circuit_proves():
    from repro.commit import scheme_by_name
    from repro.field import GOLDILOCKS
    from repro.halo2 import create_proof, keygen
    from repro.halo2.verifier import verify_proof_strict

    b = builder(k=9)
    add = b.gadget(MultiRowAddGadget)
    mx = b.gadget(MultiRowMaxGadget)
    dot = b.gadget(MultiRowDotGadget)
    (s,) = add.assign_row([(Entry(3), Entry(4))])
    (m,) = mx.assign_row([(s, Entry(5))])
    (z,) = dot.assign_row([([s, m], [Entry(2), Entry(3)])])
    assert z.value == 7 * 2 + 7 * 3
    b.mock_check()
    scheme = scheme_by_name("kzg", GOLDILOCKS)
    pk, vk = keygen(b.cs, b.asg, scheme)
    proof = create_proof(pk, b.asg, scheme)
    verify_proof_strict(vk, proof, b.asg.instance_values(), scheme)
