"""Tests for CircuitBuilder bookkeeping and end-to-end gadget proofs."""

import pytest

from repro.commit import scheme_by_name
from repro.compiler.physical import minimal_k
from repro.field import GOLDILOCKS
from repro.gadgets import (
    AddGadget,
    CircuitBuilder,
    MaxGadget,
    MulGadget,
    PointwiseGadget,
)
from repro.halo2 import create_proof, keygen
from repro.halo2.verifier import verify_proof_strict
from repro.tensor import Entry

from tests.verdict import assert_rejected


class TestBuilderBasics:
    def test_too_few_columns(self):
        with pytest.raises(ValueError):
            CircuitBuilder(k=6, num_cols=2, scale_bits=4)

    def test_gadget_instances_cached(self):
        b = CircuitBuilder(k=6, num_cols=6, scale_bits=4)
        assert b.gadget(AddGadget) is b.gadget(AddGadget)

    def test_constants_deduplicated(self):
        b = CircuitBuilder(k=6, num_cols=6, scale_bits=4)
        assert b.constant(5) is b.constant(5)
        assert b.constant(5) is not b.constant(6)

    def test_row_overflow_raises(self):
        b = CircuitBuilder(k=1, num_cols=6, scale_bits=2, lookup_bits=1)
        g = b.gadget(AddGadget)
        g.assign_row([(Entry(1), Entry(1))])
        g.assign_row([(Entry(1), Entry(1))])
        with pytest.raises(ValueError, match="overflow"):
            g.assign_row([(Entry(1), Entry(1))])

    def test_reused_entry_copy_constrained(self):
        b = CircuitBuilder(k=6, num_cols=6, scale_bits=4)
        g = b.gadget(AddGadget)
        x = Entry(5)
        (z1,) = g.assign_row([(x, Entry(1))])
        (z2,) = g.assign_row([(x, Entry(2))])  # x placed twice -> copy
        assert len(b.asg.copies) == 1
        assert (z1.value, z2.value) == (6, 7)
        b.mock_check()

    def test_table_too_large_for_grid(self):
        with pytest.raises(ValueError, match="rows"):
            b = CircuitBuilder(k=4, num_cols=6, scale_bits=4, lookup_bits=6)
            b.gadget(PointwiseGadget, fn_name="relu")

    def test_min_k_accounts_for_tables(self):
        b = CircuitBuilder(k=9, num_cols=6, scale_bits=4, lookup_bits=8)
        b.gadget(PointwiseGadget, fn_name="relu")
        # the table needs 257 rows -> k=9
        assert minimal_k(b.rows_used, b.table_rows_needed(), 8) == 9


class TestEndToEndProofs:
    @pytest.mark.parametrize("backend", ["kzg", "ipa"])
    def test_mixed_gadget_circuit_proves(self, backend):
        b = CircuitBuilder(k=7, num_cols=8, scale_bits=4, lookup_bits=6)
        add = b.gadget(AddGadget)
        mul = b.gadget(MulGadget)
        mx = b.gadget(MaxGadget)
        relu = b.gadget(PointwiseGadget, fn_name="relu")
        (s,) = add.assign_row([(Entry(b.fp.encode(0.5)), Entry(b.fp.encode(0.25)))])
        (m,) = mul.assign_row([(s, Entry(b.fp.encode(-2.0)))])
        (r,) = relu.assign_row([(m,)])
        (c,) = mx.assign_row([(r, s)])
        assert b.fp.decode(c.value) == pytest.approx(0.75, abs=0.1)
        b.mock_check()

        scheme = scheme_by_name(backend, GOLDILOCKS)
        pk, vk = keygen(b.cs, b.asg, scheme)
        proof = create_proof(pk, b.asg, scheme)
        verify_proof_strict(vk, proof, b.asg.instance_values(), scheme)

    def test_tampered_gadget_proof_rejected(self):
        b = CircuitBuilder(k=7, num_cols=8, scale_bits=4, lookup_bits=6)
        mul = b.gadget(MulGadget)
        (z,) = mul.assign_row([(Entry(32), Entry(32))])
        # cheat: claim a different product
        b.asg.assign_advice(z.cell.column, z.cell.row, z.value + 16)
        scheme = scheme_by_name("kzg", GOLDILOCKS)
        pk, vk = keygen(b.cs, b.asg, scheme)
        proof = create_proof(pk, b.asg, scheme)
        assert_rejected(vk, proof, b.asg.instance_values(), scheme)
