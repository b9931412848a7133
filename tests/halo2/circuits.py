"""Small reference circuits shared by the halo2 tests."""

from unittest import mock

import numpy as np

from repro.field import GOLDILOCKS
from repro.gadgets import AddGadget, CircuitBuilder, MulGadget, PointwiseGadget
from repro.halo2 import Assignment, ConstraintSystem, Ref
from repro.tensor import Entry

from tests.oracle import oracle_tier

F = GOLDILOCKS


def mul_circuit(k=3, rows=None, tamper_row=None):
    """c = a * b on a few rows; c of the last row exposed as public input.

    Returns (cs, assignment).
    """
    cs = ConstraintSystem(F)
    a, b, c = cs.advice_column(), cs.advice_column(), cs.advice_column()
    sel = cs.selector()
    inst = cs.instance_column()
    cs.enable_equality(c)
    cs.enable_equality(inst)
    cs.create_gate("mul", [Ref(a) * Ref(b) - Ref(c)], selector=sel)

    rows = rows or [(2, 3), (4, 5), (7, 7)]
    asg = Assignment(cs, k)
    for row, (x, y) in enumerate(rows):
        asg.assign_advice(a, row, x)
        asg.assign_advice(b, row, y)
        product = x * y
        if tamper_row == row:
            product += 1
        asg.assign_advice(c, row, product)
        asg.enable_selector(sel, row)
    last = len(rows) - 1
    asg.assign_instance(inst, 0, rows[last][0] * rows[last][1])
    asg.copy(c, last, inst, 0)
    return cs, asg


def copy_circuit(k=3, break_copy=False):
    """Two advice columns with a copy constraint between two cells."""
    cs = ConstraintSystem(F)
    a, b = cs.advice_column(), cs.advice_column()
    cs.enable_equality(a)
    cs.enable_equality(b)
    asg = Assignment(cs, k)
    asg.assign_advice(a, 1, 42)
    asg.assign_advice(b, 5, 43 if break_copy else 42)
    asg.copy(a, 1, b, 5)
    return cs, asg


def range_check_circuit(k=4, values=(0, 1, 5, 15), bound=16):
    """Each value must lie in [0, bound) via a lookup into a fixed table."""
    cs = ConstraintSystem(F)
    a = cs.advice_column()
    table = cs.fixed_column()
    cs.add_lookup("range", inputs=[Ref(a)], table=[Ref(table)])
    asg = Assignment(cs, k)
    for row in range(asg.n):
        asg.assign_fixed(table, row, row if row < bound else 0)
    for row, v in enumerate(values):
        asg.assign_advice(a, row, v)
    # unassigned advice rows read as 0, which the table contains
    return cs, asg


def relu_lookup_circuit(k=5, pairs=((3, 3), (0, 0), (-4, 0))):
    """(x, relu(x)) pairs checked against a two-column lookup table."""
    cs = ConstraintSystem(F)
    x_col, y_col = cs.advice_column(), cs.advice_column()
    t_in, t_out = cs.fixed_column(), cs.fixed_column()
    cs.add_lookup("relu", inputs=[Ref(x_col), Ref(y_col)], table=[Ref(t_in), Ref(t_out)])
    asg = Assignment(cs, k)
    half = asg.n // 2
    # table covers x in [-half, half)
    for row in range(asg.n):
        x = row - half
        asg.assign_fixed(t_in, row, x)
        asg.assign_fixed(t_out, row, max(x, 0))
    for row, (x, y) in enumerate(pairs):
        asg.assign_advice(x_col, row, x)
        asg.assign_advice(y_col, row, y)
    # remaining rows: (0, 0) is in the table
    return cs, asg


def gadget_circuit():
    """add -> mul -> relu through the gadget builder (a k=7 circuit with
    lookups), with the result exposed; returns the builder."""
    b = CircuitBuilder(k=7, num_cols=8, scale_bits=4, lookup_bits=6)
    add = b.gadget(AddGadget)
    mul = b.gadget(MulGadget)
    relu = b.gadget(PointwiseGadget, fn_name="relu")
    (s,) = add.assign_row([(Entry(b.fp.encode(0.5)), Entry(b.fp.encode(-1.0)))])
    (m,) = mul.assign_row([(s, Entry(b.fp.encode(2.0)))])
    (r,) = relu.assign_row([(m,)])
    assert r.value == 0  # relu(-1.0) at any scale
    b.expose([r])
    b.mock_check()
    return b


def prove_on_numpy_tier(cs, asg, scheme):
    """Keygen + prove on the numpy oracle; returns ``(vk, proof)``."""
    from repro.halo2 import create_proof, keygen

    with oracle_tier():
        pk, vk = keygen(cs, asg, scheme)
        return vk, create_proof(pk, asg, scheme)


def prove_with_columns(pk, asg, scheme):
    """``create_proof``, also returning the base-domain values of every
    advice and helper column (list index = advice column index), captured
    where the prover commits them — a proof itself carries no column."""
    from repro.halo2 import create_proof, prover

    columns = []
    real = prover._interpolate_commit

    def capturing(domain, sch, vecs):
        columns.extend(domain.backend.to_ints(vec) for vec in vecs)
        return real(domain, sch, vecs)

    with mock.patch.object(prover, "_interpolate_commit", capturing):
        proof = create_proof(pk, asg, scheme)
    return proof, columns


def lenient_multiplicities(field, names, f_arrs, t_arr, selectors):
    """The prover's ``_lookup_multiplicities`` minus the membership
    check: an active input the table does not hold is silently left out
    of ``m``, so a forged witness reaches the verifier."""
    first_row_of = {}
    for row, t in enumerate(t_arr.tolist()):
        first_row_of.setdefault(t, row)
    m = np.zeros(len(t_arr), dtype=np.uint64)
    for f_arr, sel in zip(f_arrs, selectors):
        for row, f in enumerate(f_arr.tolist()):
            if (sel is None or sel[row]) and f in first_row_of:
                m[first_row_of[f]] += np.uint64(1)
    return m
