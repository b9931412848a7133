"""Property-based fuzzing of the proving system.

Random small circuits — random gates over random columns, random copy
constraints, random range lookups — are generated, assigned honest
witnesses, proven, and verified; then a random single-cell corruption is
applied and the proof must be rejected (by the MockProver *and* the real
verifier).  Completeness and soundness, fuzzed.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commit import scheme_by_name
from repro.field import GOLDILOCKS
from repro.halo2 import (
    Assignment,
    ConstraintSystem,
    MockProver,
    Ref,
    create_proof,
    keygen,
)
from repro.halo2.verifier import verify_proof_strict

from tests.verdict import assert_rejected

F = GOLDILOCKS
K = 4  # 16 rows


def build_random_circuit(seed):
    """A random satisfied circuit: chains of a*b+c ops plus copies and a
    range lookup, with honest witnesses."""
    rng = random.Random(seed)
    cs = ConstraintSystem(F)
    cols = [cs.advice_column() for _ in range(4)]
    for c in cols:
        cs.enable_equality(c)
    sel = cs.selector()
    a, b, c, d = (Ref(col) for col in cols)
    cs.create_gate("fma", [a * b + c - d], selector=sel)

    table = cs.fixed_column()
    lookup_sel = cs.selector()
    cs.add_lookup("range", inputs=[Ref(lookup_sel) * (Ref(cols[0]) + 1)],
                  table=[Ref(table)])

    asg = Assignment(cs, K)
    bound = 8
    for row in range(1 << K):
        asg.assign_fixed(table, row, row + 1 if row < bound else 0)

    n_ops = rng.randint(1, 5)
    produced = []
    for i in range(n_ops):
        row = i
        x, y, z = (rng.randrange(0, 4) for _ in range(3))
        asg.assign_advice(cols[0], row, x)
        asg.assign_advice(cols[1], row, y)
        asg.assign_advice(cols[2], row, z)
        asg.assign_advice(cols[3], row, x * y + z)
        asg.enable_selector(sel, row)
        asg.enable_selector(lookup_sel, row)  # x in [0, 8) always holds
        produced.append((cols[3], row, x * y + z))

    # random copy constraints between equal-valued cells (distinct mirror
    # rows so copies never clobber each other)
    mirror_rows = rng.sample(range(n_ops, 1 << K), rng.randint(0, 2))
    for mirror_row in mirror_rows:
        col, row, value = rng.choice(produced)
        asg.assign_advice(cols[0], mirror_row, value)
        asg.copy(col, row, cols[0], mirror_row)

    return cs, asg, cols, n_ops


@given(seed=st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_random_circuits_complete(seed):
    """Honest witnesses always prove and verify (completeness)."""
    cs, asg, _, _ = build_random_circuit(seed)
    MockProver(cs, asg).assert_satisfied()
    scheme = scheme_by_name("kzg", F)
    pk, vk = keygen(cs, asg, scheme)
    proof = create_proof(pk, asg, scheme)
    verify_proof_strict(vk, proof, asg.instance_values(), scheme)


@given(seed=st.integers(0, 10**6), bump=st.integers(1, 100))
@settings(max_examples=10, deadline=None)
def test_random_corruptions_rejected(seed, bump):
    """Corrupting any constrained output cell is always caught (soundness)."""
    cs, asg, cols, n_ops = build_random_circuit(seed)
    rng = random.Random(seed ^ 0xC0FFEE)
    row = rng.randrange(n_ops)
    victim = cols[3]
    original = asg.value(victim, row)
    asg.assign_advice(victim, row, F.add(original, bump))

    failures = MockProver(cs, asg).verify()
    assert failures, "MockProver missed the corruption"

    scheme = scheme_by_name("kzg", F)
    pk, vk = keygen(cs, asg, scheme)
    proof = create_proof(pk, asg, scheme)
    assert_rejected(vk, proof, asg.instance_values(), scheme)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=6, deadline=None)
def test_copy_violations_rejected(seed):
    """Breaking a copy constraint is always caught."""
    cs, asg, cols, n_ops = build_random_circuit(seed)
    if not asg.num_copies:
        return
    col_a, row_a, col_b, row_b = asg.copy_cells()[0]
    asg.assign_advice(col_b, row_b, F.add(asg.value(col_b, row_b), 1))
    assert any(f.kind == "copy" for f in MockProver(cs, asg).verify())
    scheme = scheme_by_name("kzg", F)
    pk, vk = keygen(cs, asg, scheme)
    proof = create_proof(pk, asg, scheme)
    assert_rejected(vk, proof, asg.instance_values(), scheme)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=6, deadline=None)
def test_out_of_range_lookup_rejected(seed):
    """Pushing a looked-up value out of range is always caught."""
    cs, asg, cols, n_ops = build_random_circuit(seed)
    # make row 0's looked-up cell exceed the table while keeping the gate
    # satisfied: x=100, y=0, z=0, d=0
    asg.assign_advice(cols[0], 0, 100)
    asg.assign_advice(cols[1], 0, 0)
    asg.assign_advice(cols[2], 0, 0)
    asg.assign_advice(cols[3], 0, 0)
    failures = MockProver(cs, asg).verify()
    assert any(f.kind == "lookup" for f in failures)
