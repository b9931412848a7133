"""The vectorized prover paths must match the per-row reference exactly.

Three layers of equivalence, on real circuits' expressions:

- store mode of the register tape (phase 2's columnwise helper vectors)
  against a per-row ``Expression.evaluate`` loop;
- the key's quotient tape (the constraint fold) against per-row
  evaluation plus a scalar Horner fold over the extended coset;
- whole proofs: the compiled kernel vs the numpy oracle of
  ``tests/oracle.py`` must serialize (and pickle) to identical bytes,
  under keys with identical digests, and each one's verifier must accept
  the other's proof.

Random expression DAGs are held to per-row evaluation in
``test_tape.py``; the prover's other row-sequential kernels (the
coset-part quotient, lookup multiplicities, running sums) to per-row
references in ``test_prover_internals.py``.
"""

import pickle
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commit import scheme_by_name
from repro.field import GOLDILOCKS, gl64
from repro.field.vector import GL64Backend
from repro.halo2 import create_proof, keygen, proof_to_bytes
from repro.halo2.verifier import verify_proof_strict
from repro.halo2.column import Column, ColumnType
from repro.halo2.shape import ALPHA, BETA, GAMMA, THETA, claim_of
from repro.halo2.tape import INSTANCE, Y, compile_stores

from tests.halo2.circuits import (
    mul_circuit,
    prove_on_numpy_tier,
    range_check_circuit,
    relu_lookup_circuit,
)
from tests.oracle import oracle_tier

F = GOLDILOCKS

CHALLENGES = {THETA: 1234567, BETA: 7654321, GAMMA: 31337, ALPHA: 424242}


def _column_values(pk, asg):
    """Base-domain evaluations of every user column, as plain int lists."""
    vk = pk.vk
    values = {}
    for col in set(pk.fixed_evals):
        values[col] = [int(v) for v in pk.fixed_evals[col]]
    for i in range(vk.cs.num_advice):
        col = Column(ColumnType.ADVICE, i)
        values[col] = asg.column_values(col)
    for i in range(vk.cs.num_instance):
        col = Column(ColumnType.INSTANCE, i)
        values[col] = asg.column_values(col)
    return values


def _fill_missing(values, exprs, n):
    """Deterministic pseudo-random data for columns without assignments.

    Helper columns (lookup h/m/s, permutation products) are only computed
    inside the prover; the evaluator equivalences hold for *any* column
    contents, so arbitrary residues are fine here.
    """
    rng = random.Random(0xC0FFEE)
    for expr in exprs:
        for col, _rot in expr.refs():
            if col not in values:
                values[col] = [rng.randrange(F.p) for _ in range(n)]


def _per_row_reference(expr, values, n, challenges):
    out = []
    for row in range(n):
        def read(col, rot, row=row):
            return values[col][(row + rot) % n]

        out.append(expr.evaluate(F, read, challenges))
    return out


def _helper_expressions(vk):
    """Every lookup expression the prover evaluates columnwise in phase 2."""
    exprs = []
    for helpers in vk.lookups:
        for lk in helpers.arguments:
            exprs.extend(lk.inputs)
        exprs.extend(helpers.table)
    return exprs


def _slot_of(vk):
    """The key's column -> tape slot map (as keygen compiles its tapes)."""

    def slot_of(col):
        if col.kind == ColumnType.INSTANCE:
            return (INSTANCE, col.index)
        return claim_of(col, 0, vk.cs.num_advice, vk.fixed_columns)[:2]

    return slot_of


def _column_of(vk, exprs):
    """The inverse of :func:`_slot_of` over the columns ``exprs`` read."""
    slot_of = _slot_of(vk)
    return {slot_of(col): col for expr in exprs for col, _rot in expr.refs()}


CIRCUITS = [
    mul_circuit(),
    range_check_circuit(),
    relu_lookup_circuit(),
]


@pytest.mark.parametrize("circuit", CIRCUITS, ids=["mul", "range", "relu"])
@pytest.mark.parametrize("backend_cls", [GL64Backend])
def test_evaluate_on_lagrange_matches_per_row(circuit, backend_cls):
    """Store mode over the base domain: each expression to its own row."""
    cs, asg = circuit
    scheme = scheme_by_name("kzg", F)
    pk, vk = keygen(cs, asg, scheme)
    backend = backend_cls(F)
    values = _column_values(pk, asg)
    exprs = _helper_expressions(vk) or [expr for _, expr in vk.constraints]
    _fill_missing(values, exprs, vk.n)

    tape = compile_stores(list(enumerate(exprs)), vk.n, _slot_of(vk))
    column_of = _column_of(vk, exprs)
    cols = [backend.from_ints(values[column_of[slot]]) for slot in tape.slots]
    out = np.empty((tape.num_outputs, vk.n), dtype=np.uint64)
    gl64.eval_tape(tape.code, tape.num_regs, cols, tape.bind(F, CHALLENGES), out)
    for row, expr in enumerate(exprs):
        got = backend.to_ints(out[row])
        assert got == _per_row_reference(expr, values, vk.n, CHALLENGES)


@pytest.mark.parametrize("circuit", CIRCUITS, ids=["mul", "range", "relu"])
@pytest.mark.parametrize("backend_cls", [GL64Backend])
def test_quotient_fold_matches_per_row(circuit, backend_cls):
    """The key's own quotient tape, run over the extended coset's parts."""
    cs, asg = circuit
    scheme = scheme_by_name("kzg", F)
    pk, vk = keygen(cs, asg, scheme)
    domain = vk.domain
    n, ext_n = vk.n, domain.extended_n
    extension = ext_n // n
    backend = backend_cls(F)
    constraints = [expr for _, expr in vk.constraints]

    # extended-coset evaluations of every referenced column, via the
    # public int-list domain API (independent of the prover's caches)
    base_values = _column_values(pk, asg)
    _fill_missing(base_values, constraints, n)
    extended = {}
    for expr in constraints:
        for col, _rot in expr.refs():
            if col not in extended:
                poly = domain.lagrange_to_coeff(base_values[col])
                extended[col] = domain.coeff_to_extended(poly)

    # extended index t * extension + r is row t of coset part r
    tape = pk.quotient_tape
    column_of = _column_of(vk, constraints)
    cols = [np.ascontiguousarray(
                backend.from_ints(extended[column_of[slot]]).reshape(n, extension).T)
            for slot in tape.slots]
    y = 987654321
    out = np.empty((1, ext_n), dtype=np.uint64)
    gl64.eval_tape(tape.code, tape.num_regs, cols,
                   tape.bind(F, {**CHALLENGES, Y: y}), out, parts=extension)
    folded = backend.to_ints(out[0])

    reference = [0] * ext_n
    for expr in constraints:
        for row in range(ext_n):
            def read(col, rot, row=row):
                return extended[col][(row + rot * extension) % ext_n]

            value = expr.evaluate(F, read, CHALLENGES)
            reference[row] = F.add(F.mul(reference[row], y), value)

    assert folded == reference


def assert_backends_agree(cs, asg):
    """The compiled kernel and the numpy oracle give one key digest and
    one proof."""
    scheme = scheme_by_name("kzg", F)
    pk_fast, vk_fast = keygen(cs, asg, scheme)
    proof_fast = create_proof(pk_fast, asg, scheme)
    vk_ref, proof_ref = prove_on_numpy_tier(cs, asg, scheme)

    assert vk_fast.digest() == vk_ref.digest()
    assert proof_to_bytes(proof_fast) == proof_to_bytes(proof_ref)
    assert pickle.dumps(proof_fast) == pickle.dumps(proof_ref)
    verify_proof_strict(vk_fast, proof_fast, asg.instance_values(), scheme)
    # and each path's verifier accepts the other's proof
    verify_proof_strict(vk_fast, proof_ref, asg.instance_values(), scheme)
    with oracle_tier():
        verify_proof_strict(vk_ref, proof_fast, asg.instance_values(), scheme)


@pytest.mark.parametrize(
    "circuit", [mul_circuit(), relu_lookup_circuit()], ids=["mul", "relu"]
)
def test_native_proof_matches_numpy_tier(circuit):
    assert_backends_agree(*circuit)


def test_native_proof_matches_numpy_tier_with_folds():
    # k=7: two FRI folds, one committed fold layer, on both paths
    assert_backends_agree(*relu_lookup_circuit(k=7))


def test_concurrent_threads_prove_byte_identically():
    """The serving layer's in-process executor is a thread pool, and the
    Goldilocks kernels keep their temporaries in per-thread scratch: two
    threads proving at once must each produce the serial proof's bytes."""
    scheme = scheme_by_name("kzg", F)
    jobs = []
    for builder, k in ((relu_lookup_circuit, 11), (mul_circuit, 11)):
        cs, asg = builder(k=k)
        pk, _ = keygen(cs, asg, scheme)
        jobs.append((pk, asg, proof_to_bytes(create_proof(pk, asg, scheme))))
    results = {}

    def prove(i):
        pk, asg, _ = jobs[i % len(jobs)]
        results[i] = proof_to_bytes(create_proof(pk, asg, scheme))

    threads = [threading.Thread(target=prove, args=(i,)) for i in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert [results[i] for i in range(4)] == [jobs[i % 2][2] for i in range(4)]


@given(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=-100, max_value=100),
            st.integers(min_value=-100, max_value=100),
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=10, deadline=None)
def test_random_mul_circuits_prove_identically(rows):
    assert_backends_agree(*mul_circuit(rows=rows))


@given(
    values=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=8)
)
@settings(max_examples=10, deadline=None)
def test_random_lookup_circuits_prove_identically(values):
    assert_backends_agree(*range_check_circuit(values=tuple(values)))
