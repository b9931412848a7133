"""The register tape (``repro.halo2.tape``) against per-row evaluation.

Hypothesis draws random expression DAGs — shared subtrees, rotations
that are negative or past ``n``, the constants 0, 1 and ``p - 1``,
``Challenge`` leaves and constant-only subtrees under products —
compiles them in both modes and runs them on the compiled kernel and the
numpy oracle (``tests/oracle.py``):

- fold mode (the quotient): the roots folded with powers of ``y`` over
  ``(parts, n)`` coset parts, each part scaled by its own factor;
- store mode (phase 2's vectors): each root to its own row over the
  base domain.

Both must equal ``Expression.evaluate`` row by row.  The kernel also
reads its columns as strided views and writes a strided ``out``; the
oracle also runs with a few-element ``BLOCK``, so its row blocks, and a
rotated read wrapping across a block boundary, are exercised at small
``n``.  The
last tests hold a gpt2-mini k=12 proof to its budget: one tape call per
phase, one Merkle-tree call per committed tree, a few hundred foreign
calls per proof, and a quotient whose memory is its output plus the
register file.
"""

import collections
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commit import merkle
from repro.field import GOLDILOCKS, gl64, native
from repro.halo2 import prover
from repro.halo2.column import KINDS, Column, ColumnType
from repro.halo2.expression import Challenge, Constant, Ref
from repro.halo2.tape import INSTANCE, Y, compile_fold, compile_stores
from repro.model import get_model, seeded_inputs
from repro.runtime import pipeline, prove_model

from tests import oracle

F = GOLDILOCKS
P = F.p
COLUMNS = [Column(ColumnType.ADVICE, 0), Column(ColumnType.ADVICE, 1),
           Column(ColumnType.FIXED, 0)]
CHALLENGES = {"alpha": 0xDEADBEEF, "beta": P - 3, Y: 987654321}

def slot_of(col):
    return (KINDS.index(col.kind), col.index)


# -- random DAGs ----------------------------------------------------------------

#: Per-row ``Expression.evaluate`` does not memoize, so a node's cost is
#: its tree size; deeper sharing than this would make the reference slow.
MAX_TREE = 400


@st.composite
def dags(draw):
    """``(n, roots)``: a pool of leaves, then nodes over any earlier nodes
    (sharing is the norm), and a few of them as the roots."""
    n = draw(st.sampled_from([1, 2, 3, 5, 8, 13]))
    pool, size = [], {}

    def add(node, cost):
        if cost <= MAX_TREE:
            pool.append(node)
            size[id(node)] = cost

    for _ in range(draw(st.integers(1, 4))):
        add(Ref(draw(st.sampled_from(COLUMNS)),
                draw(st.integers(-2 * n - 1, 2 * n + 1))), 1)
    for _ in range(draw(st.integers(0, 3))):
        add(Constant(draw(st.sampled_from([0, 1, P - 1]) | st.integers(0, P - 1))), 1)
    for _ in range(draw(st.integers(0, 2))):
        add(Challenge(draw(st.sampled_from(sorted(CHALLENGES)))), 1)
    for _ in range(draw(st.integers(1, 20))):
        op = draw(st.sampled_from(["add", "sub", "rsub", "mul", "neg"]))
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        node = {"add": lambda: a + b, "sub": lambda: a - b,
                "rsub": lambda: -a + b, "mul": lambda: a * b,
                "neg": lambda: -a}[op]()
        add(node, 2 + size[id(a)] + (0 if op == "neg" else size[id(b)]))
    roots = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    return n, roots


def column_values(n, parts, seed):
    """``(parts, n)`` residues per column, edge values first."""
    rng = np.random.default_rng(seed)
    values = {}
    for col in COLUMNS:
        v = rng.integers(0, P, parts * n, dtype=np.uint64)
        edges = [0, 1, P - 1, 1 << 63]
        v[: len(edges)] = edges[: parts * n]
        values[col] = v.reshape(parts, n)
    return values


def reference(roots, values, n, parts, fold, scale):
    """Output rows by per-row ``Expression.evaluate``, in the tape's
    layout (part ``r`` of row ``t`` at ``t * parts + r``)."""
    rows = [[0] * (parts * n) for _ in range(1 if fold else len(roots))]
    for r in range(parts):
        for t in range(n):
            def read(col, rot, r=r, t=t):
                return int(values[col][r, (t + rot) % n])

            got = [e.evaluate(F, read, CHALLENGES) for e in roots]
            if fold:
                acc = 0
                for value in got:
                    acc = (acc * CHALLENGES[Y] + value) % P
                got = [acc * scale[r] % P]
            for row, value in zip(rows, got):
                row[t * parts + r] = value
    return rows


def run_every_tier(tape, values, n, parts, scale, strided=False):
    """The tape's output on the kernel (reading strided views of the
    columns and writing a strided ``out`` when ``strided``) and on the
    oracle, with its own and with four-row blocks."""
    col_of = {slot_of(col): col for col in COLUMNS}
    cols = [np.ascontiguousarray(values[col_of[slot]]).reshape(-1) for slot in tape.slots]
    scalars = tape.bind(F, CHALLENGES)
    scale = None if scale is None else np.array(scale, dtype=np.uint64)
    shape = (tape.num_outputs, parts * n)
    outs = {}
    for tier, block in (("native", None), ("numpy", None), ("numpy blocks of 4", 4)):
        if tier == "native":
            if strided:
                cols_in = [np.repeat(c, 2)[::2] for c in cols]
                out = np.zeros((shape[0], 2 * shape[1]), dtype=np.uint64)[:, ::2]
            else:
                cols_in, out = cols, np.empty(shape, dtype=np.uint64)
            calls = []
            lib = native.library()

            class Spy:
                def __getattr__(self, name):
                    calls.append(name)
                    return getattr(lib, name)

            with mock.patch.object(native, "_handle", Spy()):
                gl64.eval_tape(tape.code, tape.num_regs, cols_in, scalars, out,
                               parts=parts, scale=scale)
            assert calls == ["gl_eval_tape"]
        else:
            out = np.empty(shape, dtype=np.uint64)
            with mock.patch.object(oracle, "BLOCK", block or oracle.BLOCK):
                oracle.eval_tape(tape.code, tape.num_regs, cols, scalars, out,
                                 parts=parts, scale=scale)
        outs[tier] = out.tolist()
    return outs


def check_both_modes(roots, n, parts, seed, strided=False):
    values = column_values(n, parts, seed)
    scale = [(seed * 7919 + r) % P for r in range(parts)]
    tape = compile_fold(roots, n, slot_of)
    want = reference(roots, values, n, parts, True, scale)
    for tier, got in run_every_tier(tape, values, n, parts, scale, strided).items():
        assert got == want, ("fold", tier)

    base = {col: v[:1] for col, v in values.items()}
    tape = compile_stores(list(enumerate(roots)), n, slot_of)
    want = reference(roots, base, n, 1, False, None)
    for tier, got in run_every_tier(tape, base, n, 1, None, strided).items():
        assert got == want, ("store", tier)


@settings(max_examples=150, deadline=None)
@given(dag=dags(), parts=st.integers(1, 3), seed=st.integers(0, 2**32),
       strided=st.booleans())
def test_tape_matches_per_row_evaluation(dag, parts, seed, strided):
    n, roots = dag
    check_both_modes(roots, n, parts, seed, strided)


def test_blocks_and_wrapping_reads_past_one_kernel_block():
    """More rows than one compiled-kernel block, reads that wrap across
    block and column ends, a node shared by two roots."""
    a, b = Ref(COLUMNS[0], -1), Ref(COLUMNS[1], 600)
    shared = a * b
    roots = [shared - Ref(COLUMNS[2], -700),
             shared * (Challenge("alpha") - 1) + Constant(P - 1)]
    check_both_modes(roots, 1100, 2, 5)


def test_constant_only_constraints_fold_as_scalars():
    roots = [Constant(3), Challenge("alpha") * 2, Ref(COLUMNS[0], 1) - 1,
             Constant(P - 1)]
    check_both_modes(roots, 8, 2, 11)
    check_both_modes(roots[:2], 8, 2, 12)


def test_register_file_does_not_grow_with_the_constraints():
    def gates(count):
        a, b, c = (Ref(col) for col in COLUMNS)
        return [a * b * Constant(i) - Ref(COLUMNS[2], 1) + c for i in range(count)]

    few, many = compile_fold(gates(4), 16, slot_of), compile_fold(gates(400), 16, slot_of)
    assert len(many.code) > 50 * len(few.code)
    assert many.num_regs == few.num_regs <= 4


# -- a real proof's budget ---------------------------------------------------------


@pytest.fixture(scope="module")
def gpt2_k12():
    """gpt2-mini's proving key and witness at k=12."""
    spec = get_model("gpt2", "mini")
    captured = []
    real = pipeline.create_proof

    def capture(pk, asg, scheme, timer=None):
        captured.append((pk, asg, scheme))
        return real(pk, asg, scheme, timer=timer)

    with mock.patch.object(pipeline, "create_proof", capture):
        prove_model(spec, seeded_inputs(spec, 0), k=12, num_cols=10,
                    scale_bits=5, use_pk_cache=False)
    (case,) = captured
    return case


def test_a_k12_proof_runs_each_tape_in_one_call(gpt2_k12, monkeypatch):
    pk, asg, scheme = gpt2_k12
    lib = native.library()
    calls = collections.Counter()
    where = ["proof"]

    class Spy:
        def __getattr__(self, name):
            calls[where[0], name] += 1
            return getattr(lib, name)

    real_quotient = prover._quotient_extended_np

    def quotient(*args):
        where[0] = "quotient"
        try:
            return real_quotient(*args)
        finally:
            where[0] = "proof"

    monkeypatch.setattr(prover, "_quotient_extended_np", quotient)
    monkeypatch.setattr(native, "_handle", Spy())
    prover.create_proof(pk, asg, scheme)

    in_quotient = {name: k for (at, name), k in calls.items() if at == "quotient"}
    public = any(rnd == INSTANCE for rnd, _ in pk.quotient_tape.slots)
    assert public  # the instance column is extended inside the quotient
    # one inverse NTT, then one coset NTT per part, for the instance
    # columns; everything else is the one tape call
    assert in_quotient == {"gl_eval_tape": 1,
                           "gl_ntt": 1 + pk.vk.domain.extension}
    assert sum(k for (_, name), k in calls.items() if name == "gl_eval_tape") == 2
    # the per-node evaluator the tapes replaced made 1201
    assert sum(calls.values()) <= 400, calls


def test_a_k12_proof_hashes_each_tree_in_one_call(gpt2_k12, monkeypatch):
    """Every tree a proof commits (its rounds, then its FRI layers) is one
    ``gl_merkle_tree`` call, and no digest is hashed in Python."""
    pk, asg, scheme = gpt2_k12
    lib = native.library()
    trees, python_hashes = [], []

    class Spy:
        def __getattr__(self, name):
            if name == "gl_merkle_tree":
                trees.append(name)
            return getattr(lib, name)

    real_blake2b = merkle._blake2b

    def hash_in_python(*args, **kwargs):
        python_hashes.append(args)
        return real_blake2b(*args, **kwargs)

    monkeypatch.setattr(merkle, "_blake2b", hash_in_python)
    monkeypatch.setattr(native, "_handle", Spy())
    proof = prover.create_proof(pk, asg, scheme)
    assert python_hashes == []
    # advice, helpers and quotient, then six fold layers (the fixed round
    # was committed at keygen)
    assert (len(proof.round_roots), len(proof.fri_roots)) == (3, 6)
    assert len(trees) == 9


def test_quotient_memory_is_its_output_plus_the_register_file(gpt2_k12,
                                                              monkeypatch):
    pk, asg, scheme = gpt2_k12
    tape = pk.quotient_tape
    peaks = []
    real_quotient = prover._quotient_extended_np

    def quotient(*args):
        tracemalloc.start()
        try:
            q_ext = real_quotient(*args)
            peaks.append((tracemalloc.get_traced_memory()[1], q_ext.nbytes))
        finally:
            tracemalloc.stop()
        return q_ext

    monkeypatch.setattr(prover, "_quotient_extended_np", quotient)
    prover.create_proof(pk, asg, scheme)
    (peak, output), = peaks
    public = sum(rnd == INSTANCE for rnd, _ in tape.slots)
    # besides the output: the instance columns' gathered rows,
    # polynomials and extensions (the register file is the kernel's, a few
    # row blocks in C, out of tracemalloc's sight); the evaluator the tape
    # replaced held a whole vector per expression node
    instance = public * (3 * 8 * pk.vk.n + output)
    assert peak <= output + instance + (256 << 10), (peak, output)
