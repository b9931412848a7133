"""The compiled Goldilocks kernel against the numpy oracle it replaced.

Every public ``gl64`` entry point is one call into ``gl64_native.c``,
whatever canonical ``uint64`` operands it is given: strided and
transposed views, broadcast rows and columns (one overlapping ``out``
included), scalars and empty arrays.  The numpy bodies in
``tests/oracle.py`` are the oracle here.  The loader tests drive a
broken or missing ``cc`` into the one typed error a box without a
working compiler gets.
"""

import contextlib
import os
import shutil
import stat
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.field import gl64, native
from repro.field.domain import EvaluationDomain
from repro.field.prime_field import GOLDILOCKS
from repro.model import get_model, seeded_inputs
from repro.resilience import events
from repro.resilience.errors import KernelUnavailableError
from repro.runtime import prove_model

from tests import oracle
from tests.oracle import oracle_tier

P = gl64.P
EDGES = [0, 1, P - 1, (1 << 32) - 1, 1 << 32, P - (1 << 32), P - 2, 1 << 63]
REAL_CC = shutil.which("cc") or shutil.which("gcc")

residues = st.sampled_from(EDGES) | st.integers(0, P - 1)


def draw_array(data, *shape):
    size = int(np.prod(shape))
    flat = data.draw(st.lists(residues, min_size=size, max_size=size))
    return np.array(flat, dtype=np.uint64).reshape(shape)


def draw_view(data, *shape, kinds=("plain", "step", "reversed", "transposed")):
    """A ``shape`` array of residues, as a plain array or as a strided
    view of a larger one."""
    kind = data.draw(st.sampled_from(kinds))
    if kind == "step":
        return draw_array(data, *shape[:-1], 2 * shape[-1])[..., ::2]
    if kind == "reversed":
        return draw_array(data, *shape)[..., ::-1]
    if kind == "transposed" and len(shape) == 2:
        return draw_array(data, *shape[::-1]).T
    return draw_array(data, *shape)


class Spy:
    """The loaded library, recording which kernels were entered."""

    def __init__(self):
        self.lib = native.library()
        self.calls = []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.lib, name)


def spied(fn, *args, **kwargs):
    """``(fn(...), the kernels it entered)``."""
    spy = Spy()
    with mock.patch.object(native, "_handle", spy):
        return fn(*args, **kwargs), spy.calls


# -- elementwise -------------------------------------------------------------

OPS = {
    "mul": (gl64.mul_into, oracle.mul_into),
    "add": (gl64.add_into, oracle.add_into),
    "sub": (gl64.sub_into, oracle.sub_into),
}

#: operand layouts against an (m, n) or (n,) out: name -> shape builder
LAYOUTS = {
    "full": lambda m, n: (m, n),
    "row": lambda m, n: (n,),
    "column": lambda m, n: (m, 1),
    "scalar": lambda m, n: (),
}


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_elementwise_matches_the_numpy_body(data):
    """Every operand layout, as plain arrays and as strided views, into a
    fresh, aliased, strided or empty ``out``, or with a broadcast operand
    cut from ``out`` itself: one kernel call, the oracle's values."""
    name = data.draw(st.sampled_from(sorted(OPS)))
    into, oracle_into = OPS[name]
    m = data.draw(st.integers(0, 4))
    n = data.draw(st.integers(0, 33))
    flat = data.draw(st.booleans())
    out_shape = (n,) if flat else (m, n)
    kinds = ["full", "scalar"] if flat else sorted(LAYOUTS)
    a_kind = data.draw(st.sampled_from(kinds))
    b_kind = data.draw(st.sampled_from(kinds))
    if a_kind != "full" and b_kind != "full":
        a_kind = "full"

    def operand(kind):
        if kind == "scalar":
            value = data.draw(residues)
            return data.draw(st.sampled_from([int, np.uint64]))(value)
        shape = out_shape if kind == "full" else LAYOUTS[kind](m, n)
        return draw_view(data, *shape)

    a, b = operand(a_kind), operand(b_kind)
    out = draw_view(data, *out_shape, kinds=("plain", "step"))
    targets = [None] + [x for x, k in (("a", a_kind), ("b", b_kind)) if k == "full"]
    if not flat and m and n and b_kind in ("row", "column"):
        targets.append("inside")
    target = data.draw(st.sampled_from(targets))
    if target == "inside":  # b is read from out while out is written
        if b_kind == "row":
            b = out[data.draw(st.integers(0, m - 1))]
        else:
            j = data.draw(st.integers(0, n - 1))
            b = out[:, j : j + 1]
    elif target is not None:
        out = {"a": a, "b": b}[target]
    want = np.empty(out_shape, dtype=np.uint64)
    oracle_into(want, *(x.copy() if isinstance(x, np.ndarray) else x for x in (a, b)))
    _, calls = spied(into, out, a, b)
    assert calls == (["gl_" + name] if out.size else [])
    assert np.array_equal(out, want), (name, a_kind, b_kind, target)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_strided_views_take_the_numpy_body_and_are_right(data):
    """A strided, reversed, windowed or transposed operand, and a strided
    ``out``: the kernel reads or writes each in one call, and the values
    are the numpy body's (the oracle's)."""
    name = data.draw(st.sampled_from(sorted(OPS)))
    into, oracle_into = OPS[name]
    n = data.draw(st.integers(2, 24))
    base = draw_array(data, 3, 2 * n)
    other = draw_array(data, 3, n)
    view = data.draw(st.sampled_from(["step", "reversed", "transposed", "window"]))
    if view == "step":
        a = base[:, ::2]
    elif view == "reversed":
        a = base[:, :n][:, ::-1]
    elif view == "window":
        a = base[:, 1 : n + 1]
    else:
        a = np.ascontiguousarray(base[:, :n].T).T
    assert not a.flags.c_contiguous
    want = np.empty((3, n), dtype=np.uint64)
    oracle_into(want, a.copy(), other)
    out = np.empty((3, n), dtype=np.uint64)
    _, calls = spied(into, out, a, other)
    assert calls == ["gl_" + name]
    assert np.array_equal(out, want), (name, view)
    wide = np.zeros((3, 2 * n), dtype=np.uint64)
    oracle_into(want, other, other)
    _, calls = spied(into, wide[:, ::2], other, other)
    assert calls == ["gl_" + name]
    assert np.array_equal(wide[:, ::2], want)
    assert not wide[:, 1::2].any()


def test_broadcast_operand_inside_out_is_left_to_numpy():
    """A row of ``out`` broadcast against ``out`` while ``out`` is written
    (row 1 is overwritten mid-way): the kernel runs on a copy of the row,
    so every row is multiplied by the row as it was, as the numpy body
    (the oracle) multiplies it."""
    rng = np.random.default_rng(5)
    out = rng.integers(0, P, (4, 16), dtype=np.uint64)
    want = np.empty_like(out)
    oracle.mul_into(want, out.copy(), out[1].copy())
    _, calls = spied(gl64.mul_into, out, out, out[1])
    assert calls == ["gl_mul"]
    assert np.array_equal(out, want)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_derived_helpers_ride_the_kernel(data):
    m, n = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 40))
    a = draw_view(data, m, n)
    b = draw_view(data, n)
    y = data.draw(residues)
    for fn, args in ((gl64.fold, (a, y, b)), (gl64.mul, (a, b)),
                     (gl64.add, (a, np.uint64(P - 1))), (gl64.sub, (7, b)),
                     (gl64.sub, (a, a[:, :1])), (gl64.mul, (np.uint64(y), 3))):
        got = fn(*args)
        with oracle_tier():
            assert np.array_equal(got, fn(*args)), fn.__name__


# -- NTT ---------------------------------------------------------------------


def ntt_tables(k):
    n = 1 << k
    return gl64.ntt_stages(GOLDILOCKS.root_of_unity(k), n), gl64.bit_reverse_indices(n)


@pytest.mark.parametrize("k", range(1, 15))
def test_ntt_matches_the_numpy_body_at_every_size(k):
    n = 1 << k
    stages, rev = ntt_tables(k)
    rng = np.random.default_rng(k)
    mat = rng.integers(0, P, (3, n), dtype=np.uint64)
    mat[0, : len(EDGES)] = EDGES[: n]
    vector = rng.integers(0, P, n, dtype=np.uint64)
    for scale in (None, np.uint64(P - 2), 12345, vector):
        for values in (mat, mat[1]):
            got, calls = spied(gl64.ntt, values, stages, rev, scale_rev=scale)
            assert calls == ["gl_ntt"]
            assert np.array_equal(
                got, oracle.ntt(values, stages, rev, scale_rev=scale))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ntt_reads_strided_input_in_place(data):
    """Rows read through their strides, the six-step's transposed matrix
    first; a stacked 3-D input is its rows; empty input is no call."""
    k = data.draw(st.integers(0, 6))
    n = 1 << k
    stages, rev = ntt_tables(k)
    m = data.draw(st.integers(0, 5))
    shape = data.draw(st.sampled_from([(n,), (m, n), (2, m, n)]))
    values = draw_view(data, *shape)
    scale = data.draw(st.sampled_from(["none", "scalar", "vector"]))
    scale = {"none": None, "scalar": np.uint64(data.draw(residues)),
             "vector": draw_view(data, n, kinds=("plain", "step"))}[scale]
    got, calls = spied(gl64.ntt, values, stages, rev, scale_rev=scale)
    assert calls == (["gl_ntt"] if values.size else [])
    assert got.shape == values.shape
    assert np.array_equal(got, oracle.ntt(np.ascontiguousarray(values), stages,
                                          rev, scale_rev=scale))


def test_ntt_without_packed_twiddles_or_with_a_3d_input_stays_on_numpy():
    """Twiddles handed over as a plain list rather than the packed array,
    and a stacked 3-D input: one kernel call each, and the numpy body's
    (the oracle's) values."""
    stages, rev = ntt_tables(4)
    rng = np.random.default_rng(2)
    cube = rng.integers(0, P, (2, 2, 16), dtype=np.uint64)
    plain, calls = spied(gl64.ntt, cube[0], list(stages), rev)
    deep, more = spied(gl64.ntt, cube, stages, rev)
    assert calls + more == ["gl_ntt", "gl_ntt"]
    assert np.array_equal(plain, oracle.ntt(cube[0], stages, rev))
    assert deep.shape == cube.shape
    assert np.array_equal(deep[1], oracle.ntt(cube[1], stages, rev))


def test_sixstep_gets_the_kernel_through_its_inner_transforms():
    n = 1 << 10
    root = GOLDILOCKS.root_of_unity(10)
    plan = gl64.build_sixstep_plan(root, n, shift=7)
    values = np.random.default_rng(3).integers(0, P, n, dtype=np.uint64)
    got, calls = spied(gl64.sixstep_ntt, values, plan)
    assert calls == ["gl_ntt", "gl_mul", "gl_ntt"]
    with oracle_tier():
        assert np.array_equal(got, gl64.sixstep_ntt(values, plan))


# -- batch_inv / weighted_sum / poly_eval_rows --------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batch_inv_matches_the_numpy_body(data):
    n = data.draw(st.integers(0, 600))  # both sides of the oracle's 256
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    values = rng.integers(1, P, 2 * n, dtype=np.uint64)
    values[: min(n, len(EDGES) - 1)] = EDGES[1 : n + 1]
    values = data.draw(st.sampled_from([values[:n], values[::2], values[:n][::-1]]))
    got, calls = spied(gl64.batch_inv, values)
    assert calls == (["gl_batch_inv"] if n else [])
    assert np.array_equal(got, oracle.batch_inv(np.ascontiguousarray(values)))
    assert np.array_equal(gl64.mul(got, values), np.ones(n, dtype=np.uint64))


@pytest.mark.parametrize("n", [1, 7, 300])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_batch_inv_zero_raises_the_same_message(n, where):
    values = np.arange(1, n + 1, dtype=np.uint64)
    index = {"first": 0, "middle": n // 2, "last": n - 1}[where]
    values[index] = 0
    values[n - 1] = 0  # a later zero never wins
    messages = []
    for run in (gl64.batch_inv, oracle.batch_inv):
        with pytest.raises(ZeroDivisionError) as err:
            run(values)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == "batch_inv of zero at index %d" % index
    assert gl64.batch_inv(values[:0]).shape == (0,)


@pytest.mark.parametrize("n", [8, 43, 600])
def test_batch_inv_finds_the_first_zero_in_every_chain(n):
    """The kernel runs 8 chains on the scalar build and 32 (four vectors of
    eight lanes) on the eight-lane one, chain c taking the indices that are
    c modulo that count, plus one chain for the tail: a zero in any of
    them is reported at its index, and the output buffer is left
    untouched."""
    lib = native.library()
    for where in sorted({*range(min(n, 40)), max(0, n - 1 - n % 32), n - 1}):
        values = np.arange(1, n + 1, dtype=np.uint64)
        values[where] = 0
        values[n - 1] = 0  # a later zero never wins
        out = np.full(n, 7, dtype=np.uint64)
        for context in (contextlib.nullcontext, native.scalar_build):
            with context():
                assert lib.gl_batch_inv(out.ctypes.data, values.ctypes.data, n) == where
                assert (out == 7).all()
                with pytest.raises(ZeroDivisionError, match="at index %d$" % where):
                    gl64.batch_inv(values)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_weighted_sum_and_poly_eval_rows_match_the_numpy_bodies(data):
    """Plain, strided and transposed matrices, empty ones included (an
    empty sum and an empty polynomial are 0)."""
    m = data.draw(st.integers(0, 9))
    width = data.draw(st.integers(0, 40))  # the oracle pads non-powers of two
    rows = draw_view(data, m, width)
    vec = draw_view(data, m)
    weights = data.draw(st.sampled_from([vec, vec.tolist()]))
    summed, calls = spied(gl64.weighted_sum, rows, weights)
    evals, more = spied(gl64.poly_eval_rows, rows, vec)
    assert calls + more == ["gl_weighted_sum", "gl_poly_eval_rows"]
    plain = np.ascontiguousarray(rows)
    assert np.array_equal(summed, oracle.weighted_sum(plain, weights))
    assert np.array_equal(evals, oracle.poly_eval_rows(plain, vec))


def test_a_strided_matrix_is_summed_by_the_numpy_body():
    """Every other column of a wider matrix: the kernel sums a contiguous
    copy, to the numpy body's (the oracle's) values."""
    rng = np.random.default_rng(8)
    wide = rng.integers(0, P, (5, 24), dtype=np.uint64)
    weights = [int(w) for w in rng.integers(0, P, 5, dtype=np.uint64)]
    got, calls = spied(gl64.weighted_sum, wide[:, ::2], weights)
    assert calls == ["gl_weighted_sum"]
    assert np.array_equal(
        got, oracle.weighted_sum(np.ascontiguousarray(wide[:, ::2]), weights))


def test_an_empty_tape_output_is_no_kernel_call():
    """No output rows (a lookup-free circuit's helper tape) or no rows at
    all: nothing to run, on the kernel or the oracle."""
    code = np.array([[gl64.TAPE_STORE, 0, -1, 0]], dtype=np.int32)
    scalars = np.ones(1, dtype=np.uint64)
    for outputs, n in ((0, 8), (1, 0)):
        cols = [np.zeros(n, dtype=np.uint64)]
        for run in (gl64.eval_tape, oracle.eval_tape):
            out = np.zeros((outputs, n), dtype=np.uint64)
            _, calls = spied(run, code, 1, cols, scalars, out)
            assert calls == []


@pytest.fixture
def copies(monkeypatch):
    """Elements ``gl64`` copied to hand the kernel an operand it could not
    read in place (a strided or broadcast operand, one overlapping ``out``,
    a temporary for a non-contiguous ``out``, an NTT input of more than two
    axes: all go through ``gl64._copy``), against elements the elementwise
    kernels wrote; and the kernels entered."""
    seen = {"copied": 0, "elementwise": 0}
    real_copy, real_ewise = gl64._copy, gl64._ewise

    def copy(x):
        got = real_copy(x)
        seen["copied"] += got.size
        return got

    def ewise(name, out, a, b):
        seen["elementwise"] += out.size
        return real_ewise(name, out, a, b)

    monkeypatch.setattr(gl64, "_copy", copy)
    monkeypatch.setattr(gl64, "_ewise", ewise)
    spy = Spy()
    monkeypatch.setattr(native, "_handle", spy)
    seen["kernels"] = spy.calls
    return seen


def test_the_copy_guard_sees_every_copy_path(copies):
    """Each way ``gl64`` copies an operand is counted by the fixture."""
    a = np.arange(24, dtype=np.uint64).reshape(4, 6)
    stages, rev = gl64.ntt_stages(gl64.P - 1, 2), gl64.bit_reverse_indices(2)
    out, flat = a.copy(), np.ascontiguousarray(a.T)
    for run, copied in [
        (lambda: gl64.mul(a[:, ::2], 3), 12),            # strided operand
        (lambda: gl64.add_into(out, out, out[1]), 6),    # row overlapping out
        (lambda: gl64.sub_into(out.T, flat, 1), 24),     # temporary for out.T
        (lambda: gl64.ntt(np.ones((2, 3, 4), np.uint64)[..., ::2],
                          stages, rev), 12),             # 3-D strided input
    ]:
        before = copies["copied"]
        run()
        assert copies["copied"] - before == copied


def test_row_subsets_are_read_and_coset_parts_written_in_place(copies):
    """A row subset of a matrix whose rows lie apart is summed and
    evaluated where it lies, and an LDE's coset NTTs write straight into
    its parts: no copy, one kernel call each."""
    rng = np.random.default_rng(3)
    mat = rng.integers(0, P, (9, 40), dtype=np.uint64)[:, :33]
    index, vec = np.array([8, 0, 8, 3]), rng.integers(0, P, 4, dtype=np.uint64)
    domain = EvaluationDomain(GOLDILOCKS, 5)
    polys = rng.integers(0, P, (3, 32), dtype=np.uint64)
    domain.lde(polys)  # the twiddle tables, once
    del copies["kernels"][:]
    summed = gl64.weighted_sum(mat, vec, index)
    evals = gl64.poly_eval_rows(mat, vec, index)
    lde = domain.lde(polys)
    assert copies["copied"] == 0
    assert copies["kernels"] == (["gl_weighted_sum", "gl_poly_eval_rows"]
                                 + ["gl_ntt"] * domain.extension)
    assert np.array_equal(summed, oracle.weighted_sum(mat[index], vec))
    assert np.array_equal(evals, oracle.poly_eval_rows(mat[index], vec))
    for r in range(domain.extension):
        assert np.array_equal(lde[:, r], domain.coeff_to_extended_part(polys, r))


def test_a_k12_proof_reads_almost_every_operand_in_place(copies):
    """A shape the kernel cannot read in place costs a copy, which shows up
    only as a slower benchmark; this makes it a failed test instead."""
    spec = get_model("gpt2", "mini")
    result = prove_model(spec, seeded_inputs(spec, 0), k=12, num_cols=10,
                         scale_bits=5, use_pk_cache=False)
    assert result.k == 12
    # the constraint tapes (helpers, quotient) each run in one call; what
    # is left elementwise is the helper sums, FRI and the openings
    assert copies["kernels"].count("gl_eval_tape") == 2
    assert copies["elementwise"] > 300_000
    assert copies["copied"] < 0.01 * copies["elementwise"], copies["copied"]


# -- loader --------------------------------------------------------------------

STUB = """#!%(python)s
import os, subprocess, sys
args = sys.argv[1:]
if args == ["--version"]:
    print("stub-cc 1.0")
    sys.exit(0)
real_cc = lambda argv: subprocess.call(
    [%(cc)r] + argv, env=dict(os.environ, PATH=%(path)r))
%(body)s
"""
PASS_THROUGH = "sys.exit(real_cc(args))"
FAILS = "sys.stderr.write('stub-cc: loud failure\\n'); sys.exit(1)"
#: a cc that compiles the source with one kernel miswritten
MISCOMPILE = """
source = open(args[-1]).read()
tampered = args[args.index("-o") + 1] + ".c"
with open(tampered, "w") as fh:
    fh.write(source.replace(%r, %r))
sys.exit(real_cc(args[:-1] + [tampered]))
"""
STUBS = {
    "cc exits 1": FAILS,
    "wrong gl_mul": MISCOMPILE % ("GL_EWISE(gl_mul, gl_mul1)",
                                  "GL_EWISE(gl_mul, gl_add1)"),
    "wrong gl_eval_tape": MISCOMPILE % ("TAPE_BINARY(vsub, gl_sub1)",
                                        "TAPE_BINARY(vadd, gl_add1)"),
    # blake2b's final-block flag dropped: every digest changes
    "wrong gl_merkle_tree": MISCOMPILE % ("b2b_compress(h, block, len, 1)",
                                          "b2b_compress(h, block, len, 0)"),
    # a lane carry dropped from the multiply only the eight-lane build
    # runs: the scalar build is right, the self-test's second pass is not
    "wrong lane multiply": MISCOMPILE % (
        "hh = _mm512_add_epi64(hh, _mm512_srli_epi64(t, 32));", ""),
    # the eight-lane leaf loader reads every leaf from coset part 0: right
    # at extension 1 and on the scalar build, wrong on eight lanes above it
    "wrong lane leaf loader": MISCOMPILE % (
        "msg[l] = lde + (j + l) % ext * n + (j + l) / ext;",
        "msg[l] = lde + (j + l) / ext;"),
}


def install_stub(directory, body):
    directory.mkdir(exist_ok=True)
    path = directory / "cc"
    path.write_text(STUB % {"python": sys.executable, "cc": REAL_CC,
                            "path": os.environ.get("PATH", ""), "body": body})
    path.chmod(path.stat().st_mode | stat.S_IXUSR)


def dlrm_envelope():
    spec = get_model("dlrm", "mini")
    return prove_model(spec, seeded_inputs(spec, 0),
                       use_pk_cache=False).envelope_bytes()


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """An unloaded loader with its own build directory and event log."""
    monkeypatch.setattr(native, "_handle", native._UNSET)
    monkeypatch.setattr(native, "_BUILD_DIR", str(tmp_path / "_native"))
    events.reset()
    yield tmp_path
    events.reset()


@pytest.mark.parametrize("scenario, reason", [
    ("cc exits 1", "build failed: stub-cc: loud failure"),
    ("wrong gl_mul", "self-test failed: gl_mul"),
    ("no compiler", "no C compiler: "),
    ("wrong gl_eval_tape", "self-test failed: gl_eval_tape"),
    ("wrong gl_merkle_tree", "self-test failed: gl_merkle_tree"),
    pytest.param("wrong lane multiply", "self-test failed: gl_ntt (8-lane build)",
                 marks=pytest.mark.skipif(native.lane_width() != 8,
                                          reason="this CPU has no eight-lane build")),
    pytest.param("wrong lane leaf loader",
                 "self-test failed: gl_merkle_tree m=1 ext=2 (8-lane build)",
                 marks=pytest.mark.skipif(native.lane_width() != 8,
                                          reason="this CPU has no eight-lane build")),
])
def test_a_failed_build_raises_one_typed_error(
        scenario, reason, fresh_loader, monkeypatch):
    """The first kernel call of a prove raises the loader's reason; the
    next raises it again without a second build, and nothing falls back
    or reports a degraded run."""
    bin_dir = fresh_loader / "bin"
    bin_dir.mkdir()
    if scenario != "no compiler":
        install_stub(bin_dir, STUBS[scenario])
    monkeypatch.setenv("PATH", str(bin_dir))
    loads = []
    real_load = native._load

    def load():
        loads.append(1)
        return real_load()

    monkeypatch.setattr(native, "_load", load)
    heard = []
    listener = lambda kind, fields: heard.append((kind, fields))  # noqa: E731
    events.add_listener(listener)
    try:
        for _ in range(2):
            with pytest.raises(KernelUnavailableError) as err:
                dlrm_envelope()
            assert err.value.message.startswith(reason), err.value
            assert err.value.phase == "kernel"
    finally:
        events.remove_listener(listener)
    assert loads == [1]
    assert heard == []


def test_cached_object_loads_without_compiling(fresh_loader, monkeypatch):
    bin_dir = fresh_loader / "bin"
    install_stub(bin_dir, PASS_THROUGH)
    monkeypatch.setenv("PATH", str(bin_dir))
    native.library()
    built = os.listdir(native._BUILD_DIR)
    assert len(built) == 1 and built[0].startswith("gl64-") \
        and built[0].endswith(".so")
    # same banner, but any attempt to compile now fails loudly
    install_stub(bin_dir, FAILS)
    monkeypatch.setattr(native, "_handle", native._UNSET)
    native.library()
    assert os.listdir(native._BUILD_DIR) == built


def test_unwritable_build_directory_builds_in_a_private_temp_dir(
        fresh_loader, monkeypatch):
    blocker = fresh_loader / "a-file"
    blocker.write_text("not a directory")
    monkeypatch.setattr(native, "_BUILD_DIR", str(blocker / "_native"))
    made = []
    real_mkdtemp = native.tempfile.mkdtemp

    def mkdtemp(**kwargs):
        made.append(real_mkdtemp(**kwargs))
        return made[-1]

    monkeypatch.setattr(native.tempfile, "mkdtemp", mkdtemp)
    native.library()
    assert len(made) == 1 and not os.path.exists(made[0])  # gone once loaded
    a = np.array([P - 1, 5], dtype=np.uint64)
    assert gl64.mul(a, a).tolist() == [1, 25]


@pytest.mark.parametrize("scenario, reason", [
    ("no writable build directory", "build failed: no writable build directory: "),
    ("unreadable source", "load failed: "),
])
def test_an_os_error_raises_the_typed_error_with_its_reason(
        scenario, reason, fresh_loader, monkeypatch):
    if scenario == "unreadable source":
        monkeypatch.setattr(native, "_SOURCE", str(fresh_loader / "gone.c"))
    else:
        blocker = fresh_loader / "a-file"
        blocker.write_text("not a directory")
        monkeypatch.setattr(native, "_BUILD_DIR", str(blocker / "_native"))

        def mkdtemp(**kwargs):
            raise PermissionError("no temp dir either")

        monkeypatch.setattr(native.tempfile, "mkdtemp", mkdtemp)
    a = np.array([P - 1, 5], dtype=np.uint64)
    for _ in range(2):
        with pytest.raises(KernelUnavailableError) as err:
            gl64.mul(a, a)
        assert err.value.message.startswith(reason), err.value


def test_two_processes_building_at_once_both_end_up_native(tmp_path):
    build_dir = tmp_path / "_native"
    script = (
        "import sys\n"
        "from repro.field import native\n"
        "native._BUILD_DIR = sys.argv[1]\n"
        "print(native.lane_width())\n"
    )
    procs = [subprocess.Popen([sys.executable, "-c", script, str(build_dir)],
                              stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    lanes = [proc.communicate(timeout=120)[0].strip() for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert lanes[0] == lanes[1] == str(native.lane_width())
    left = os.listdir(build_dir)
    assert len(left) == 1 and left[0].endswith(".so")  # no tmp files behind


#: ``zkml`` with the loader pointed at a build directory of its own
RUN_CLI = ("import sys\n"
           "from repro.field import native\n"
           "native._BUILD_DIR = sys.argv[1]\n"
           "from repro.cli import main\n"
           "sys.exit(main(sys.argv[2:]))\n")


def test_without_a_compiler_prove_and_verify_exit_with_one_line_naming_cc(
        tmp_path):
    """No ``cc`` on ``PATH`` and nothing built: ``zkml prove`` and ``zkml
    verify`` (of a proof made where ``cc`` works) each exit 1 with one
    line on stderr, which names ``cc``, and no traceback."""
    from repro.cli import main

    envelope, registry = str(tmp_path / "dlrm.env"), str(tmp_path / "reg")
    assert main(["prove", "--model", "dlrm", "--envelope", envelope,
                 "--registry", registry, "-q"]) == 0
    env = dict(os.environ, PATH="/nonexistent",
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    for argv in (["prove", "--model", "dlrm", "-q"],
                 ["verify", "--envelope", envelope, "--registry", registry,
                  "-q"]):
        proc = subprocess.run(
            [sys.executable, "-c", RUN_CLI, str(tmp_path / argv[0]), *argv],
            env=env, capture_output=True, text=True, timeout=300)
        lines = proc.stderr.strip().splitlines()
        assert proc.returncode == 1, (argv, proc.stderr)
        assert len(lines) == 1, (argv, proc.stderr)
        # the error itself, not a verdict wrapping it
        assert "error=KernelUnavailableError" in lines[0], lines
        assert "'cc'" in lines[0] and "verification" not in lines[0], lines
        assert not os.path.exists(tmp_path / argv[0])  # nothing was built
