"""The compiled Goldilocks kernel against the numpy bodies it stands in for.

Every public ``gl64`` entry point dispatches to ``gl64_native.c`` when the
loader has a library and the operands are plain (C-contiguous ``uint64``,
a supported shape), and to its numpy body otherwise.  The numpy bodies
are the oracle here: a test reaches them by nulling the loader's handle,
exactly what a box without a compiler does.
"""

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
from repro.field.prime_field import GOLDILOCKS
from repro.model import get_model, seeded_inputs
from repro.resilience import events
from repro.runtime import prove_model

P = gl64.P
EDGES = [0, 1, P - 1, (1 << 32) - 1, 1 << 32, P - (1 << 32), P - 2, 1 << 63]
REAL_CC = shutil.which("cc") or shutil.which("gcc")

needs_native = pytest.mark.skipif(
    gl64.kernel_tier() != "native", reason="no working C compiler on this box")
needs_cc = pytest.mark.skipif(REAL_CC is None, reason="no C compiler on this box")

residues = st.sampled_from(EDGES) | st.integers(0, P - 1)


def on_numpy(fn, *args, **kwargs):
    """``fn`` as a box without a compiler runs it."""
    with mock.patch.object(native, "_handle", None):
        return fn(*args, **kwargs)


def draw_array(data, *shape):
    size = int(np.prod(shape))
    flat = data.draw(st.lists(residues, min_size=size, max_size=size))
    return np.array(flat, dtype=np.uint64).reshape(shape)


class Spy:
    """The loaded library, recording which kernels were entered."""

    def __init__(self):
        self.lib = native.library()
        self.calls = []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.lib, name)


# -- elementwise -------------------------------------------------------------

OPS = {
    "mul": (gl64.mul_into, lambda a, b: a * b % P),
    "add": (gl64.add_into, lambda a, b: (a + b) % P),
    "sub": (gl64.sub_into, lambda a, b: (a - b) % P),
}

#: operand layouts against an (m, n) or (n,) out: name -> shape builder
LAYOUTS = {
    "full": lambda m, n: (m, n),
    "row": lambda m, n: (n,),
    "column": lambda m, n: (m, 1),
    "scalar": lambda m, n: (),
}


def reference(op, out_shape, a, b):
    a_obj = np.broadcast_to(np.asarray(a).astype(object), out_shape)
    b_obj = np.broadcast_to(np.asarray(b).astype(object), out_shape)
    return np.array([op(int(x), int(y)) for x, y in
                     zip(a_obj.ravel(), b_obj.ravel())],
                    dtype=np.uint64).reshape(out_shape)


@needs_native
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_elementwise_matches_the_numpy_body(data):
    name = data.draw(st.sampled_from(sorted(OPS)))
    into, op = OPS[name]
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 33))
    flat = data.draw(st.booleans())
    out_shape = (n,) if flat else (m, n)
    kinds = ["full", "scalar"] if flat else sorted(LAYOUTS)
    a_kind = data.draw(st.sampled_from(kinds))
    b_kind = data.draw(st.sampled_from(kinds))
    if a_kind != "full" and b_kind != "full":
        a_kind = "full"

    def operand(kind):
        shape = LAYOUTS[kind](m, n)
        if kind == "full":
            shape = out_shape
        if kind == "scalar":
            value = data.draw(residues)
            return data.draw(st.sampled_from([int, np.uint64]))(value)
        return draw_array(data, *shape)

    a, b = operand(a_kind), operand(b_kind)
    want = reference(op, out_shape, a, b)
    alias = data.draw(st.sampled_from(
        [None] + [x for x, k in (("a", a_kind), ("b", b_kind)) if k == "full"]))
    for tier in ("native", "numpy"):
        a_t = a.copy() if isinstance(a, np.ndarray) else a
        b_t = b.copy() if isinstance(b, np.ndarray) else b
        out = {"a": a_t, "b": b_t}.get(alias)
        if out is None:
            out = np.empty(out_shape, dtype=np.uint64)
        if tier == "native":
            spy = Spy()
            with mock.patch.object(native, "_handle", spy):
                into(out, a_t, b_t)
            assert spy.calls == ["gl_" + name]
        else:
            on_numpy(into, out, a_t, b_t)
        assert np.array_equal(out, want), (tier, name, a_kind, b_kind, alias)


@needs_native
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_strided_views_take_the_numpy_body_and_are_right(data):
    name = data.draw(st.sampled_from(sorted(OPS)))
    into, op = OPS[name]
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
    assert not a.flags.c_contiguous or a.shape[0] == 1
    spy = Spy()
    out = np.empty((3, n), dtype=np.uint64)
    with mock.patch.object(native, "_handle", spy):
        into(out, a, other)
    assert spy.calls == []
    assert np.array_equal(out, reference(op, (3, n), a, other))
    # a strided *out* stays with numpy too
    wide = np.zeros((3, 2 * n), dtype=np.uint64)
    with mock.patch.object(native, "_handle", spy):
        into(wide[:, ::2], other, other)
    assert spy.calls == []
    assert np.array_equal(wide[:, ::2], reference(op, (3, n), other, other))


@needs_native
def test_broadcast_operand_inside_out_is_left_to_numpy():
    rng = np.random.default_rng(5)
    out = rng.integers(0, P, (4, 16), dtype=np.uint64)
    want = on_numpy(lambda: gl64.mul(out, out[1]))
    spy = Spy()
    with mock.patch.object(native, "_handle", spy):
        gl64.mul_into(out, out, out[1])  # row 1 is overwritten mid-way
    assert spy.calls == []
    assert np.array_equal(out, want)


@needs_native
def test_derived_helpers_ride_the_kernel():
    rng = np.random.default_rng(6)
    a = rng.integers(0, P, (2, 512), dtype=np.uint64)
    b = rng.integers(0, P, 512, dtype=np.uint64)
    for fn, args in ((gl64.fold, (a, 12345, b)), (gl64.mul, (a, b)),
                     (gl64.add, (a, np.uint64(P - 1))), (gl64.sub, (7, b)),
                     (gl64.sub, (a, a[:, :1].copy()))):
        assert np.array_equal(fn(*args), on_numpy(fn, *args)), fn.__name__


# -- NTT ---------------------------------------------------------------------


def ntt_tables(k):
    n = 1 << k
    return gl64.ntt_stages(GOLDILOCKS.root_of_unity(k), n), gl64.bit_reverse_indices(n)


@needs_native
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
            spy = Spy()
            with mock.patch.object(native, "_handle", spy):
                got = gl64.ntt(values, stages, rev, scale_rev=scale)
            assert spy.calls == ["gl_ntt"]
            assert np.array_equal(
                got, on_numpy(gl64.ntt, values, stages, rev, scale_rev=scale))


@needs_native
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ntt_reads_strided_input_in_place(data):
    k = data.draw(st.integers(1, 6))
    n = 1 << k
    stages, rev = ntt_tables(k)
    m = data.draw(st.integers(1, 5))
    base = draw_array(data, n, m)
    view = base.T  # (m, n), column-major: the six-step's first pass
    spy = Spy()
    with mock.patch.object(native, "_handle", spy):
        got = gl64.ntt(view, stages, rev)
    assert spy.calls == ["gl_ntt"]
    assert np.array_equal(got, on_numpy(gl64.ntt, view, stages, rev))


@needs_native
def test_ntt_without_packed_twiddles_or_with_a_3d_input_stays_on_numpy():
    stages, rev = ntt_tables(4)
    rng = np.random.default_rng(2)
    cube = rng.integers(0, P, (2, 2, 16), dtype=np.uint64)
    spy = Spy()
    with mock.patch.object(native, "_handle", spy):
        plain = gl64.ntt(cube[0], list(stages), rev)
        deep = gl64.ntt(cube, stages, rev)
    assert spy.calls == []
    assert np.array_equal(plain, gl64.ntt(cube[0], stages, rev))
    assert np.array_equal(deep[1], gl64.ntt(cube[1], stages, rev))


@needs_native
def test_sixstep_gets_the_kernel_through_its_inner_transforms():
    n = 1 << 10
    root = GOLDILOCKS.root_of_unity(10)
    plan = gl64.build_sixstep_plan(root, n, shift=7)
    values = np.random.default_rng(3).integers(0, P, n, dtype=np.uint64)
    spy = Spy()
    with mock.patch.object(native, "_handle", spy):
        got = gl64.sixstep_ntt(values, plan)
    assert spy.calls == ["gl_ntt", "gl_mul", "gl_ntt"]
    assert np.array_equal(got, on_numpy(gl64.sixstep_ntt, values, plan))


# -- batch_inv / weighted_sum / poly_eval_rows --------------------------------


@needs_native
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batch_inv_matches_the_numpy_body(data):
    n = data.draw(st.integers(1, 600))  # both sides of the numpy body's 256
    values = np.random.default_rng(data.draw(st.integers(0, 2**32))).integers(
        1, P, n, dtype=np.uint64)
    values[: min(n, len(EDGES) - 1)] = EDGES[1 : n + 1]
    got = gl64.batch_inv(values)
    assert np.array_equal(got, on_numpy(gl64.batch_inv, values))
    assert np.array_equal(gl64.mul(got, values), np.ones(n, dtype=np.uint64))


@needs_native
@pytest.mark.parametrize("n", [1, 7, 300])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_batch_inv_zero_raises_the_same_message(n, where):
    values = np.arange(1, n + 1, dtype=np.uint64)
    index = {"first": 0, "middle": n // 2, "last": n - 1}[where]
    values[index] = 0
    values[n - 1] = 0  # a later zero never wins
    messages = []
    for run in (gl64.batch_inv, lambda v: on_numpy(gl64.batch_inv, v)):
        with pytest.raises(ZeroDivisionError) as err:
            run(values)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == "batch_inv of zero at index %d" % index
    assert gl64.batch_inv(values[:0]).shape == (0,)


@needs_native
@pytest.mark.parametrize("n", [8, 43, 600])
def test_batch_inv_finds_the_first_zero_in_every_chain(n):
    """The kernel runs eight chains over eight contiguous segments (the last
    one through the tail): a zero in any of them is reported at its index,
    and the output buffer is left untouched."""
    lib = native.library()
    seg = n // 8
    starts = [c * seg for c in range(8)] + ([8 * seg] if n % 8 else [])
    for start in starts:
        where = start + (seg - 1) // 2 if start < 8 * seg else n - 1
        values = np.arange(1, n + 1, dtype=np.uint64)
        values[where] = 0
        values[n - 1] = 0  # a later zero never wins
        out = np.full(n, 7, dtype=np.uint64)
        assert lib.gl_batch_inv(out.ctypes.data, values.ctypes.data, n) == where
        assert (out == 7).all()
        with pytest.raises(ZeroDivisionError, match="at index %d$" % where):
            gl64.batch_inv(values)


@needs_native
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_weighted_sum_and_poly_eval_rows_match_the_numpy_bodies(data):
    m = data.draw(st.integers(1, 9))
    width = data.draw(st.integers(1, 40))  # poly_eval pads non-powers of two
    rows = draw_array(data, m, width)
    vec = data.draw(st.lists(residues, min_size=m, max_size=m))
    spy = Spy()
    with mock.patch.object(native, "_handle", spy):
        summed = gl64.weighted_sum(rows, vec)
        evals = gl64.poly_eval_rows(rows, np.array(vec, dtype=np.uint64))
    assert spy.calls == ["gl_weighted_sum", "gl_poly_eval_rows"]
    assert np.array_equal(summed, on_numpy(gl64.weighted_sum, rows, vec))
    assert np.array_equal(evals, on_numpy(
        gl64.poly_eval_rows, rows, np.array(vec, dtype=np.uint64)))


@needs_native
def test_a_strided_matrix_is_summed_by_the_numpy_body():
    rng = np.random.default_rng(8)
    wide = rng.integers(0, P, (5, 24), dtype=np.uint64)
    weights = [int(w) for w in rng.integers(0, P, 5, dtype=np.uint64)]
    spy = Spy()
    with mock.patch.object(native, "_handle", spy):
        got = gl64.weighted_sum(wide[:, ::2], weights)
    assert "gl_weighted_sum" not in spy.calls
    assert np.array_equal(
        got, gl64.weighted_sum(np.ascontiguousarray(wide[:, ::2]), weights))


# -- coverage guard -----------------------------------------------------------


@needs_native
def test_a_k12_proof_stays_off_the_numpy_bodies(monkeypatch):
    """A shape the dispatch does not take falls back silently and shows up
    only as a slower benchmark; this makes it a failed test instead."""
    spec = get_model("gpt2", "mini")
    seen = {"elementwise": 0, "numpy_elementwise": 0, "numpy_ntt_rows": 0,
            "tape": 0, "numpy_tape": 0}
    real_chunks, real_butterfly = gl64._each_chunk, gl64._butterfly
    real_tape = gl64._native_tape

    def counting_chunks(out, operands, nrows):
        seen["numpy_elementwise"] += out.size
        return real_chunks(out, operands, nrows)

    def counting_butterfly(u, v, w):
        seen["numpy_ntt_rows"] += 1
        return real_butterfly(u, v, w)

    def counting(into):
        def run(out, a, b):
            seen["elementwise"] += out.size
            return into(out, a, b)
        return run

    def counting_tape(*args):
        ran = real_tape(*args)
        seen["tape" if ran else "numpy_tape"] += 1
        return ran

    monkeypatch.setattr(gl64, "_each_chunk", counting_chunks)
    monkeypatch.setattr(gl64, "_butterfly", counting_butterfly)
    monkeypatch.setattr(gl64, "_native_tape", counting_tape)
    for name in ("mul_into", "add_into", "sub_into"):
        monkeypatch.setattr(gl64, name, counting(getattr(gl64, name)))
    result = prove_model(spec, seeded_inputs(spec, 0), k=12, num_cols=10,
                         scale_bits=5, use_pk_cache=False)
    assert result.k == 12
    # the constraint tapes (helpers, quotient) run in C, each in one call;
    # what is left elementwise is the helper sums, FRI and the openings
    assert (seen["tape"], seen["numpy_tape"]) == (2, 0)
    assert seen["elementwise"] > 300_000
    assert seen["numpy_ntt_rows"] == 0
    assert seen["numpy_elementwise"] < 0.01 * seen["elementwise"], seen


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
    "wrong gl_eval_tape": MISCOMPILE % ("TAPE_BINARY(gl_sub1)",
                                        "TAPE_BINARY(gl_add1)"),
    # blake2b's final-block flag dropped: every digest changes
    "wrong gl_merkle_tree": MISCOMPILE % ("b2b_compress(h, block, len, 1)",
                                          "b2b_compress(h, block, len, 0)"),
    # a lane carry dropped from the multiply only the eight-lane build
    # runs: the scalar build is right, the self-test's second pass is not
    "wrong lane multiply": MISCOMPILE % ("u64 hi = a1 * b1 + (t >> 32) + (u >> 32);",
                                         "u64 hi = a1 * b1 + (u >> 32);"),
}


def install_stub(directory, body):
    directory.mkdir(exist_ok=True)
    path = directory / "cc"
    path.write_text(STUB % {"python": sys.executable, "cc": REAL_CC,
                            "path": os.environ.get("PATH", ""), "body": body})
    path.chmod(path.stat().st_mode | stat.S_IXUSR)


def fallback_events():
    return events.counts().get('degraded{reason="field_kernel_fallback"}', 0)


def dlrm_envelope():
    spec = get_model("dlrm", "mini")
    return prove_model(spec, seeded_inputs(spec, 0),
                       use_pk_cache=False).envelope_bytes()


@pytest.fixture(scope="module")
def native_dlrm_envelope():
    assert gl64.kernel_tier() == "native"
    return dlrm_envelope()


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """An unloaded loader with its own build directory and event log."""
    monkeypatch.setattr(native, "_handle", native._UNSET)
    monkeypatch.setattr(native, "_BUILD_DIR", str(tmp_path / "_native"))
    events.reset()
    yield tmp_path
    events.reset()


@needs_native
@pytest.mark.parametrize("scenario, reason", [
    ("cc exits 1", "build failed: stub-cc: loud failure"),
    ("wrong gl_mul", "self-test failed: gl_mul"),
    ("no compiler", "no C compiler: "),
    ("wrong gl_eval_tape", "self-test failed: gl_eval_tape"),
    ("wrong gl_merkle_tree", "self-test failed: gl_merkle_tree"),
    pytest.param("wrong lane multiply", "self-test failed: gl_ntt (8-lane build)",
                 marks=pytest.mark.skipif(native.lane_width() != 8,
                                          reason="this CPU has no eight-lane build")),
])
def test_a_failed_build_ends_on_the_numpy_tier_with_one_event(
        scenario, reason, native_dlrm_envelope, fresh_loader, monkeypatch):
    bin_dir = fresh_loader / "bin"
    bin_dir.mkdir()
    if scenario != "no compiler":
        install_stub(bin_dir, STUBS[scenario])
    monkeypatch.setenv("PATH", str(bin_dir))
    heard = []
    listener = lambda kind, fields: heard.append((kind, fields))  # noqa: E731
    events.add_listener(listener)
    try:
        assert gl64.kernel_tier() == "numpy"
        # thousands of kernel calls later: same tier, same bytes, one event
        assert dlrm_envelope() == native_dlrm_envelope
        assert gl64.kernel_tier() == "numpy"
    finally:
        events.remove_listener(listener)
    assert fallback_events() == 1
    (kind, fields), = heard
    assert kind == "degraded" and fields["reason"] == "field_kernel_fallback"
    assert fields["detail"].startswith(reason), fields


@needs_cc
def test_cached_object_loads_without_compiling(fresh_loader, monkeypatch):
    bin_dir = fresh_loader / "bin"
    install_stub(bin_dir, PASS_THROUGH)
    monkeypatch.setenv("PATH", str(bin_dir))
    assert gl64.kernel_tier() == "native"
    built = os.listdir(native._BUILD_DIR)
    assert len(built) == 1 and built[0].startswith("gl64-") \
        and built[0].endswith(".so")
    # same banner, but any attempt to compile now fails loudly
    install_stub(bin_dir, FAILS)
    monkeypatch.setattr(native, "_handle", native._UNSET)
    assert gl64.kernel_tier() == "native"
    assert fallback_events() == 0
    assert os.listdir(native._BUILD_DIR) == built


@needs_cc
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
    assert gl64.kernel_tier() == "native"
    assert fallback_events() == 0
    assert len(made) == 1 and not os.path.exists(made[0])  # gone once loaded
    a = np.array([P - 1, 5], dtype=np.uint64)
    assert gl64.mul(a, a).tolist() == [1, 25]


@needs_cc
def test_two_processes_building_at_once_both_end_up_native(tmp_path):
    build_dir = tmp_path / "_native"
    script = (
        "import sys\n"
        "from repro.field import gl64, native\n"
        "native._BUILD_DIR = sys.argv[1]\n"
        "print(gl64.kernel_tier())\n"
    )
    procs = [subprocess.Popen([sys.executable, "-c", script, str(build_dir)],
                              stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    tiers = [proc.communicate(timeout=120)[0].strip() for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert tiers == ["native", "native"]
    left = os.listdir(build_dir)
    assert len(left) == 1 and left[0].endswith(".so")  # no tmp files behind
