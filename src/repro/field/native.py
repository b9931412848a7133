"""Build-at-first-use loader for the compiled Goldilocks kernel.

``gl64_native.c`` is compiled once with the local ``cc`` into
``_native/gl64-<key>.so`` (keyed by its source, the compiler's version
banner, the compile command and the machine: an edit, a new toolchain or
a new flag never loads a stale object), self-tested against Python-int
arithmetic and handed to :mod:`repro.field.gl64` as a ``ctypes`` handle.
It is the only arithmetic path: if any step fails, :func:`library` raises
:class:`~repro.resilience.errors.KernelUnavailableError` saying why (``no
C compiler``, ``build failed``, ``load failed`` or ``self-test failed``),
and raises it again on every later call without another build, so proving
and verifying need a working ``cc``.  There is no switch.
The NTT, inversion, weighted-sum, Horner, constraint-tape, Merkle and
column-digest kernels have a scalar build and, on x86-64, an eight-lane
AVX-512 one (eight residues a vector, multiplied with ``vpmuludq``); the
object picks one per process from the CPU it runs on (:func:`lane_width`),
and the self-test checks both.  Those kernels also split a large call over
threads (:func:`thread_count`, one per CPU this process may run on) and
join them before returning; the self-test holds a threaded call to the
serial answer.
The object has the trust of the source tree it sits in (like a
``__pycache__`` entry); when the package directory is not writable it is
built in a 0700 ``mkdtemp`` directory that is removed once loaded.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import shutil
import struct
import subprocess
import tempfile
import threading

from repro.resilience.errors import KernelUnavailableError

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "gl64_native.c")
_BUILD_DIR = os.path.join(_HERE, "_native")

_PTR, _OFF, _LEN = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_size_t
_EWISE = (None, [_PTR, _PTR, _OFF, _OFF, _PTR, _OFF, _OFF, _LEN, _LEN])
_ROWS = (None, [_PTR, _PTR, _OFF, _PTR, _PTR, _LEN, _LEN])
_SIGNATURES = {
    "gl_mul": _EWISE, "gl_add": _EWISE, "gl_sub": _EWISE,
    "gl_ntt": (None, [_PTR, _OFF, _PTR, _OFF, _OFF, _LEN, _LEN, _PTR, _PTR, _PTR, _OFF]),
    "gl_batch_inv": (_OFF, [_PTR, _PTR, _LEN]),
    "gl_powers": (None, [_PTR, ctypes.c_uint64, ctypes.c_uint64, _LEN]),
    "gl_weighted_sum": _ROWS, "gl_poly_eval_rows": _ROWS,
    "gl_eval_tape": (ctypes.c_int,
                     [_PTR, _PTR, _LEN, _LEN, _PTR, _LEN, _LEN, _PTR, _PTR]),
    "gl_merkle_tree": (None, [_PTR, _PTR, _LEN, _LEN, _LEN, _LEN, _PTR, _PTR]),
    "gl_hash_columns": (None, [_PTR, _PTR, _LEN, _LEN]),
}

_UNSET = object()
_LOCK = threading.Lock()
#: The compiler's flags: ``-O3`` vectorizes, ``-pthread`` for the kernel
#: threads.  They key the object's name with the source and the compiler.
_CFLAGS = ("-O3", "-pthread", "-shared", "-fPIC")
#: The loaded library, or the error saying why there is none; ``_UNSET``
#: before first use.
_handle = _UNSET


def library() -> ctypes.CDLL:
    """The kernel library, built and self-tested on first call.

    Raises :class:`KernelUnavailableError` when it cannot be built, loaded
    or trusted; the failure is kept, so later calls raise the same reason
    without running ``cc`` again."""
    global _handle
    if _handle is _UNSET:
        with _LOCK:
            if _handle is _UNSET:
                try:
                    _handle = _load()
                except KernelUnavailableError as exc:
                    _handle = exc
                except OSError as exc:
                    _handle = KernelUnavailableError("load failed: %s" % exc)
    if isinstance(_handle, KernelUnavailableError):
        raise KernelUnavailableError(_handle.message)
    return _handle


def lane_width() -> int:
    """8 when this process runs the eight-lane build of the lane kernels
    (NTT, inversion, weighted sum, Horner, tape, Merkle, column digests);
    1 on the scalar
    build."""
    return _lanes(library()).value


@contextlib.contextmanager
def scalar_build():
    """Run the compiled kernels on their scalar build for the duration (a
    test hook: the process picks the build it runs from its CPU)."""
    lanes = _lanes(library())
    saved, lanes.value = lanes.value, 1
    try:
        yield
    finally:
        lanes.value = saved


def _lanes(lib: ctypes.CDLL) -> ctypes.c_int:
    return ctypes.c_int.in_dll(lib, "gl_lanes")


def cpu_count() -> int:
    """The CPUs this process may run on (its affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def thread_count() -> int:
    """The threads a large kernel call splits over in this process: one
    per CPU of its affinity mask, unless :func:`set_threads` said
    otherwise."""
    return _threads(library()).value


def set_threads(count: int) -> None:
    """Split large kernel calls over ``count`` threads from now on (a
    cluster worker takes its share of the CPUs; 1 runs every call on the
    calling thread)."""
    _threads(library()).value = max(1, int(count))


@contextlib.contextmanager
def threads(count: int):
    """Run the kernels on ``count`` threads for the duration (a test hook)."""
    saved = thread_count()
    set_threads(count)
    try:
        yield
    finally:
        set_threads(saved)


def serial():
    """Run every kernel call on the calling thread for the duration (a
    test hook, like :func:`scalar_build`)."""
    return threads(1)


def forks() -> int:
    """Kernel calls of this process that went parallel so far."""
    return ctypes.c_size_t.in_dll(library(), "gl_forks").value


def _threads(lib: ctypes.CDLL) -> ctypes.c_int:
    return ctypes.c_int.in_dll(lib, "gl_threads")


def _object_name(cc: str, banner: bytes) -> str:
    """``gl64-<key>.so``: the key hashes the source, the compiler's banner,
    its command line and the machine."""
    with open(_SOURCE, "rb") as fh:
        key = hashlib.sha256(fh.read() + banner + platform.machine().encode())
    key.update("\0".join((cc,) + _CFLAGS).encode())
    return "gl64-%s.so" % key.hexdigest()[:16]


def _load() -> ctypes.CDLL:
    cc = shutil.which("cc") or shutil.which("gcc") or "cc"
    try:
        banner = subprocess.run([cc, "--version"], capture_output=True,
                                check=True, timeout=60).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        raise KernelUnavailableError("no C compiler: %s" % exc) from exc
    name = _object_name(cc, banner)
    path, scratch = os.path.join(_BUILD_DIR, name), None
    try:
        if not os.path.exists(path):
            try:
                os.makedirs(_BUILD_DIR, exist_ok=True)
                _compile(cc, path)
            except OSError:
                try:
                    scratch = tempfile.mkdtemp(prefix="zkml-gl64-")
                    path = os.path.join(scratch, name)
                    _compile(cc, path)
                except OSError as exc:
                    raise KernelUnavailableError(
                        "build failed: no writable build directory: %s" % exc) from exc
        try:
            lib = ctypes.CDLL(path)
            for fn, (restype, argtypes) in _SIGNATURES.items():
                getattr(lib, fn).restype = restype
                getattr(lib, fn).argtypes = argtypes
        except (OSError, AttributeError) as exc:
            raise KernelUnavailableError("load failed: %s" % exc) from exc
    finally:
        if scratch is not None:  # the mapping outlives the file
            shutil.rmtree(scratch, ignore_errors=True)
    _threads(lib).value = cpu_count()
    _self_test(lib)
    return lib


def _compile(cc: str, path: str) -> None:
    """Build to a private temp name, then rename: racing builders each
    install a whole object.  ``-O3`` vectorizes the lane loops written as
    plain C, blake2b's (``-O2`` leaves them scalar); the arithmetic ones are
    AVX-512 intrinsics.  No ``-march=native``: the object may outlive the
    CPU it was built on, so it carries a scalar build and, on x86-64, an
    eight-lane AVX-512 one, and picks between them when it is loaded."""
    tmp = "%s.tmp.%d.%d" % (path, os.getpid(), threading.get_ident())
    open(tmp, "wb").close()  # an unwritable directory is an OSError, not a cc error
    try:
        subprocess.run([cc, *_CFLAGS, "-o", tmp, _SOURCE],
                       capture_output=True, check=True, timeout=300)
        os.replace(tmp, path)
    except subprocess.SubprocessError as exc:
        detail = getattr(exc, "stderr", b"") or str(exc).encode()
        raise KernelUnavailableError("build failed: %s" % detail.decode(
            "utf-8", "replace").strip()[-300:]) from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _self_test(lib: ctypes.CDLL) -> None:
    """Every kernel, over the residues where a wrong carry or fold shows,
    against Python-int arithmetic, and the Merkle trees against
    ``hashlib``: on the scalar build, then on the eight-lane one where this
    CPU runs it.  The sizes straddle the lane boundaries: NTT rows of 16
    (the in-register spans and one vector span) and 64, strided and not;
    widths, lengths and leaf counts that are not multiples of eight.  The
    row kernels also read through a row index, the NTT also writes
    through an output row stride, and leaves are read from LDEs."""
    lanes = _lanes(lib)
    chosen, cases = lanes.value, _cases(lib)
    try:
        for width in sorted({1, chosen}):
            lanes.value = width
            for what, (run, want) in cases.items():
                if run() != want:
                    raise KernelUnavailableError("self-test failed: %s%s" % (
                        what, "" if width == 1 else " (%d-lane build)" % width))
    finally:
        lanes.value = chosen


def _cases(lib: ctypes.CDLL) -> dict:
    """kernel -> (a thunk calling it, the answer it must give)"""
    p = (1 << 64) - (1 << 32) + 1
    edge = [0, 1, p - 1, (1 << 32) - 1, 1 << 32, p - (1 << 32), p - 2, 1 << 63]
    a, b = [x for x in edge for _ in edge], edge * len(edge)
    n, xs = len(a), [(edge[i % 8] + i // 8) % p for i in range(40)]

    def call(fn, size, *args):
        """a thunk: (fn's size-word out, its return value)"""
        args = [(ctypes.c_uint64 * len(x))(*x) if isinstance(x, list) else x
                for x in args]

        def run():
            out = (ctypes.c_uint64 * size)()
            code = getattr(lib, fn)(out, *args)
            return list(out), code
        return run

    def ntt(rows, scale, transposed=False, ors=0):
        """gl_ntt on rows of one power-of-two length, read row-major or
        column-major, scaled per index (a list), by one scalar or not, and
        written ors apart (default: back to back; the gaps stay zero)"""
        m, size = len(rows), len(rows[0])
        ors = ors or size
        bits, root = size.bit_length() - 1, pow(7, (p - 1) // size, p)
        rev = [int(format(i, "0%db" % bits)[::-1], 2) for i in range(size)]
        powers = [pow(root, i, p) for i in range(size)]
        tw = [powers[size // (2 << s) * j] for s in range(bits) for j in range(1 << s)]
        vector = isinstance(scale, list)
        factor = scale if vector else [1 if scale is None else scale] * size
        flat = [x for col in zip(*rows) for x in col] if transposed else sum(rows, [])
        run = call("gl_ntt", m * ors, ors, flat, *((1, m) if transposed else (size, 1)),
                   m, size, (ctypes.c_int64 * size)(*rev), tw,
                   None if scale is None else factor[:size if vector else 1], int(vector))
        gap = [0] * (ors - size)
        return run, ([y for row in rows for y in [
            sum(x * factor[rev[i]] * powers[i * j % size] for i, x in enumerate(row)) % p
            for j in range(size)] + gap], None)

    # rows of 16 (nine scaled per index, three unscaled read column-major)
    # and one row of 64 scaled by a scalar
    mat = [[(edge[(3 * i + r) % 8] + r) % p for i in range(64)] for r in range(9)]
    cases = {
        "gl_ntt": ntt([row[:16] for row in mat], edge[::-1] * 2),
        "gl_ntt strided": ntt([row[16:32] for row in mat[:3]], None, transposed=True),
        "gl_ntt 64": ntt(mat[4:5], p - 2),
        "gl_ntt out stride": ntt([row[32:48] for row in mat[:3]], None, ors=21),
    }
    # 37 residues (a lane chain body and a tail), and a zero inside a lane
    inv_in = [x or 5 for x in xs[:37]]
    cases.update({
        "gl_batch_inv": (call("gl_batch_inv", 37, inv_in, 37),
                         ([pow(x, p - 2, p) for x in inv_in], -1)),
        "gl_batch_inv zero": (lambda: call("gl_batch_inv", 37, inv_in[:20] + [0] + inv_in[21:],
                                           37)()[1], 20),
        "gl_weighted_sum": (call("gl_weighted_sum", 11, xs[:33], 11, None,
                                 [p - 1, 1 << 32, 3], 3, 11),
                            ([((p - 1) * x + (y << 32) + 3 * z) % p
                              for x, y, z in zip(xs, xs[11:], xs[22:33])], None)),
        "gl_poly_eval_rows": (call("gl_poly_eval_rows", 9, (xs * 3)[:117], 13, None,
                                   xs[:9], 9, 13),
                              ([sum(c * pow(x, j, p)
                                    for j, c in enumerate((xs * 3)[13 * i:13 * i + 13])) % p
                                for i, x in enumerate(xs[:9])], None)),
        "gl_powers": (call("gl_powers", 19, p - 2, 1 << 32, 19),
                      ([(p - 2) * pow(1 << 32, i, p) % p for i in range(19)], None)),
    })
    # the row kernels through a row index: rows 4, 0, 4 and 2 of a (5, 9)
    # matrix whose rows lie 10 apart (the last word of each is skipped)
    pick, grid = [4, 0, 4, 2], (xs * 2)[:50]
    picked = [grid[10 * i:10 * i + 9] for i in pick]
    index = (ctypes.c_int64 * 4)(*pick)
    cases.update({
        "gl_weighted_sum row index": (
            call("gl_weighted_sum", 9, grid, 10, index, xs[5:9], 4, 9),
            ([sum(w * row[j] for w, row in zip(xs[5:9], picked)) % p for j in range(9)],
             None)),
        "gl_poly_eval_rows row index": (
            call("gl_poly_eval_rows", 4, grid, 10, index, xs[5:9], 4, 9),
            ([sum(c * pow(x, j, p) for j, c in enumerate(row)) % p
              for row, x in zip(picked, xs[5:9])], None)),
    })
    # one call above the work threshold, on two threads or more even where
    # the process has one CPU: 2^16 inversions equal the serial call's, and
    # of two zeros in later chunks the first is reported
    big = 1 << 16

    def threaded_inv():
        values = (ctypes.c_uint64 * big)()
        lib.gl_powers(values, 3, p - 2, big)
        outs = [(ctypes.c_uint64 * big)() for _ in range(3)]
        count, forks = _threads(lib), ctypes.c_size_t.in_dll(lib, "gl_forks")
        saved = count.value
        try:
            count.value = 1
            lib.gl_batch_inv(outs[0], values, big)
            count.value, before = max(2, saved), forks.value
            code = lib.gl_batch_inv(outs[1], values, big)
            forked = forks.value > before
            values[big - 5] = values[big // 2 + 3] = 0
            zero = lib.gl_batch_inv(outs[2], values, big)
        finally:
            count.value = saved
        return bytes(outs[0]) == bytes(outs[1]), code, forked, zero
    cases["gl_batch_inv threaded"] = (threaded_inv, (True, -1, True, big // 2 + 3))
    for fn, op in (("gl_mul", int.__mul__), ("gl_add", int.__add__), ("gl_sub", int.__sub__)):
        cases[fn] = (call(fn, n, a, n, 1, b, n, 1, 1, n),
                     ([op(x, y) % p for x, y in zip(a, b)], None))
    # gl_eval_tape over two columns of two coset parts of 19 rows (more
    # than a lane group): every opcode; m = u * v(+7) reads a wrapping
    # rotation and is a shared register; the scalars stand in for
    # constant-only subtrees.  Output rows [s1 - (m + s0) - m, -m],
    # unscaled and scaled per part
    rows = 19
    u = [edge[i % 8] for i in range(2 * rows)]
    v = [edge[(3 * i + 5) % 8] for i in range(2 * rows)]
    scalars, factors = [p - 1, 1 << 32], [3, p - 2]
    tape = [0, 0, 0, 0,  0, 1, 1, 7,  3, 2, 0, 1,  1, 3, 2, -1,  2, 4, -2, 3,
            2, 5, 4, 2,  5, 0, 5, 0,  4, 6, 2, 0,  5, 1, 6, 0]
    cols = (ctypes.POINTER(ctypes.c_uint64) * 2)(
        *((ctypes.c_uint64 * len(x))(*x) for x in (u, v)))  # keeps them alive
    m = [u[i] * v[i // rows * rows + (i + 7) % rows] % p for i in range(2 * rows)]
    outs = [(scalars[1] - (x + scalars[0]) - x) % p for x in m], [-x % p for x in m]
    for label, scale in (("", None), (" scaled", factors)):
        want = [outs[o][r * rows + t] * (scale[r] if scale else 1) % p
                for o in range(2) for t in range(rows) for r in range(2)]
        run = call("gl_eval_tape", 4 * rows, cols, 2, rows,
                   (ctypes.c_int32 * len(tape))(*tape), 9, 7, scalars, scale)
        cases["gl_eval_tape" + label] = (run, (want, 0))
    # gl_merkle_tree over (m, ext, n) LDEs, leaves read in place: m of 1,
    # 7, 8 and 9 columns (a leaf of 2, 14, 16 and 18 words: inside a block,
    # exactly one, one block and a word pair over) at ext 1, 2 and 4, and
    # n = 10, so 5, 10 and 20 leaves (lane groups and a tail, padding,
    # every level) checked against hashlib over the leaf rows
    persons = (b"zkml-leaf", b"zkml-node")

    def blake(data, person=b""):
        return hashlib.blake2b(data, digest_size=32, person=person).digest()

    def tree(m, ext, width, padded):
        lde = [(edge[i % 8] + i * 7919) % p for i in range(m * ext * width)]
        out = ctypes.create_string_buffer(32 * (2 * padded - 1))
        lib.gl_merkle_tree(out, (ctypes.c_uint64 * len(lde))(*lde), m, ext, width,
                           padded, *(x.ljust(16, b"\0") for x in persons))
        return lde, out.raw

    for m in (1, 7, 8, 9):
        for ext in (1, 2, 4):
            count, half = 5 * ext, 5
            padded = 1 << (count - 1).bit_length()
            lde, _ = tree(m, ext, 10, padded)
            level = [blake(struct.pack("<%dQ" % (2 * m), *(
                lde[(c * ext + j % ext) * 10 + j // ext + h * half]
                for h in (0, 1) for c in range(m))), persons[0]) for j in range(count)]
            level += [blake(b"", persons[0])] * (padded - count)
            want = b"".join(level)
            while len(level) > 1:
                level = [blake(x + y, persons[1]) for x, y in zip(level[::2], level[1::2])]
                want += b"".join(level)
            cases["gl_merkle_tree m=%d ext=%d" % (m, ext)] = (
                lambda args=(m, ext, 10, padded): tree(*args)[1], want)
    # gl_hash_columns: nine columns (a lane group and one over) of 16 and
    # 17 residues (one block exactly, a word over)
    for words in (16, 17):
        columns = [[(edge[(i + c) % 8] + c) % p for i in range(words)] for c in range(9)]
        ptrs = (ctypes.POINTER(ctypes.c_uint64) * 9)(
            *((ctypes.c_uint64 * words)(*col) for col in columns))

        def digests(ptrs=ptrs, words=words):
            out = ctypes.create_string_buffer(32 * 9)
            lib.gl_hash_columns(out, ptrs, 9, words)
            return out.raw

        cases["gl_hash_columns %d" % words] = (digests, b"".join(
            blake(struct.pack("<%dQ" % words, *col)) for col in columns))
    return cases
