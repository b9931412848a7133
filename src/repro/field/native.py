"""Build-at-first-use loader for the compiled Goldilocks kernel.

``gl64_native.c`` is compiled once with the local ``cc`` into
``_native/gl64-<key>.so`` (keyed by its source, the compiler's version
banner and the machine: an edit or a new toolchain never loads a stale
object), self-tested against Python-int arithmetic and handed to
:mod:`repro.field.gl64` as a ``ctypes`` handle.  If any step fails, one
``field_kernel_fallback`` event says why and :func:`library` is ``None``
for the life of the process: ``gl64``'s numpy bodies do the work,
bit-identically.  There is no switch: a compiler is present or it is not.
The object has the trust of the source tree it sits in (like a
``__pycache__`` entry); when the package directory is not writable it is
built in a 0700 ``mkdtemp`` directory that is removed once loaded.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from typing import Optional

from repro.resilience import events

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "gl64_native.c")
_BUILD_DIR = os.path.join(_HERE, "_native")

_PTR, _OFF, _LEN = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_size_t
_EWISE = (None, [_PTR, _PTR, _OFF, _OFF, _PTR, _OFF, _OFF, _LEN, _LEN])
_ROWS = (None, [_PTR, _PTR, _PTR, _LEN, _LEN])
_SIGNATURES = {
    "gl_mul": _EWISE, "gl_add": _EWISE, "gl_sub": _EWISE,
    "gl_ntt": (None, [_PTR, _PTR, _OFF, _OFF, _LEN, _LEN, _PTR, _PTR, _PTR, _OFF]),
    "gl_batch_inv": (_OFF, [_PTR, _PTR, _LEN]),
    "gl_weighted_sum": _ROWS, "gl_poly_eval_rows": _ROWS,
    "gl_eval_tape": (ctypes.c_int,
                     [_PTR, _PTR, _LEN, _LEN, _PTR, _LEN, _LEN, _PTR, _PTR]),
    "gl_merkle_tree": (None, [_PTR, _PTR, _LEN, _LEN, _LEN, _PTR, _PTR]),
}

_UNSET = object()
_LOCK = threading.Lock()
#: The loaded library; ``None`` on the numpy tier; ``_UNSET`` before first use.
_handle = _UNSET


class _Unavailable(Exception):
    """Why this process stays on the numpy tier."""


def library() -> Optional[ctypes.CDLL]:
    """The kernel library, built and self-tested on first call; else ``None``."""
    global _handle
    if _handle is _UNSET:
        with _LOCK:
            if _handle is _UNSET:
                try:
                    _handle = _load()
                except (_Unavailable, OSError) as exc:
                    _handle = None
                    events.degraded("field_kernel_fallback", detail=str(exc))
    return _handle


def _load() -> ctypes.CDLL:
    cc = shutil.which("cc") or "gcc"
    try:
        banner = subprocess.run([cc, "--version"], capture_output=True,
                                check=True, timeout=60).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        raise _Unavailable("no C compiler: %s" % exc) from exc
    with open(_SOURCE, "rb") as fh:
        key = hashlib.sha256(fh.read() + banner + platform.machine().encode())
    name = "gl64-%s.so" % key.hexdigest()[:16]
    path, scratch = os.path.join(_BUILD_DIR, name), None
    try:
        if not os.path.exists(path):
            try:
                os.makedirs(_BUILD_DIR, exist_ok=True)
                _compile(cc, path)
            except OSError:
                scratch = tempfile.mkdtemp(prefix="zkml-gl64-")
                path = os.path.join(scratch, name)
                _compile(cc, path)
        try:
            lib = ctypes.CDLL(path)
            for fn, (restype, argtypes) in _SIGNATURES.items():
                getattr(lib, fn).restype = restype
                getattr(lib, fn).argtypes = argtypes
        except (OSError, AttributeError) as exc:
            raise _Unavailable("load failed: %s" % exc) from exc
    finally:
        if scratch is not None:  # the mapping outlives the file
            shutil.rmtree(scratch, ignore_errors=True)
    _self_test(lib)
    return lib


def _compile(cc: str, path: str) -> None:
    """Build to a private temp name, then rename: racing builders each
    install a whole object.  No ``-march=native``: the object may outlive
    the CPU it was built on."""
    tmp = "%s.tmp.%d.%d" % (path, os.getpid(), threading.get_ident())
    open(tmp, "wb").close()  # an unwritable directory is an OSError, not a cc error
    try:
        subprocess.run([cc, "-O2", "-shared", "-fPIC", "-o", tmp, _SOURCE],
                       capture_output=True, check=True, timeout=300)
        os.replace(tmp, path)
    except subprocess.SubprocessError as exc:
        detail = getattr(exc, "stderr", b"") or str(exc).encode()
        raise _Unavailable("build failed: %s" % detail.decode(
            "utf-8", "replace").strip()[-300:]) from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _self_test(lib: ctypes.CDLL) -> None:
    """Every kernel once, over the residues where a wrong carry or fold
    shows, against Python-int arithmetic; the Merkle tree against
    ``hashlib``."""
    p = (1 << 64) - (1 << 32) + 1
    edge = [0, 1, p - 1, (1 << 32) - 1, 1 << 32, p - (1 << 32), p - 2, 1 << 63]
    a, b = [x for x in edge for _ in edge], edge * len(edge)
    n, xs, nonzero = len(a), edge * 2, edge[1:]
    root = pow(7, (p - 1) // 16, p)
    rev = (ctypes.c_int64 * 16)(*(int(format(i, "04b")[::-1], 2) for i in range(16)))
    tw = [pow(root, 8 // half * j, p) for half in (1, 2, 4, 8) for j in range(half)]

    def run(fn, size, *args):
        out = (ctypes.c_uint64 * size)()
        code = getattr(lib, fn)(out, *(
            (ctypes.c_uint64 * len(x))(*x) if isinstance(x, list) else x
            for x in args))
        return list(out), code

    checks = {
        "gl_ntt": (run("gl_ntt", 16, xs, 16, 1, 1, 16, rev, tw, [p - 2], 0)[0],
                   [sum((p - 2) * x * pow(root, i * j, p) for i, x in enumerate(xs)) % p
                    for j in range(16)]),
        "gl_batch_inv": (run("gl_batch_inv", 7, nonzero, 7),
                         ([pow(x, p - 2, p) for x in nonzero], -1)),
        "gl_batch_inv zero": (run("gl_batch_inv", 3, [5, 0, 0], 3)[1], 1),
        "gl_weighted_sum": (run("gl_weighted_sum", 8, xs, [p - 1, 1 << 32], 2, 8)[0],
                            [((p - 1) * x + (y << 32)) % p for x, y in zip(xs, xs[8:])]),
        "gl_poly_eval_rows": (run("gl_poly_eval_rows", 5, b[:40], edge[2:7], 5, 8)[0],
                              [sum(c * pow(x, j, p) for j, c in enumerate(b[8 * i:8 * i + 8])) % p
                               for i, x in enumerate(edge[2:7])]),
    }
    for fn, op in (("gl_mul", int.__mul__), ("gl_add", int.__add__), ("gl_sub", int.__sub__)):
        checks[fn] = (run(fn, n, a, n, 1, b, n, 1, 1, n)[0],
                      [op(x, y) % p for x, y in zip(a, b)])
    # gl_eval_tape over two columns of two coset parts of 8 rows: every
    # opcode; m = u * v(+7) reads a wrapping rotation and is a shared
    # register; the scalars stand in for constant-only subtrees.  Output
    # rows [s1 - (m + s0) - m, -m], unscaled and scaled per part
    u, v, scalars, scale = edge * 2, edge[::-1] * 2, [p - 1, 1 << 32], [3, p - 2]
    tape = [0, 0, 0, 0,  0, 1, 1, 7,  3, 2, 0, 1,  1, 3, 2, -1,  2, 4, -2, 3,
            2, 5, 4, 2,  5, 0, 5, 0,  4, 6, 2, 0,  5, 1, 6, 0]
    col_data = [(ctypes.c_uint64 * 16)(*x) for x in (u, v)]
    cols = (ctypes.c_void_p * 2)(*(ctypes.addressof(x) for x in col_data))
    m = [u[i] * v[i // 8 * 8 + (i + 7) % 8] % p for i in range(16)]
    rows = [(scalars[1] - (x + scalars[0]) - x) % p for x in m], [-x % p for x in m]
    for label, factors in (("", None), (" scaled", scale)):
        want = [rows[o][r * 8 + t] * (factors[r] if factors else 1) % p
                for o in range(2) for t in range(8) for r in range(2)]
        checks["gl_eval_tape" + label] = (
            run("gl_eval_tape", 32, cols, 2, 8, (ctypes.c_int32 * len(tape))(*tape),
                9, 7, scalars, factors),
            (want, 0))
    # gl_merkle_tree: three leaves padded to four, at 8, 128 and 136 bytes
    # a leaf (one block, one full block, a second block), against hashlib
    def blake(data, person):
        return hashlib.blake2b(data, digest_size=32, person=person).digest()

    persons = (b"zkml-leaf", b"zkml-node")
    for size in (8, 128, 136):
        leaves = [bytes((i * 7 + j) % 256 for j in range(size)) for i in range(3)]
        level = [blake(x, persons[0]) for x in leaves + [b""]]
        want = b"".join(level)
        while len(level) > 1:
            level = [blake(a + b, persons[1]) for a, b in zip(level[::2], level[1::2])]
            want += b"".join(level)
        out = ctypes.create_string_buffer(len(want))
        lib.gl_merkle_tree(out, b"".join(leaves), 3, size, 4,
                           *(x.ljust(16, b"\0") for x in persons))
        checks["gl_merkle_tree %d" % size] = (out.raw, want)
    for what, (got, want) in checks.items():
        if got != want:
            raise _Unavailable("self-test failed: %s" % what)
