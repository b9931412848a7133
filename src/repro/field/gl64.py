"""Vectorized Goldilocks arithmetic on numpy ``uint64`` arrays.

The Goldilocks prime ``p = 2^64 - 2^32 + 1`` admits branch-light modular
arithmetic entirely inside 64-bit words: ``2^64 ≡ 2^32 - 1 (mod p)`` and
``2^96 ≡ -1 (mod p)``, so a 128-bit product folds back into one word with
two shifted adds.  That turns every per-row interpreter loop in the prover
into a handful of numpy passes — the same trick plonky2 uses to keep its
field arithmetic in scalar registers.

All functions are *exact*: results are canonical residues in ``[0, p)``
and agree bit-for-bit with the scalar arithmetic of
:mod:`repro.field.prime_field` (property-tested in
``tests/field/test_gl64.py``).  Inputs must already be canonical.

There are two tiers.  Where the box has a C compiler, each public kernel
first hands plain operands to ``gl64_native.c`` (see
:mod:`repro.field.native`); the numpy bodies here are the fallback tier
and the byte-identity oracle the compiled one is tested against.
"""

from __future__ import annotations

import math
import threading
from typing import List, Sequence

import numpy as np

from repro.field import native

#: The Goldilocks modulus.
P = (1 << 64) - (1 << 32) + 1

_P = np.uint64(P)
#: 2^64 mod p — the correction term for wrapping adds/subs.
_EPS = np.uint64((1 << 32) - 1)
_MASK32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
_ZERO = np.uint64(0)


def from_ints(values: Sequence[int]) -> np.ndarray:
    """Pack canonical residues into a ``uint64`` array."""
    if isinstance(values, np.ndarray) and values.dtype == np.uint64:
        return values
    return np.array(values, dtype=np.uint64)


def to_ints(vec: np.ndarray) -> List[int]:
    """Unpack a ``uint64`` array into plain Python ints."""
    return vec.tolist()


# -- compiled tier -----------------------------------------------------------
#
# Each public kernel starts with "the compiled library is loaded and the
# operands are C-contiguous uint64 of a supported shape -> one foreign call".
# Anything else (no compiler on the box, a strided view, another shape) runs
# the numpy body below it, which is also the oracle the compiled tier is
# tested against: the two are bit-identical.


def kernel_tier() -> str:
    """``"native"`` when the compiled kernel is in use, else ``"numpy"``."""
    return "numpy" if native.library() is None else "native"


def _plain(x) -> bool:
    return type(x) is np.ndarray and x.dtype == np.uint64 and x.flags.c_contiguous


def _native_ewise(name: str, out, a, b) -> bool:
    """``out = a (op) b`` in one foreign call; False means "not run".

    ``out`` is 1-D or 2-D; an operand is a scalar, ``out``-shaped, a row
    ``(n,)`` or a column ``(m, 1)``.  A broadcast operand overlapping ``out``
    would be read after it was written, so that case stays with numpy.
    """
    lib = native.library()
    if lib is None or not _plain(out) or not 0 < out.ndim <= 2 or not out.size:
        return False
    cols = out.shape[-1]
    rows = out.size // cols
    lo = out.ctypes.data
    call, alive = [lo], []  # per operand: address, row stride, column stride
    for x in (a, b):
        if not (isinstance(x, np.ndarray) and x.ndim):
            x = np.array(x, dtype=np.uint64)
            strides = (0, 0)
        elif not _plain(x):
            return False
        elif x.shape == out.shape:
            strides = (cols, 1)
        elif x.shape == (cols,):
            strides = (0, 1)
        elif x.shape == (rows, 1) and out.ndim == 2:
            strides = (1, 0)
        else:
            return False
        ptr = x.ctypes.data
        if x.shape != out.shape and ptr < lo + out.nbytes and lo < ptr + x.nbytes:
            return False
        alive.append(x)
        call += [ptr, *strides]
    getattr(lib, name)(*call, rows, cols)
    return True


def _native_ntt(values, stages, rev, scale_rev):
    """The ``(m, n)`` transform in one foreign call, or None to run numpy.
    The gather reads ``values`` through its strides, so a transposed view
    (the six-step's first pass) needs no copy."""
    lib = native.library()
    packed = getattr(stages, "packed", None)
    if (lib is None or packed is None or type(values) is not np.ndarray
            or values.dtype != np.uint64 or not 0 < values.ndim <= 2
            or not values.size or any(s % 8 for s in values.strides)
            or rev.dtype != np.int64 or not rev.flags.c_contiguous):
        return None
    n = values.shape[-1]
    scale, scale_ptr, scale_stride = scale_rev, None, 0
    if isinstance(scale, np.ndarray) and scale.ndim:
        if not _plain(scale) or scale.shape != (n,):
            return None
        scale_ptr, scale_stride = scale.ctypes.data, 1
    elif scale is not None:
        scale = np.array(scale, dtype=np.uint64)
        scale_ptr = scale.ctypes.data
    out = np.empty(values.shape, dtype=np.uint64)
    lib.gl_ntt(out.ctypes.data, values.ctypes.data,
               values.strides[0] // 8 if values.ndim == 2 else 0,
               values.strides[-1] // 8, out.size // n, n, rev.ctypes.data,
               packed.ctypes.data, scale_ptr, scale_stride)
    return out


def _native_rows(name: str, rows, vec, out_axis: int):
    """``weighted_sum`` / ``poly_eval_rows`` over a plain ``(m, width)``
    matrix and a length-``m`` vector, or None to run numpy; the result is
    as long as ``rows``' axis ``out_axis``."""
    lib = native.library()
    if lib is None or not _plain(rows) or rows.ndim != 2 or not rows.size:
        return None
    m, width = rows.shape
    vec = np.ascontiguousarray(vec, dtype=np.uint64)
    if vec.shape != (m,):
        return None
    out = np.empty(rows.shape[out_axis], dtype=np.uint64)
    getattr(lib, name)(out.ctypes.data, rows.ctypes.data, vec.ctypes.data, m, width)
    return out


# -- in-place kernels --------------------------------------------------------
#
# Every elementwise kernel runs as a fixed sequence of numpy passes with
# ``out=`` on each ufunc, its temporaries drawn from a per-thread scratch
# block.  The passes themselves cost ~0.3 ns/element; what made the old
# allocating bodies cost 60-110 ns/element on anything past 4096 elements
# was the allocator handing each pass's fresh temporary back to the kernel
# and page-faulting it in again.  Operands larger than ``BLOCK`` elements
# are walked in C-order chunks of at most ``BLOCK``, so a chunk and its
# scratch stay cache-resident across the ~30 passes of a multiply.

#: Elements per kernel chunk (and per scratch row).
BLOCK = 1 << 14

#: Scratch rows: six for a multiply (operand limbs, partial products) and
#: one holding the twiddled half of an NTT butterfly.
_SCRATCH_ROWS = 7

_TLS = threading.local()


def _scratch():
    """This thread's ``(rows, mask)`` scratch, created on first use."""
    try:
        return _TLS.scratch
    except AttributeError:
        _TLS.scratch = (
            np.empty((_SCRATCH_ROWS, BLOCK), dtype=np.uint64),
            np.empty(BLOCK, dtype=np.bool_),
        )
        return _TLS.scratch


def _chunks(shape):
    """Index tuples tiling ``shape`` in C order, at most ``BLOCK`` elements each."""
    if math.prod(shape) <= BLOCK:
        yield Ellipsis
        return
    # split the innermost axis whose trailing volume still fits a block
    ax, inner = len(shape) - 1, 1
    while inner * shape[ax] <= BLOCK:
        inner *= shape[ax]
        ax -= 1
    step = max(1, BLOCK // inner)
    for lead in np.ndindex(*shape[:ax]):
        for lo in range(0, shape[ax], step):
            yield lead + (slice(lo, lo + step),)


def _each_chunk(out, operands, nrows):
    """Walk ``out`` in chunks alongside its operands and this thread's scratch.

    Yields ``(out chunk, operand chunks, scratch views, mask view)``:
    array operands are broadcast to ``out`` and cut to the chunk, anything
    else becomes a ``uint64`` scalar, and the first ``nrows`` scratch rows
    and the mask come shaped like the chunk.
    """
    shape = out.shape
    ops = [
        (x if x.shape == shape else np.broadcast_to(x, shape))
        if isinstance(x, np.ndarray) and x.ndim else np.uint64(x)
        for x in operands
    ]
    rows, mask = _scratch()
    for idx in _chunks(shape):
        o = out[idx]
        yield (
            o,
            [x[idx] if x.ndim else x for x in ops],
            [rows[i, : o.size].reshape(o.shape) for i in range(nrows)],
            mask[: o.size].reshape(o.shape),
        )


def _limbs(x):
    """The ``(low, high)`` 32-bit halves of a scalar or array."""
    return x & _MASK32, x >> _SH32


def _sub_chunk(out, a, b, t, mask):
    # a wrapping difference is short by 2^64 = EPS (mod p) exactly when it
    # borrowed, and canonical inputs make the corrected value canonical
    np.less(a, b, out=mask)
    np.subtract(a, b, out=out)
    np.multiply(mask, _EPS, out=t)
    np.subtract(out, t, out=out)


def _mul_chunk(out, a, b_lo, b_hi, s0, s1, s2, s3, mask):
    """``out = a * b mod p`` for one chunk; ``out`` may alias ``a``.

    The 128-bit product ``(x_hi, x_lo)`` is assembled from 32-bit limb
    products without carry flags (``hl + (ll >> 32)`` and
    ``lh + (t mod 2^32)`` cannot overflow 64 bits), then folded using
    ``x ≡ x_lo + (x_hi mod 2^32)(2^32 - 1) - (x_hi >> 32)  (mod p)``.
    """
    np.bitwise_and(a, _MASK32, out=s0)          # a_lo
    np.right_shift(a, _SH32, out=s1)            # a_hi
    np.multiply(s0, b_lo, out=out)              # ll
    np.multiply(s1, b_lo, out=s2)               # hl
    np.right_shift(out, _SH32, out=s3)
    np.add(s2, s3, out=s2)                      # t = hl + (ll >> 32)
    np.multiply(s0, b_hi, out=s0)               # lh
    np.bitwise_and(s2, _MASK32, out=s3)
    np.add(s0, s3, out=s0)                      # u = lh + (t mod 2^32)
    np.multiply(s1, b_hi, out=s1)               # hh
    np.right_shift(s2, _SH32, out=s2)
    np.add(s1, s2, out=s1)
    np.right_shift(s0, _SH32, out=s2)
    np.add(s1, s2, out=s1)                      # x_hi = hh + (t >> 32) + (u >> 32)
    np.bitwise_and(out, _MASK32, out=out)
    np.left_shift(s0, _SH32, out=s0)
    np.bitwise_or(out, s0, out=out)             # x_lo = (u << 32) | (ll mod 2^32)
    # fold (x_hi, x_lo) mod p
    np.right_shift(s1, _SH32, out=s0)           # x_hi >> 32
    np.bitwise_and(s1, _MASK32, out=s1)
    _sub_chunk(out, out, s0, s2, mask)          # t0 = x_lo - (x_hi >> 32)
    np.multiply(s1, _EPS, out=s1)               # t1 = (x_hi mod 2^32) * EPS
    np.add(out, s1, out=out)
    np.less(out, s1, out=mask)                  # the add wrapped: owe EPS
    np.multiply(mask, _EPS, out=s0)
    np.add(out, s0, out=out)
    # canonicalize: out - p wraps above out exactly when out < p
    np.subtract(out, _P, out=s0)
    np.minimum(out, s0, out=out)


def mul_into(out: np.ndarray, a: np.ndarray, b) -> None:
    """``out[...] = (a * b) mod p``; ``out`` may be ``a`` or ``b`` itself."""
    if _native_ewise("gl_mul", out, a, b):
        return
    for o, (a_c, b_c), s, mask in _each_chunk(out, (a, b), 6):
        if b_c.ndim:
            b_lo, b_hi = s[4], s[5]
            np.bitwise_and(b_c, _MASK32, out=b_lo)
            np.right_shift(b_c, _SH32, out=b_hi)
        else:
            b_lo, b_hi = _limbs(b_c)
        _mul_chunk(o, a_c, b_lo, b_hi, *s[:4], mask)


def sub_into(out: np.ndarray, a, b) -> None:
    """``out[...] = (a - b) mod p``; ``out`` may be ``a`` or ``b`` itself."""
    if _native_ewise("gl_sub", out, a, b):
        return
    for o, (a_c, b_c), (t,), mask in _each_chunk(out, (a, b), 1):
        _sub_chunk(o, a_c, b_c, t, mask)


def add_into(out: np.ndarray, a: np.ndarray, b) -> None:
    """``out[...] = (a + b) mod p``, computed as ``a - (p - b)``.

    ``p - b`` is in ``[1, p]``; the one non-canonical value (``b = 0``)
    always borrows against a canonical ``a`` and the correction returns
    ``a`` unchanged, so no separate canonicalizing pass is needed.
    """
    if _native_ewise("gl_add", out, a, b):
        return
    for o, (a_c, b_c), (t, nb), mask in _each_chunk(out, (a, b), 2):
        if b_c.ndim:
            np.subtract(_P, b_c, out=nb)
        else:
            nb = _P - b_c
        _sub_chunk(o, a_c, nb, t, mask)


def _result(a, b) -> np.ndarray:
    """An uninitialized array of the operands' broadcast shape."""
    sa, sb = getattr(a, "shape", ()), getattr(b, "shape", ())
    shape = sa if sa == sb or not sb else np.broadcast_shapes(sa, sb)
    return np.empty(shape, dtype=np.uint64)


def add(a: np.ndarray, b) -> np.ndarray:
    """Elementwise ``(a + b) mod p``; ``b`` may be an array or a scalar."""
    out = _result(a, b)
    add_into(out, a, b)
    return out


def sub(a, b) -> np.ndarray:
    """Elementwise ``(a - b) mod p``; either side may be a scalar."""
    out = _result(a, b)
    sub_into(out, a, b)
    return out


def neg(a: np.ndarray) -> np.ndarray:
    """Elementwise ``-a mod p`` (canonical: ``-0 = 0``)."""
    return np.where(a == _ZERO, _ZERO, _P - a)


def mul(a: np.ndarray, b) -> np.ndarray:
    """Elementwise ``(a * b) mod p``; ``b`` may be an array or a scalar."""
    out = _result(a, b)
    mul_into(out, a, b)
    return out


def fold(acc: np.ndarray, y: int, values) -> np.ndarray:
    """``acc * y + values`` elementwise — the constraint-folding step."""
    out = mul(acc, y)
    add_into(out, out, values)
    return out


#: Sequential chain length of the blocked batch inversion.  Each of the
#: ``n / 16`` chains runs the Montgomery trick in ``3 * 16`` vectorized
#: multiply passes shared across all chains.
_INV_CHAIN = 16


#: At or below this many elements the ~50 fixed-cost vector passes of the
#: blocked trick lose to ``PrimeField.batch_inv`` on Python ints (the
#: verifier inverts a few hundred DEEP denominators per proof).
_INV_SMALL = 256


def batch_inv(values: np.ndarray) -> np.ndarray:
    """Elementwise modular inverse via a blocked Montgomery trick.

    The input is split into ``G = ceil(n / 16)`` independent chains of 16
    elements (padded with ones); prefix products run down the chains with
    16 vectorized multiply passes of width ``G``, the ``G`` chain totals
    are inverted with the classic sequential trick in Python ints (one
    modular exponentiation total), and two more passes per chain level
    recover every elementwise inverse.  Inverses are unique, so the
    result matches ``PrimeField.batch_inv`` element for element; a zero
    raises the same ``ZeroDivisionError`` (at the first zero index).
    """
    lib = native.library()
    if lib is not None and _plain(values) and values.ndim == 1 and values.size:
        out = np.empty_like(values)
        zero = lib.gl_batch_inv(out.ctypes.data, values.ctypes.data, len(values))
        if zero < 0:
            return out
        raise ZeroDivisionError("batch_inv of zero at index %d" % zero)
    n = len(values)
    if n == 0:
        return values.copy()
    zero_mask = values == _ZERO
    if zero_mask.any():
        raise ZeroDivisionError(
            "batch_inv of zero at index %d" % int(np.argmax(zero_mask))
        )
    if n <= _INV_SMALL:
        from repro.field.prime_field import GOLDILOCKS

        return np.array(GOLDILOCKS.batch_inv(values.tolist()), dtype=np.uint64)
    levels = _INV_CHAIN
    chains = -(-n // levels)
    pad = levels * chains - n
    v = values
    if pad:
        v = np.concatenate([values, np.ones(pad, dtype=np.uint64)])
    v = v.reshape(levels, chains)
    prefix = np.empty_like(v)
    prefix[0] = v[0]
    for i in range(1, levels):
        mul_into(prefix[i], prefix[i - 1], v[i])
    # invert the chain totals sequentially in Python ints
    totals = prefix[levels - 1].tolist()
    running = 1
    prefs = [1] * chains
    for g in range(chains):
        prefs[g] = running
        running = running * totals[g] % P
    inv_acc = pow(running, P - 2, P)
    tinv = [0] * chains
    for g in range(chains - 1, -1, -1):
        tinv[g] = prefs[g] * inv_acc % P
        inv_acc = inv_acc * totals[g] % P
    # walk each chain back up: c holds inv(prefix[i]) entering level i
    c = np.array(tinv, dtype=np.uint64)
    out = np.empty_like(v)
    for i in range(levels - 1, 0, -1):
        mul_into(out[i], prefix[i - 1], c)
        mul_into(c, c, v[i])
    out[0] = c
    return out.reshape(-1)[:n]


#: Register-tape opcodes (``gl64_native.c``'s ``TAPE_*``); an instruction
#: is four ``int32`` words, ``(op, dst, a, b)``.
TAPE_LOAD, TAPE_ADD, TAPE_SUB, TAPE_MUL, TAPE_NEG, TAPE_STORE = range(6)

_TAPE_INTO = {TAPE_ADD: add_into, TAPE_SUB: sub_into, TAPE_MUL: mul_into}


def eval_tape(code: np.ndarray, num_regs: int, cols: Sequence[np.ndarray],
              scalars: np.ndarray, out: np.ndarray, parts: int = 1,
              scale: np.ndarray = None) -> None:
    """Run a register tape (:mod:`repro.halo2.tape`) over ``cols`` into ``out``.

    ``code`` is an ``(len, 4)`` ``int32`` array of ``(op, dst, a, b)``:
    ``LOAD reg slot rot`` reads ``cols[slot]`` at row ``t + rot``;
    ``ADD``/``SUB``/``MUL reg a b`` and ``NEG reg a`` compute into a
    register; ``STORE row a`` writes output row ``row``, times
    ``scale[part]`` when ``scale`` is given.  An operand ``>= 0`` is a
    register, ``x < 0`` is ``scalars[-1 - x]``.  Each column holds
    ``parts`` runs of ``n`` values (coset parts; a rotation is cyclic
    within a part) and ``out`` is ``(outputs, parts * n)`` with part ``r``
    of row ``t`` at ``t * parts + r``.

    Rows are walked in blocks, every instruction per block, so the
    registers are ``num_regs`` blocks whatever ``n`` is: one foreign call,
    or on the numpy tier ``BLOCK``-element blocks through the ``*_into``
    kernels.
    """
    if not out.size or _native_tape(code, num_regs, cols, scalars, out,
                                    parts, scale):
        return
    n = out.shape[1] // parts
    width = min(n, max(1, BLOCK // parts))
    mats = [c.reshape(parts, n) for c in cols]
    dest = out.reshape(len(out), n, parts)
    # the registers, plus one block for a scaled STORE
    file = np.empty((num_regs + 1, parts, width), dtype=np.uint64)
    consts = [np.uint64(s) for s in scalars]
    scale_col = None if scale is None else np.asarray(scale, np.uint64).reshape(-1, 1)
    program = code.tolist()
    for t0 in range(0, n, width):
        w = min(width, n - t0)
        regs: List[np.ndarray] = [None] * num_regs

        def operand(x):
            return regs[x] if x >= 0 else consts[-1 - x]

        for op, dst, a, b in program:
            if op == TAPE_LOAD:
                start = (t0 + b) % n
                if start + w <= n:
                    regs[dst] = mats[a][:, start : start + w]
                else:
                    head = n - start
                    reg = regs[dst] = file[dst, :, :w]
                    reg[:, :head] = mats[a][:, start:]
                    reg[:, head:] = mats[a][:, : w - head]
            elif op == TAPE_STORE:
                value = operand(a)
                if scale_col is not None:
                    tmp = file[num_regs, :, :w]
                    mul_into(tmp, np.broadcast_to(value, tmp.shape), scale_col)
                    value = tmp
                dest[dst, t0 : t0 + w, :] = np.broadcast_to(value, (parts, w)).T
            else:
                reg = file[dst, :, :w]
                if op == TAPE_NEG:
                    sub_into(reg, _ZERO, operand(a))
                else:
                    _TAPE_INTO[op](reg, operand(a), operand(b))
                regs[dst] = reg


def _native_tape(code, num_regs, cols, scalars, out, parts, scale) -> bool:
    """:func:`eval_tape` in one foreign call; False means "not run"."""
    lib = native.library()
    if (lib is None or not _plain(out) or out.ndim != 2
            or any(not _plain(c) or c.size != out.shape[1] for c in cols)):
        return False
    code = np.ascontiguousarray(code, dtype=np.int32)
    scalars = np.ascontiguousarray(scalars, dtype=np.uint64)
    ptrs = np.array([c.ctypes.data for c in cols] or [0], dtype=np.uintp)
    if scale is not None:
        scale = np.ascontiguousarray(scale, dtype=np.uint64)
    if lib.gl_eval_tape(out.ctypes.data, ptrs.ctypes.data, parts,
                        out.shape[1] // parts, code.ctypes.data, len(code),
                        num_regs, scalars.ctypes.data,
                        None if scale is None else scale.ctypes.data):
        raise MemoryError("gl_eval_tape: no memory for %d registers" % num_regs)
    return True


def poly_eval_rows(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate row ``i`` of ``coeffs`` at ``points[i]``, for all rows at once.

    Pairwise (Estrin-style) folding: each pass combines adjacent
    coefficients as ``c_even + x * c_odd`` and squares ``x``, halving the
    width, so a degree-(n-1) evaluation costs ``log2(n)`` vector passes
    instead of ``n`` sequential Horner steps.  Field-exact, so values
    match Horner's rule.
    """
    out = _native_rows("gl_poly_eval_rows", coeffs, points, 0)
    if out is not None:
        return out
    m, width = coeffs.shape
    if width & (width - 1):
        padded = 1 << width.bit_length()
        tmp = np.zeros((m, padded), dtype=np.uint64)
        tmp[:, :width] = coeffs
        coeffs = tmp
    acc = coeffs
    x = points.astype(np.uint64)
    while acc.shape[1] > 1:
        acc = add(acc[:, 0::2], mul(acc[:, 1::2], x[:, None]))
        x = mul(x, x)
    return acc[:, 0]


def weighted_sum(rows: np.ndarray, weights: Sequence[int]) -> np.ndarray:
    """``sum_i weights[i] * rows[i]`` down the first axis of an ``(m, L)`` matrix.

    The products are summed as 32-bit limbs — up to ``2^31`` limbs fit a
    64-bit word without wrapping, and both limb sums stay below ``p`` —
    so the reduction is two integer column sums recombined in the field
    instead of ``m - 1`` modular adds.  Rows go through the multiply a
    block at a time, which bounds the temporary to one scratch-sized slab.
    """
    out = _native_rows("gl_weighted_sum", rows, weights, 1)
    if out is not None:
        return out
    m, width = rows.shape
    w = np.array(weights, dtype=np.uint64).reshape(m, 1)
    lo = np.zeros(width, dtype=np.uint64)
    hi = np.zeros(width, dtype=np.uint64)
    step = max(1, 4 * BLOCK // max(width, 1))
    for start in range(0, m, step):
        prod = mul(rows[start : start + step], w[start : start + step])
        lo += (prod & _MASK32).sum(axis=0, dtype=np.uint64)
        hi += (prod >> _SH32).sum(axis=0, dtype=np.uint64)
    out = mul(hi, np.uint64(1 << 32))
    add_into(out, out, lo)
    return out


# -- NTT kernel --------------------------------------------------------------


def bit_reverse_indices(n: int) -> np.ndarray:
    """Permutation indices that bit-reverse ``log2(n)``-bit positions."""
    k = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(k):
        rev |= ((idx >> b) & 1) << (k - 1 - b)
    return rev


class _Stages(list):
    """:func:`ntt_stages`' limb tables, plus ``packed``: the same twiddles as
    whole words, stage after stage, for the compiled kernel.  One object, so
    both live (and are dropped) wherever the caller caches the stages."""


def ntt_stages(root: int, n: int) -> List[np.ndarray]:
    """Per-stage twiddle tables for :func:`ntt`, pre-split into 32-bit limbs.

    Entry ``s`` is a ``(2, 2^s)`` array holding the low and high limbs of
    the stage's twiddles (see :func:`repro.field.ntt.stage_twiddles`), so
    the butterfly multiply never re-splits them.  Cache per ``(root, n)``.
    """
    from repro.field.ntt import stage_twiddles

    tables = stage_twiddles(P, root, n)
    stages = _Stages(np.stack(_limbs(np.array(tw, dtype=np.uint64))) for tw in tables)
    stages.packed = np.array([w for tw in tables for w in tw], dtype=np.uint64)
    return stages


#: Butterfly spans up to this many elements are walked block-major: numpy's
#: inner loop follows the last axis, and a contiguous run of 1-4 elements
#: costs more in per-loop overhead than the strided walk over every block.
_STRIDED_SPAN = 4


def _butterfly(u, v, w) -> None:
    """In place ``(u, v) <- (u + w*v, u - w*v)``.

    ``w`` is the twiddles' ``(low, high)`` limb pair, or empty for ``w = 1``.
    """
    for vv, (uu, *w_c), s, mask in _each_chunk(v, (u, *w), 7):
        wv = s[6]
        if w_c:
            _mul_chunk(wv, vv, *w_c, *s[:4], mask)
        else:
            np.copyto(wv, vv)
        _sub_chunk(vv, uu, wv, s[0], mask)
        np.subtract(_P, wv, out=wv)
        _sub_chunk(uu, uu, wv, s[0], mask)


def ntt(
    values: np.ndarray,
    stages: Sequence[np.ndarray],
    rev: np.ndarray,
    scale_rev: np.ndarray = None,
) -> np.ndarray:
    """Iterative radix-2 NTT driven by precomputed per-stage twiddle tables.

    ``stages`` comes from :func:`ntt_stages` (``stages[s]`` holds the
    ``2^s`` limb-split twiddles of the stage with butterfly span ``2^s``,
    so ``stages[0]`` is ``1``); ``rev`` is the bit-reversal permutation
    for the input ordering.  Both are cached on
    :class:`repro.field.domain.EvaluationDomain`.

    The transform runs along the *last* axis, so a ``(m, n)`` matrix is m
    independent size-n NTTs in one call.  Rows are processed in blocks of
    ``2 * BLOCK / n``: a block is gathered into the result and taken
    through every stage in place before the next block is touched, so it
    stays cache-resident for the whole transform and the only allocation
    is the result itself.

    ``scale_rev`` optionally fuses a coset scaling into the entry: it
    must be the per-index scale vector *already permuted by* ``rev`` (or
    a scalar), applied to each block right after its bit-reversal gather.
    Permuting commutes with elementwise multiplication, so results are
    bit-identical to scaling the input first.
    """
    out = _native_ntt(values, stages, rev, scale_rev)
    if out is not None:
        return out
    n = values.shape[-1]
    out = np.empty(values.shape, dtype=np.uint64)
    src = values.reshape(-1, n)
    dst = out.reshape(-1, n)
    step = max(1, 2 * BLOCK // n)
    for lo in range(0, len(dst), step):
        blk = dst[lo : lo + step]
        np.take(src[lo : lo + step], rev, axis=1, out=blk, mode="clip")
        if scale_rev is not None:
            mul_into(blk, blk, scale_rev)
        for tw in stages:
            half = tw.shape[1]
            m = blk.reshape(len(blk), -1, 2 * half)
            u, v = m[..., :half], m[..., half:]
            if half <= _STRIDED_SPAN:
                u, v = np.moveaxis(u, -1, 0), np.moveaxis(v, -1, 0)
                tw = tw[:, :, None, None]
            _butterfly(u, v, tw if half > 1 else ())
    return out


class SixStepPlan:
    """Precomputed tables for a six-step (Bailey) NTT of size ``n1 * n2``.

    The decomposition writes index ``i = i1 + n1*i2`` and output index
    ``j = j2 + n2*j1``, turning one size-n transform into ``n1`` size-n2
    row transforms, an ``(n1, n2)`` twiddle multiply, and ``n2`` size-n1
    row transforms — each batch a single kernel call on a matrix whose
    rows fit in cache, instead of one monolithic pass whose working set
    thrashes at large ``k``.  A coset shift ``s`` factors as
    ``s^i = s^{i1} * (s^{n1})^{i2}``: the ``i2`` part rides the inner
    transform's fused gather-scale and the ``i1`` part is folded into the
    middle twiddle matrix, so the shift never costs a separate pass.
    """

    __slots__ = (
        "n", "n1", "n2",
        "stages_inner", "rev_inner", "scale_inner_rev",
        "w_fused", "stages_outer", "rev_outer",
    )

    def __init__(self, n, n1, n2, stages_inner, rev_inner, scale_inner_rev,
                 w_fused, stages_outer, rev_outer):
        self.n = n
        self.n1 = n1
        self.n2 = n2
        self.stages_inner = stages_inner
        self.rev_inner = rev_inner
        self.scale_inner_rev = scale_inner_rev
        self.w_fused = w_fused
        self.stages_outer = stages_outer
        self.rev_outer = rev_outer


def build_sixstep_plan(root: int, n: int, shift: int = 1) -> SixStepPlan:
    """Tables for :func:`sixstep_ntt`; cache per ``(root, n, shift)`` upstream.

    ``root`` must be a primitive n-th root of unity mod the Goldilocks
    prime and ``n`` a power of two with ``n >= 4``.
    """
    if n & (n - 1) or n < 4:
        raise ValueError("six-step NTT needs a power-of-two size >= 4, got %d" % n)
    from repro.field.ntt import power_table

    k = n.bit_length() - 1
    n1 = 1 << (k >> 1)
    n2 = n // n1
    root_inner = pow(root, n1, P)
    root_outer = pow(root, n2, P)
    stages_inner = ntt_stages(root_inner, n2)
    stages_outer = ntt_stages(root_outer, n1)
    rev_inner = bit_reverse_indices(n2)
    rev_outer = bit_reverse_indices(n1)
    # middle twiddles w^{i1*j2}, with the coset factor s^{i1} folded in
    w_pows = np.array(power_table(P, root, n), dtype=np.uint64)
    exps = (np.arange(n1, dtype=np.int64)[:, None]
            * np.arange(n2, dtype=np.int64)[None, :]) % n
    w_fused = w_pows[exps]
    scale_inner_rev = None
    if shift != 1:
        s_inner = pow(shift, n1, P)
        inner_pows = np.array(power_table(P, s_inner, n2), dtype=np.uint64)
        scale_inner_rev = inner_pows[rev_inner]
        shift_pows = np.array(power_table(P, shift, n1), dtype=np.uint64)
        w_fused = mul(w_fused, shift_pows[:, None])
    return SixStepPlan(n, n1, n2, stages_inner, rev_inner, scale_inner_rev,
                       w_fused, stages_outer, rev_outer)


def sixstep_ntt(values: np.ndarray, plan: SixStepPlan) -> np.ndarray:
    """Cache-blocked six-step NTT (with the plan's coset shift fused in).

    Exact: every step is the same canonical Goldilocks arithmetic as the
    radix-2 kernel, so outputs match :func:`ntt` bit for bit
    (property-tested in ``tests/field/test_sixstep.py``).
    """
    n1, n2 = plan.n1, plan.n2
    m = values.reshape(n2, n1).T  # (n1, n2): rows vary i2 for fixed i1
    a = ntt(m, plan.stages_inner, plan.rev_inner, plan.scale_inner_rev)
    b = mul(a, plan.w_fused)
    c = ntt(b.T, plan.stages_outer, plan.rev_outer)  # rows indexed by j2
    # c[j2, j1] -> X[j2 + n2*j1]
    return np.ascontiguousarray(c.T).reshape(-1)
