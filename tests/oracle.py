"""The numpy and ``hashlib`` oracle the compiled Goldilocks kernel is held to.

``src/repro`` has one arithmetic path: every ``gl64`` entry point,
``MerkleTree.from_lde`` and ``merkle.column_digests`` is a call into
``gl64_native.c``.  This module is the second, independent implementation
of the same functions, kept only to test the first: the Goldilocks
kernels as fixed sequences of numpy ufunc passes over 32-bit limbs, the
Merkle tree as a ``hashlib`` loop over an explicit row-major leaf matrix
(:func:`lde_leaf_rows`, which the product never builds), and the column
digests as ``hashlib`` calls.  Each function takes and returns exactly
what its namesake does, and the two agree bit for bit.

:func:`oracle_tier` swaps these bodies into ``gl64``, ``MerkleTree`` and
``merkle`` for the duration, so whole keygens, proofs and verifications
can be run on the oracle and compared byte for byte with the product
(the golden envelopes, ``tests/halo2/test_vectorized_equivalence.py``,
``tests/field/test_lane_kernels.py``).  Inside it the compiled library
is out of reach: any call that still gets there fails the test.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import threading
from typing import List, Sequence
from unittest import mock

import numpy as np

from repro.commit import MerkleTree, merkle
from repro.commit.merkle import DIGEST_BYTES, _hash_leaf, _padded
from repro.field import gl64, native
from repro.field.gl64 import TAPE_LOAD, TAPE_ADD, TAPE_MUL, TAPE_NEG, TAPE_STORE, TAPE_SUB

P = gl64.P

_P = np.uint64(P)
#: 2^64 mod p — the correction term for wrapping adds/subs.
_EPS = np.uint64((1 << 32) - 1)
_MASK32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
_ZERO = np.uint64(0)


# -- in-place kernels --------------------------------------------------------
#
# Every elementwise kernel runs as a fixed sequence of numpy passes with
# ``out=`` on each ufunc, its temporaries drawn from a per-thread scratch
# block.  Operands larger than ``BLOCK`` elements are walked in C-order
# chunks of at most ``BLOCK``, so a chunk and its scratch stay
# cache-resident across the ~30 passes of a multiply.

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
    for o, (a_c, b_c), (t,), mask in _each_chunk(out, (a, b), 1):
        _sub_chunk(o, a_c, b_c, t, mask)


def add_into(out: np.ndarray, a: np.ndarray, b) -> None:
    """``out[...] = (a + b) mod p``, computed as ``a - (p - b)``.

    ``p - b`` is in ``[1, p]``; the one non-canonical value (``b = 0``)
    always borrows against a canonical ``a`` and the correction returns
    ``a`` unchanged, so no separate canonicalizing pass is needed.
    """
    for o, (a_c, b_c), (t, nb), mask in _each_chunk(out, (a, b), 2):
        if b_c.ndim:
            np.subtract(_P, b_c, out=nb)
        else:
            nb = _P - b_c
        _sub_chunk(o, a_c, nb, t, mask)


def _allocating(into):
    def run(a, b):
        out = gl64._result(a, b)
        into(out, a, b)
        return out
    return run


add, sub, mul = (_allocating(f) for f in (add_into, sub_into, mul_into))


#: Sequential chain length of the blocked batch inversion.  Each of the
#: ``n / 16`` chains runs the Montgomery trick in ``3 * 16`` vectorized
#: multiply passes shared across all chains.
_INV_CHAIN = 16

#: At or below this many elements the ~50 fixed-cost vector passes of the
#: blocked trick lose to ``PrimeField.batch_inv`` on Python ints.
_INV_SMALL = 256


def batch_inv(values: np.ndarray) -> np.ndarray:
    """Elementwise modular inverse via a blocked Montgomery trick.

    The input is split into ``G = ceil(n / 16)`` independent chains of 16
    elements (padded with ones); prefix products run down the chains with
    16 vectorized multiply passes of width ``G``, the ``G`` chain totals
    are inverted with the classic sequential trick in Python ints (one
    modular exponentiation total), and two more passes per chain level
    recover every elementwise inverse.  A zero raises the kernel's
    ``ZeroDivisionError`` (at the first zero index).
    """
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


def powers(first: int, ratio: int, n: int) -> np.ndarray:
    """``first * ratio^i`` for ``i < n`` by doubling: the table so far
    times the next ``ratio^(2^j)``, ``log2(n)`` multiply passes."""
    out = np.empty(n, dtype=np.uint64)
    if n:
        out[0] = first % P
    size, step = 1, ratio % P
    while size < n:
        grow = min(size, n - size)
        mul_into(out[size : size + grow], out[:grow], np.uint64(step))
        size, step = size + grow, step * step % P
    return out


_TAPE_INTO = {TAPE_ADD: add_into, TAPE_SUB: sub_into, TAPE_MUL: mul_into}


def eval_tape(code: np.ndarray, num_regs: int, cols: Sequence[np.ndarray],
              scalars: np.ndarray, out: np.ndarray, parts: int = 1,
              scale: np.ndarray = None) -> None:
    """:func:`repro.field.gl64.eval_tape` over ``BLOCK``-element row
    blocks through the ``*_into`` kernels: every instruction per block,
    so the registers are ``num_regs`` blocks whatever ``n`` is."""
    if not out.size:
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


def poly_eval_rows(coeffs: np.ndarray, points: np.ndarray, index=None) -> np.ndarray:
    """Evaluate row ``index[i]`` (default ``i``) of ``coeffs`` at ``points[i]``.

    Pairwise (Estrin-style) folding: each pass combines adjacent
    coefficients as ``c_even + x * c_odd`` and squares ``x``, halving the
    width, so a degree-(n-1) evaluation costs ``log2(n)`` vector passes.
    Field-exact, so values match Horner's rule.
    """
    if index is not None:
        coeffs = coeffs[np.asarray(index, dtype=np.int64)]
    m, width = coeffs.shape
    if not width or width & (width - 1):
        padded = 1 << width.bit_length()
        tmp = np.zeros((m, padded), dtype=np.uint64)
        tmp[:, :width] = coeffs
        coeffs = tmp
    acc = coeffs
    x = np.asarray(points).astype(np.uint64)
    while acc.shape[1] > 1:
        acc = add(acc[:, 0::2], mul(acc[:, 1::2], x[:, None]))
        x = mul(x, x)
    return acc[:, 0]


def weighted_sum(rows: np.ndarray, weights: Sequence[int], index=None) -> np.ndarray:
    """``sum_i weights[i] * rows[index[i]]`` (default ``rows[i]``) of a matrix.

    The products are summed as 32-bit limbs — up to ``2^31`` limbs fit a
    64-bit word without wrapping, and both limb sums stay below ``p`` —
    so the reduction is two integer column sums recombined in the field
    instead of ``m - 1`` modular adds.
    """
    if index is not None:
        rows = rows[np.asarray(index, dtype=np.int64)]
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


# -- NTT -----------------------------------------------------------------------

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


def ntt(values: np.ndarray, stages: np.ndarray, rev: np.ndarray,
        scale_rev=None, out=None) -> np.ndarray:
    """:func:`repro.field.gl64.ntt` as numpy passes.  The packed twiddles
    are split per stage into 32-bit limbs; rows are processed in blocks of
    ``2 * BLOCK / n``, each gathered into the result (``out`` when given)
    and taken through every stage in place before the next block is
    touched."""
    n = values.shape[-1]
    if out is None:
        out = np.empty(values.shape, dtype=np.uint64)
    if not values.size:
        return out
    limbs = [np.stack(_limbs(stages[half - 1 : 2 * half - 1]))
             for half in (1 << s for s in range(n.bit_length() - 1))]
    src = values.reshape(-1, n)
    dst = out.reshape(-1, n)
    step = max(1, 2 * BLOCK // n)
    for lo in range(0, len(dst), step):
        blk = dst[lo : lo + step]
        np.take(src[lo : lo + step], rev, axis=1, out=blk, mode="clip")
        if scale_rev is not None:
            mul_into(blk, blk, scale_rev)
        for tw in limbs:
            half = tw.shape[1]
            m = blk.reshape(len(blk), -1, 2 * half)
            u, v = m[..., :half], m[..., half:]
            if half <= _STRIDED_SPAN:
                u, v = np.moveaxis(u, -1, 0), np.moveaxis(v, -1, 0)
                tw = tw[:, :, None, None]
            _butterfly(u, v, tw if half > 1 else ())
    return out


# -- Merkle trees ------------------------------------------------------------------


def _hash_node(left: bytes, right: bytes) -> bytes:
    return hashlib.blake2b(left + right, digest_size=DIGEST_BYTES,
                           person=b"zkml-node").digest()


def hashlib_tree(leaves: Sequence[bytes]) -> MerkleTree:
    """The tree over byte leaves, every digest by ``hashlib``: the same
    node array ``gl_merkle_tree`` fills, and the same hash counts."""
    padded = _padded(len(leaves))
    level = [_hash_leaf(leaf) for leaf in leaves]
    level += [_hash_leaf(b"")] * (padded - len(level))
    digests = level
    while len(level) > 1:
        level = [_hash_node(level[i], level[i + 1])
                 for i in range(0, len(level), 2)]
        digests += level
    return MerkleTree(len(leaves), np.frombuffer(
        b"".join(digests), dtype=np.uint8).reshape(-1, DIGEST_BYTES))


def lde_leaf_rows(lde) -> np.ndarray:
    """The Merkle leaf matrix of an ``(m, ext, n)`` LDE, built explicitly:
    row ``j`` holds every column at part ``j % ext``, position ``j // ext``,
    then every column at that position plus ``n / 2``."""
    lde = np.asarray(lde, dtype=np.uint64)
    m, ext, n = lde.shape
    half, mid = ext * n // 2, n // 2
    rows = np.empty((half, 2 * m), dtype=np.uint64)
    rows[:, :m] = lde[:, :, :mid].transpose(2, 1, 0).reshape(half, m)
    rows[:, m:] = lde[:, :, mid:].transpose(2, 1, 0).reshape(half, m)
    return rows


def tree_from_rows(rows) -> MerkleTree:
    """The ``hashlib`` tree with one leaf per row of an ``(L, w)`` matrix
    of residues, each leaf the row's little-endian bytes."""
    rows = np.ascontiguousarray(rows, dtype="<u8")
    if rows.ndim != 2 or not rows.shape[1]:
        raise ValueError("rows need a nonempty (L, w) shape")
    width = 8 * rows.shape[1]
    buf = memoryview(rows).cast("B")
    return hashlib_tree([buf[i : i + width] for i in range(0, len(buf), width)])


def tree_from_lde(lde) -> MerkleTree:
    """:meth:`MerkleTree.from_lde` as the ``hashlib`` tree over
    :func:`lde_leaf_rows`."""
    lde = np.asarray(lde, dtype=np.uint64)
    if lde.ndim != 3 or not lde.shape[0] or not lde.shape[1] or lde.shape[2] % 2:
        raise ValueError("an LDE needs a nonempty (m, extension, n) shape, "
                         "n even; got %s" % (lde.shape,))
    return tree_from_rows(lde_leaf_rows(lde))


def column_digests(columns) -> List[bytes]:
    """:func:`repro.commit.merkle.column_digests` through ``hashlib``."""
    return [hashlib.blake2b(np.ascontiguousarray(col, dtype="<u8"),
                            digest_size=DIGEST_BYTES).digest() for col in columns]


# -- the oracle tier ---------------------------------------------------------------

#: gl64's kernels that have a body here; ``add``, ``sub``, ``mul``,
#: ``fold``, ``ntt_stages``, ``build_sixstep_plan`` and ``sixstep_ntt``
#: reach these through gl64's own globals.
KERNELS = ("mul_into", "add_into", "sub_into", "batch_inv", "eval_tape",
           "poly_eval_rows", "weighted_sum", "ntt", "powers")


class _OutOfReach:
    """Stands in for the compiled library while the oracle runs."""

    def __getattr__(self, name):
        raise AssertionError("the oracle tier reached the compiled kernel (%s)" % name)


@contextlib.contextmanager
def oracle_tier():
    """Run the enclosed keygen / prove / verify on the bodies above: the
    byte-identity oracle for the compiled kernel."""
    native.library()  # load first, so leaving the block restores it
    with contextlib.ExitStack() as stack:
        for name in KERNELS:
            stack.enter_context(mock.patch.object(gl64, name, globals()[name]))
        stack.enter_context(mock.patch.object(
            MerkleTree, "from_lde", staticmethod(tree_from_lde)))
        stack.enter_context(mock.patch.object(merkle, "column_digests", column_digests))
        stack.enter_context(mock.patch.object(native, "_handle", _OutOfReach()))
        yield
