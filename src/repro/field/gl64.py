"""Goldilocks arithmetic on numpy ``uint64`` arrays, in one C kernel.

The Goldilocks prime ``p = 2^64 - 2^32 + 1`` admits branch-light modular
arithmetic entirely inside 64-bit words: ``2^64 ≡ 2^32 - 1 (mod p)`` and
``2^96 ≡ -1 (mod p)``, so a 128-bit product folds back into one word with
two shifted adds — the same trick plonky2 uses to keep its field
arithmetic in scalar registers.  Every public kernel here is one call into
``gl64_native.c`` (loaded by :mod:`repro.field.native`, which raises
:class:`~repro.resilience.errors.KernelUnavailableError` on a box that
cannot build it); this module only shapes the operands for that call.

All functions are *exact*: results are canonical residues in ``[0, p)``
and agree bit-for-bit with the scalar arithmetic of
:mod:`repro.field.prime_field` and with the numpy oracle in
``tests/oracle.py`` (property-tested under ``tests/field``).  Inputs are
any canonical ``uint64`` arrays: a strided view is made contiguous, and a
broadcast operand that overlaps ``out`` is copied first.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.field import native

#: The Goldilocks modulus.
P = (1 << 64) - (1 << 32) + 1

_P = np.uint64(P)
_ZERO = np.uint64(0)


def from_ints(values: Sequence[int]) -> np.ndarray:
    """Pack canonical residues into a ``uint64`` array."""
    if isinstance(values, np.ndarray) and values.dtype == np.uint64:
        return values
    return np.array(values, dtype=np.uint64)


def to_ints(vec: np.ndarray) -> List[int]:
    """Unpack a ``uint64`` array into plain Python ints."""
    return vec.tolist()


# -- operand shaping ---------------------------------------------------------


def _copy(x) -> np.ndarray:
    """A fresh C-contiguous ``uint64`` copy of ``x``: every copy this module
    makes to hand the kernel an operand (or a temporary ``out``) is one."""
    return np.array(x, dtype=np.uint64, order="C")


def _plain(x) -> np.ndarray:
    """``x`` as a C-contiguous ``uint64`` array (itself when it is one)."""
    if type(x) is np.ndarray and x.dtype == np.uint64 and x.flags.c_contiguous:
        return x
    return _copy(x)


def _ewise(name: str, out: np.ndarray, a, b) -> None:
    """``out = a (op) b`` in one foreign call.

    The kernel walks ``out`` as ``(rows, cols)`` and each operand by a row
    and a column stride: ``out``-shaped, a row ``(cols,)``, a column
    ``(rows, 1)`` of a 2-D ``out``, or a scalar; any other broadcast is
    materialized.  An operand that overlaps ``out`` without being ``out``
    itself would be read after it was written, so it is copied first.
    """
    if not out.size:
        return
    if not out.flags.c_contiguous:
        tmp = _copy(out)
        _ewise(name, tmp, a, b)
        out[...] = tmp
        return
    lib = native.library()
    cols = out.shape[-1] if out.ndim else 1
    rows = out.size // cols
    lo = out.ctypes.data
    call, alive = [lo], []  # per operand: address, row stride, column stride
    for x in (a, b):
        if isinstance(x, np.ndarray) and x.ndim:
            if x.shape == out.shape:
                strides = (cols, 1)
            elif x.shape == (cols,):
                strides = (0, 1)
            elif x.shape == (rows, 1) and out.ndim == 2:
                strides = (1, 0)
            else:
                x, strides = np.broadcast_to(x, out.shape), (cols, 1)
            x = _plain(x)
            ptr = x.ctypes.data  # ~1.5 us a read, so once per operand
            if (ptr < lo + out.nbytes and lo < ptr + x.nbytes
                    and (ptr, strides) != (lo, (cols, 1))):
                x = _copy(x)
                ptr = x.ctypes.data
        else:
            x, strides = np.array(x, dtype=np.uint64), (0, 0)
            ptr = x.ctypes.data
        alive.append(x)
        call += [ptr, *strides]
    getattr(lib, name)(*call, rows, cols)


# -- elementwise ---------------------------------------------------------------


def mul_into(out: np.ndarray, a: np.ndarray, b) -> None:
    """``out[...] = (a * b) mod p``; ``out`` may be ``a`` or ``b`` itself."""
    _ewise("gl_mul", out, a, b)


def sub_into(out: np.ndarray, a, b) -> None:
    """``out[...] = (a - b) mod p``; ``out`` may be ``a`` or ``b`` itself."""
    _ewise("gl_sub", out, a, b)


def add_into(out: np.ndarray, a: np.ndarray, b) -> None:
    """``out[...] = (a + b) mod p``; ``out`` may be ``a`` or ``b`` itself."""
    _ewise("gl_add", out, a, b)


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


# -- whole-vector kernels --------------------------------------------------------


def powers(first: int, ratio: int, n: int) -> np.ndarray:
    """``first * ratio^i mod p`` for ``i < n``: the power tables and the NTT
    twiddles, in one call."""
    out = np.empty(n, dtype=np.uint64)
    if n:
        native.library().gl_powers(out.ctypes.data, first % P, ratio % P, n)
    return out


def batch_inv(values: np.ndarray) -> np.ndarray:
    """Elementwise modular inverse (Montgomery's trick: one pass up, one
    exponentiation, one pass down).  Inverses are unique, so the result
    matches ``PrimeField.batch_inv`` element for element; a zero raises
    ``ZeroDivisionError`` naming the first zero's flat index."""
    values = _plain(values)
    out = np.empty_like(values)
    if values.size:
        zero = native.library().gl_batch_inv(out.ctypes.data, values.ctypes.data,
                                             values.size)
        if zero >= 0:
            raise ZeroDivisionError("batch_inv of zero at index %d" % zero)
    return out


#: Register-tape opcodes (``gl64_native.c``'s ``TAPE_*``); an instruction
#: is four ``int32`` words, ``(op, dst, a, b)``.
TAPE_LOAD, TAPE_ADD, TAPE_SUB, TAPE_MUL, TAPE_NEG, TAPE_STORE = range(6)


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

    The kernel walks rows in blocks, every instruction per block, so the
    registers are ``num_regs`` blocks whatever ``n`` is, in one call.
    """
    if not out.size:
        return
    if not out.flags.c_contiguous:
        tmp = _copy(out)
        eval_tape(code, num_regs, cols, scalars, tmp, parts, scale)
        out[...] = tmp
        return
    cols = [_plain(c) for c in cols]
    if any(c.size != out.shape[1] for c in cols):
        raise ValueError("eval_tape: every column needs %d values" % out.shape[1])
    code = np.ascontiguousarray(code, dtype=np.int32)
    scalars = _plain(scalars)
    ptrs = np.array([c.ctypes.data for c in cols] or [0], dtype=np.uintp)
    if scale is not None:
        scale = _plain(scale)
    if native.library().gl_eval_tape(
            out.ctypes.data, ptrs.ctypes.data, parts, out.shape[1] // parts,
            code.ctypes.data, len(code), num_regs, scalars.ctypes.data,
            None if scale is None else scale.ctypes.data):
        raise MemoryError("gl_eval_tape: no memory for %d registers" % num_regs)


def _rows_kernel(name: str, mat, vec, index, per_row: bool) -> np.ndarray:
    """``weighted_sum`` / ``poly_eval_rows`` over rows ``index`` (default all)
    of a matrix, read in place its row stride apart, one ``vec`` value a row."""
    if not (type(mat) is np.ndarray and mat.dtype == np.uint64 and mat.ndim == 2
            and mat.strides[1] == 8 and not mat.strides[0] % 8):
        mat = _plain(mat)
    if index is not None:
        index = np.ascontiguousarray(index, dtype=np.int64)
        if index.size and not 0 <= index.min() <= index.max() < len(mat):
            raise IndexError("%s: a row index is outside %d rows" % (name, len(mat)))
    vec, m = _plain(vec), len(mat) if index is None else len(index)
    if mat.ndim != 2 or vec.shape != (m,):
        raise ValueError("%s: need a matrix and a value per row read, got %s and %s"
                         % (name, mat.shape, vec.shape))
    out = np.empty(m if per_row else mat.shape[1], dtype=np.uint64)
    getattr(native.library(), name)(out.ctypes.data, mat.ctypes.data, mat.strides[0] // 8,
                                    None if index is None else index.ctypes.data,
                                    vec.ctypes.data, m, mat.shape[1])
    return out


def poly_eval_rows(coeffs: np.ndarray, points: np.ndarray, index=None) -> np.ndarray:
    """Evaluate row ``index[i]`` (default ``i``) of ``coeffs`` at ``points[i]``
    (Horner, a few rows abreast); an empty row evaluates to 0."""
    return _rows_kernel("gl_poly_eval_rows", coeffs, points, index, True)


def weighted_sum(rows: np.ndarray, weights: Sequence[int], index=None) -> np.ndarray:
    """``sum_i weights[i] * rows[index[i]]`` (default ``rows[i]``) of a 2-D matrix."""
    return _rows_kernel("gl_weighted_sum", rows, weights, index, False)


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
    """Load-only: the limb tables :func:`ntt_stages` returned in older
    builds, still named by pickled keys whose domain cached them.
    ``EvaluationDomain.__setstate__`` drops them; nothing makes one."""


def ntt_stages(root: int, n: int) -> np.ndarray:
    """The twiddles of every :func:`ntt` stage, packed back to back: the
    stage with butterfly span ``h = 2^s`` holds ``w^0, ..., w^(h - 1)``
    for ``w = root^(n / 2h)`` at indices ``h - 1`` to ``2h - 2``.  Cache
    per ``(root, n)``."""
    out = np.empty(max(n - 1, 0), dtype=np.uint64)
    half = 1
    while half < n:
        out[half - 1 : 2 * half - 1] = powers(1, pow(root, n // (2 * half), P), half)
        half <<= 1
    return out


def ntt(values: np.ndarray, stages: np.ndarray, rev: np.ndarray,
        scale_rev: np.ndarray = None, out: np.ndarray = None) -> np.ndarray:
    """Iterative radix-2 NTT driven by precomputed twiddles.

    ``stages`` comes from :func:`ntt_stages` and ``rev`` is the input's
    bit-reversal permutation, both cached on the ``EvaluationDomain``.

    The transform runs along the *last* axis, so a ``(m, n)`` matrix is m
    independent size-n NTTs in one call.  The kernel gathers each row
    through ``values``' strides, so a transposed view (the six-step's
    first pass) needs no copy, and takes it through every stage while it
    is cache-resident.

    ``scale_rev`` optionally fuses a coset scaling into the entry: it
    must be the per-index scale vector *already permuted by* ``rev`` (or
    a scalar), applied to each row right after its bit-reversal gather.
    Permuting commutes with elementwise multiplication, so results are
    bit-identical to scaling the input first.  A 2-D result may be written
    into ``out``, any ``uint64`` view not overlapping ``values`` whose rows
    are contiguous (an LDE's coset part): no temporary, no copy.
    """
    if out is None:
        out = np.empty(values.shape, dtype=np.uint64)
    elif not (values.ndim == 2 and out.shape == values.shape and out.dtype == np.uint64
              and out.strides[1] == 8 and out.strides[0] % 8 == 0):
        raise ValueError("ntt: out must be a uint64 matrix with contiguous rows")
    if not values.size:
        return out
    n = values.shape[-1]
    # read in place through its strides when it has one or two axes
    mat = values.reshape(-1, n) if values.ndim <= 2 else _plain(values).reshape(-1, n)
    if mat.dtype != np.uint64 or any(s % 8 for s in mat.strides):
        mat = _plain(mat)
    scale, scale_stride = scale_rev, 0
    if isinstance(scale, np.ndarray) and scale.ndim:
        if scale.shape != (n,):
            raise ValueError("ntt: a scale vector needs %d values" % n)
        scale, scale_stride = _plain(scale), 1
    elif scale is not None:
        scale = np.array(scale, dtype=np.uint64)
    rev, stages = np.ascontiguousarray(rev, dtype=np.int64), _plain(stages)
    native.library().gl_ntt(
        out.ctypes.data, out.strides[0] // 8 if out.ndim == 2 else n,
        mat.ctypes.data, mat.strides[0] // 8,
        mat.strides[1] // 8, len(mat), n, rev.ctypes.data,
        stages.ctypes.data, None if scale is None else scale.ctypes.data,
        scale_stride)
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
    w_pows = powers(1, root, n)
    exps = (np.arange(n1, dtype=np.int64)[:, None]
            * np.arange(n2, dtype=np.int64)[None, :]) % n
    w_fused = w_pows[exps]
    scale_inner_rev = None
    if shift != 1:
        s_inner = pow(shift, n1, P)
        scale_inner_rev = powers(1, s_inner, n2)[rev_inner]
        shift_pows = powers(1, shift, n1)
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
