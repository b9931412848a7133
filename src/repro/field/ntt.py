"""Radix-2 number-theoretic transforms over a prime field.

The prover converts columns between coefficient and evaluation form with
these transforms; the optimizer's cost model charges ``t_FFT(k)`` for each.

Twiddle factors are precomputed once per ``(modulus, root, size)`` and
reused across every transform on the same domain (the tables are tiny:
``n - 1`` field elements).  The butterfly loops run as slice-based list
comprehensions — for stages with few distinct twiddles the butterflies are
strided across all blocks at once, for later stages they run block by
block — which is substantially faster than an index-juggling interpreted
loop.  Goldilocks-field callers normally go through the numpy kernel in
:mod:`repro.field.gl64` instead (see ``EvaluationDomain``); this module is
the exact reference path and serves every other field.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.field.prime_field import PrimeField
from repro.obs.stats import STATS

#: Per-stage twiddle tables keyed by (modulus, root, size).
_TWIDDLE_CACHE: Dict[Tuple[int, int, int], List[List[int]]] = {}

#: Power tables (1, s, s^2, ..., s^(n-1)) keyed by (modulus, base, size).
_POWER_CACHE: Dict[Tuple[int, int, int], List[int]] = {}

#: Fused post-scale tables ``scale * base^i`` keyed by (modulus, base, size,
#: scale) — one multiply pass where :func:`coset_intt` used to spend two.
_SCALED_POWER_CACHE: Dict[Tuple[int, int, int, int], List[int]] = {}


#: ``log2`` of the size at which single transforms on the numpy backend
#: of :class:`repro.field.domain.EvaluationDomain` switch to the six-step
#: decomposition (:func:`repro.field.gl64.sixstep_ntt`).  The list
#: transforms in this module are radix-2 at every size.
SIXSTEP_MIN_K = 16


def sixstep_min_n() -> int:
    """Size at which numpy transforms switch to the six-step decomposition."""
    return 1 << SIXSTEP_MIN_K


def _bit_reverse_permute(values: List[int]) -> None:
    n = len(values)
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            values[i], values[j] = values[j], values[i]


def stage_twiddles(p: int, root: int, n: int) -> List[List[int]]:
    """Cached per-stage twiddle tables for a size-``n`` NTT.

    Entry ``s`` holds ``[w^0, w^1, ..., w^(2^s - 1)]`` for the stage with
    butterfly span ``2^s``, where ``w = root^(n / 2^(s+1))``.
    """
    key = (p, root, n)
    cached = _TWIDDLE_CACHE.get(key)
    if cached is not None:
        STATS.ntt_plan_hits += 1
        return cached
    stages: List[List[int]] = []
    length = 2
    while length <= n:
        half = length >> 1
        w_step = pow(root, n // length, p)
        tw = [1] * half
        for i in range(1, half):
            tw[i] = tw[i - 1] * w_step % p
        stages.append(tw)
        length <<= 1
    _TWIDDLE_CACHE[key] = stages
    return stages


def power_table(p: int, base: int, n: int) -> List[int]:
    """Cached ``[base^0, base^1, ..., base^(n-1)] mod p`` (coset scalings)."""
    key = (p, base, n)
    cached = _POWER_CACHE.get(key)
    if cached is not None:
        STATS.ntt_plan_hits += 1
        return cached
    powers = [1] * n
    for i in range(1, n):
        powers[i] = powers[i - 1] * base % p
    _POWER_CACHE[key] = powers
    return powers


def scaled_power_table(p: int, base: int, n: int, scale: int) -> List[int]:
    """Cached ``[scale * base^i] mod p`` — a power table with a constant
    folded in, so callers apply both in a single multiply pass."""
    key = (p, base, n, scale)
    cached = _SCALED_POWER_CACHE.get(key)
    if cached is not None:
        STATS.ntt_plan_hits += 1
        return cached
    fused = [v * scale % p for v in power_table(p, base, n)]
    _SCALED_POWER_CACHE[key] = fused
    return fused


def _ntt_core(out: List[int], p: int, stages: List[List[int]]) -> None:
    """In-place iterative NTT of a bit-reverse-permuted vector."""
    n = len(out)
    length = 2
    for tw in stages:
        half = length >> 1
        if length * length <= n:
            # Few distinct twiddles, many blocks: stride each twiddle's
            # butterflies across every block in one pass.
            for j in range(half):
                w = tw[j]
                a = out[j::length]
                b = out[j + half::length]
                if w != 1:
                    b = [x * w % p for x in b]
                out[j::length] = [
                    s - p if (s := x + y) >= p else s for x, y in zip(a, b)
                ]
                out[j + half::length] = [
                    d + p if (d := x - y) < 0 else d for x, y in zip(a, b)
                ]
        else:
            for start in range(0, n, length):
                mid = start + half
                a = out[start:mid]
                b = [x * w % p for x, w in zip(out[mid:start + length], tw)]
                out[start:mid] = [
                    s - p if (s := x + y) >= p else s for x, y in zip(a, b)
                ]
                out[mid:start + length] = [
                    d + p if (d := x - y) < 0 else d for x, y in zip(a, b)
                ]
        length <<= 1


def ntt(field: PrimeField, values: Sequence[int], root: int) -> List[int]:
    """Forward NTT of a power-of-two-length vector.

    Args:
        field: The field to work in.
        values: Coefficients (length must be a power of two).
        root: A primitive n-th root of unity for ``n = len(values)``.

    Returns:
        Evaluations at ``root^0, root^1, ..., root^(n-1)``.
    """
    n = len(values)
    if n & (n - 1):
        raise ValueError("NTT length must be a power of two, got %d" % n)
    out = list(values)
    if n == 1:
        return out
    _bit_reverse_permute(out)
    _ntt_core(out, field.p, stage_twiddles(field.p, root, n))
    return out


def intt(field: PrimeField, values: Sequence[int], root: int) -> List[int]:
    """Inverse NTT; exact inverse of :func:`ntt` with the same root."""
    n = len(values)
    inv_root = field.inv(root)
    out = ntt(field, values, inv_root)
    inv_n = field.inv(n)
    p = field.p
    return [v * inv_n % p for v in out]


def coset_ntt(field: PrimeField, values: Sequence[int], root: int, shift: int) -> List[int]:
    """Evaluate a coefficient vector on the coset ``shift * <root>``."""
    n = len(values)
    p = field.p
    powers = power_table(p, shift, n)
    shifted = [v * s % p for v, s in zip(values, powers)]
    return ntt(field, shifted, root)


def coset_intt(field: PrimeField, values: Sequence[int], root: int, shift: int) -> List[int]:
    """Inverse of :func:`coset_ntt`.

    The two post-passes of the textbook formulation — scale by ``1/n``,
    then by the cached inverse-shift power table — are fused into a single
    multiply against one cached ``scaled_power_table``, and the inverse
    shift itself comes from the field's inversion cache instead of being
    recomputed per call.
    """
    n = len(values)
    out = ntt(field, values, field.inv(root))
    p = field.p
    fused = scaled_power_table(p, field.inv(shift), n, field.inv(n))
    return [c * s % p for c, s in zip(out, fused)]
