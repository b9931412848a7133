"""Cached twiddle and power tables for the number-theoretic transforms.

The prover converts columns between coefficient and evaluation form with
the radix-2 and six-step kernels in :mod:`repro.field.gl64` (driven by
:class:`repro.field.domain.EvaluationDomain`); the optimizer's cost model
charges ``t_FFT(k)`` for each.  The tables those kernels read are built
here once per ``(modulus, root, size)`` and reused across every transform
on the same domain (they are tiny: ``n - 1`` field elements).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.obs.stats import STATS

#: Per-stage twiddle tables keyed by (modulus, root, size).
_TWIDDLE_CACHE: Dict[Tuple[int, int, int], List[List[int]]] = {}

#: Power tables (1, s, s^2, ..., s^(n-1)) keyed by (modulus, base, size).
_POWER_CACHE: Dict[Tuple[int, int, int], List[int]] = {}

#: Fused post-scale tables ``scale * base^i`` keyed by (modulus, base, size,
#: scale) — the inverse coset transform's ``1/n`` and inverse-shift powers
#: in one multiply pass.
_SCALED_POWER_CACHE: Dict[Tuple[int, int, int, int], List[int]] = {}


#: ``log2`` of the size at which single transforms of
#: :class:`repro.field.domain.EvaluationDomain` switch to the six-step
#: decomposition (:func:`repro.field.gl64.sixstep_ntt`).
SIXSTEP_MIN_K = 16


def sixstep_min_n() -> int:
    """Size at which single transforms switch to the six-step decomposition."""
    return 1 << SIXSTEP_MIN_K


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
