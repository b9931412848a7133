"""Evaluation domains for Plonkish circuits.

A circuit with ``2^k`` rows is interpolated over the multiplicative
subgroup of order ``2^k``.  The quotient argument additionally needs an
*extended* coset domain whose size covers the constraint degree, exactly as
in halo2: ``k' = k + ceil(log2(d_max - 1))``.

Every derived quantity a transform needs — per-stage twiddle tables
(forward and inverse, base and extended), coset power tables, the
vanishing polynomial on the extended coset and its batch inverse, rotation
powers — is computed once and cached on the domain, so repeated transforms
(one per column, hundreds per proof) never redo the ``pow`` chains.  All
transforms run through the Goldilocks kernels in :mod:`repro.field.gl64`;
the ``*_vec`` / ``*_rows`` entry points keep columns as ``uint64`` arrays
end to end, and the int-list methods wrap them for callers that hold
plain ints.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.field import gl64
from repro.field.ntt import sixstep_min_n
from repro.field.prime_field import PrimeField, require_goldilocks
from repro.field.vector import GL64Backend
from repro.obs.stats import STATS


def extension_for(max_degree: int) -> int:
    """The extension factor for constraints of degree ``max_degree``: the
    smallest power of two >= ``max_degree - 1`` (at least 2), so that
    degree ``max_degree * (n-1)`` polynomials fit on the extended domain."""
    return max(1 << max(max_degree - 2, 0).bit_length(), 2)


class EvaluationDomain:
    """The multiplicative subgroup of order ``2^k`` plus coset machinery."""

    def __init__(self, field: PrimeField, k: int, max_degree: int = 3):
        require_goldilocks(field)
        if k < 0:
            raise ValueError("k must be nonnegative")
        if max_degree < 2:
            raise ValueError("max constraint degree must be at least 2")
        self.field = field
        self.k = k
        self.n = 1 << k
        self.omega = field.root_of_unity(k)
        self.extension = extension_for(max_degree)
        self.extended_k = k + self.extension.bit_length() - 1
        self.extended_n = 1 << self.extended_k
        self.extended_omega = field.root_of_unity(self.extended_k)
        # Coset shift: the field generator keeps the coset disjoint from the
        # base subgroup, so the vanishing polynomial never hits zero on it.
        self.coset_shift = field.generator
        self.backend = GL64Backend(field)
        # numpy twiddle/permutation caches, built lazily per transform size
        self._np_stages: Dict[tuple, np.ndarray] = {}
        self._np_rev: Dict[int, np.ndarray] = {}
        self._np_powers: Dict[tuple, np.ndarray] = {}
        self._np_scale_rev: Dict[tuple, np.ndarray] = {}
        self._np_post_scale: Dict[tuple, np.ndarray] = {}
        self._np_sixstep: Dict[tuple, gl64.SixStepPlan] = {}
        self._part_shifts: Optional[List[int]] = None
        self._part_invs: Optional[List[int]] = None
        self._rotation_cache: Dict[int, int] = {}
        self._memo: Dict[object, object] = {}

    def __setstate__(self, state):
        # keys interned as pickle's default restore does, so a reloaded
        # domain pickles to the same bytes
        self.__dict__.update((sys.intern(k), v) for k, v in state.items())
        # a key pickled by an older build may cache limb-table twiddles
        # (``gl64._Stages``); drop them, they rebuild on first use
        plans = self._np_sixstep.values()
        stages = [*self._np_stages.values(),
                  *(t for plan in plans for t in (plan.stages_inner, plan.stages_outer))]
        if not all(isinstance(t, np.ndarray) for t in stages):
            self._np_stages, self._np_sixstep = {}, {}

    def memo(self, key, build):
        """A derived table other layers keep on the domain: ``build()`` once
        per ``key``, then the cached value (rides the pk cache with it)."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    # -- cached numpy tables -------------------------------------------------

    def _gl64_stages(self, root: int, n: int) -> np.ndarray:
        key = (root, n)
        cached = self._np_stages.get(key)
        if cached is None:
            cached = gl64.ntt_stages(root, n)
            self._np_stages[key] = cached
        else:
            STATS.ntt_plan_hits += 1
        return cached

    def _gl64_rev(self, n: int) -> np.ndarray:
        cached = self._np_rev.get(n)
        if cached is None:
            cached = gl64.bit_reverse_indices(n)
            self._np_rev[n] = cached
        else:
            STATS.ntt_plan_hits += 1
        return cached

    def _gl64_powers(self, base: int, n: int) -> np.ndarray:
        key = (base, n)
        cached = self._np_powers.get(key)
        if cached is None:
            cached = gl64.powers(1, base, n)
            self._np_powers[key] = cached
        else:
            STATS.ntt_plan_hits += 1
        return cached

    def _gl64_scale_rev(self, base: int, n: int) -> np.ndarray:
        """Coset power table pre-permuted by bit-reversal, for the fused
        gather-and-scale entry of :func:`repro.field.gl64.ntt`."""
        key = (base, n)
        cached = self._np_scale_rev.get(key)
        if cached is None:
            cached = self._gl64_powers(base, n)[self._gl64_rev(n)]
            self._np_scale_rev[key] = cached
        else:
            STATS.ntt_plan_hits += 1
        return cached

    def _gl64_post_scale(self, base: int, n: int, scalar: int) -> np.ndarray:
        """Cached ``scalar * base^i`` vector — the inverse-transform's
        ``1/n`` and inverse-coset scalings fused into one multiply pass."""
        key = (base, n, scalar)
        cached = self._np_post_scale.get(key)
        if cached is None:
            cached = gl64.powers(scalar, base, n)
            self._np_post_scale[key] = cached
        else:
            STATS.ntt_plan_hits += 1
        return cached

    def _gl64_sixstep(self, root: int, n: int, shift: int) -> gl64.SixStepPlan:
        key = (root, n, shift)
        cached = self._np_sixstep.get(key)
        if cached is None:
            cached = gl64.build_sixstep_plan(root, n, shift)
            self._np_sixstep[key] = cached
        else:
            STATS.ntt_plan_hits += 1
        return cached

    def _gl64_ntt(self, vec: np.ndarray, root: int) -> np.ndarray:
        n = int(vec.shape[-1])
        if n == 1:
            return vec.copy()
        if vec.ndim == 1 and n >= sixstep_min_n():
            return gl64.sixstep_ntt(vec, self._gl64_sixstep(root, n, 1))
        return gl64.ntt(vec, self._gl64_stages(root, n), self._gl64_rev(n))

    def _gl64_coset_ntt(self, vec: np.ndarray, root: int, shift: int,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
        """Coset NTT with the shift scaling fused into the input gather
        (radix-2) or the inner stages (six-step) — never a separate pass.
        A matrix's rows may be written into ``out`` (see ``gl64.ntt``)."""
        n = int(vec.shape[-1])
        if n == 1:
            if out is None:
                return vec.copy()
            out[...] = vec
            return out
        if vec.ndim == 1 and n >= sixstep_min_n():
            return gl64.sixstep_ntt(vec, self._gl64_sixstep(root, n, shift))
        return gl64.ntt(
            vec,
            self._gl64_stages(root, n),
            self._gl64_rev(n),
            scale_rev=self._gl64_scale_rev(shift, n),
            out=out,
        )

    # -- vector-native transforms -------------------------------------------
    #
    # These accept and return ``uint64`` arrays (anything ``gl64.from_ints``
    # packs goes in) without converting elements through Python ints.

    def _pad_vec(self, vec, n: int) -> np.ndarray:
        vec = gl64.from_ints(vec)
        if len(vec) == n:
            return vec
        if len(vec) > n:
            raise ValueError("polynomial degree exceeds domain size")
        out = np.zeros(n, dtype=np.uint64)
        out[: len(vec)] = vec
        return out

    def lagrange_to_coeff_vec(self, evals) -> np.ndarray:
        """Interpolate base-domain evaluations into coefficients."""
        if len(evals) != self.n:
            raise ValueError("expected %d evaluations, got %d" % (self.n, len(evals)))
        STATS.ntt_base += 1
        out = self._gl64_ntt(gl64.from_ints(evals), self.field.inv(self.omega))
        return gl64.mul(out, self.field.inv(self.n))

    def coeff_to_lagrange_vec(self, coeffs) -> np.ndarray:
        """Evaluate a coefficient vector over the base domain."""
        STATS.ntt_base += 1
        return self._gl64_ntt(self._pad_vec(coeffs, self.n), self.omega)

    def coeff_to_extended_vec(self, coeffs) -> np.ndarray:
        """Evaluate a coefficient vector over the extended coset domain."""
        STATS.ntt_extended += 1
        return self._gl64_coset_ntt(self._pad_vec(coeffs, self.extended_n),
                                    self.extended_omega, self.coset_shift)

    def extended_to_coeff_vec(self, evals) -> np.ndarray:
        """Interpolate extended-coset evaluations back to coefficients."""
        STATS.ntt_extended += 1
        if len(evals) != self.extended_n:
            raise ValueError(
                "expected %d evaluations, got %d" % (self.extended_n, len(evals))
            )
        return self.coset_intt(evals, self.extended_omega, self.coset_shift)

    def coset_intt(self, evals, root: int, shift: int) -> np.ndarray:
        """Coefficients of the polynomial with values ``evals`` on the coset
        ``shift * <root>`` (``root`` of order ``len(evals)``).  The ``1/n``
        and inverse coset powers land in one fused multiply pass."""
        n = len(evals)
        out = self._gl64_ntt(gl64.from_ints(evals), self.field.inv(root))
        return gl64.mul(out, self._gl64_post_scale(
            self.field.inv(shift), n, self.field.inv(n)))

    # -- batch transforms ----------------------------------------------------

    def lagrange_to_coeff_rows(self, mat: np.ndarray) -> np.ndarray:
        """Interpolate ``m`` base-domain columns in one batched kernel call.

        ``mat`` is an ``(m, n)`` ``uint64`` matrix whose rows are column
        evaluation vectors.  One batched inverse NTT (with
        the ``1/n`` scaling fused into the input gather — exact by
        linearity of the transform) replaces ``m`` per-column calls; the
        ``ntt_base`` counter is bumped by ``m`` so operation counts stay
        comparable with the per-column path.
        """
        if mat.ndim != 2 or mat.shape[1] != self.n:
            raise ValueError(
                "expected an (m, %d) matrix, got shape %r" % (self.n, mat.shape)
            )
        rows = mat.shape[0]
        STATS.ntt_base += rows
        if rows == 0:
            return mat.copy()
        if self.n == 1:
            return mat.copy()
        return gl64.ntt(
            mat,
            self._gl64_stages(self.field.inv(self.omega), self.n),
            self._gl64_rev(self.n),
            scale_rev=np.uint64(self.field.inv(self.n)),
        )

    def lagrange_to_coeff_batch(self, columns: Sequence) -> np.ndarray:
        """Interpolate many base-domain columns: an ``(m, n)`` matrix of
        coefficient rows."""
        mat = np.stack([gl64.from_ints(col) for col in columns])
        return self.lagrange_to_coeff_rows(mat)

    # -- extended-coset part decomposition -----------------------------------
    #
    # Extended-domain index ``j`` splits as ``j = t * extension + r``: the
    # evaluation point ``shift * w_E^j`` equals ``(shift * w_E^r) * omega^t``
    # because ``w_E^extension == omega`` (both are powers of the same
    # generator).  Part ``r`` of a polynomial's extended evaluations is
    # therefore a *base-size* coset NTT with shift ``shift * w_E^r`` — the
    # quotient reads every column as its ``(extension, n)`` part matrix, a
    # rotation is cyclic within a part, and Z_H is a scalar on each part.

    def extended_part_shifts(self) -> List[int]:
        """Coset shifts ``coset_shift * extended_omega^r`` per part."""
        if self._part_shifts is None:
            f = self.field
            shifts = []
            acc = self.coset_shift
            for _ in range(self.extension):
                shifts.append(acc)
                acc = f.mul(acc, self.extended_omega)
            self._part_shifts = shifts
        return self._part_shifts

    def coeff_to_extended_part(self, mat: np.ndarray, r: int,
                               out: Optional[np.ndarray] = None) -> np.ndarray:
        """Part ``r`` of the extended-coset evaluations of each row of ``mat``.

        ``mat`` is ``(m, n)`` coefficient rows; the result is ``(m, n)``
        evaluations at ``shift_r * omega^t``, written into ``out`` when it
        is given (an ``(m, n)`` view with contiguous rows).  Callers account
        for ``ntt_extended`` themselves (all ``extension`` parts of one
        column together equal one logical extended transform).
        """
        return self._gl64_coset_ntt(mat, self.omega, self.extended_part_shifts()[r],
                                    out=out)

    def vanishing_part_inverses(self) -> List[int]:
        """``1 / Z_H`` per extended-coset part (a scalar on each part).

        ``Z_H(shift_r * omega^t) = shift^n * w_E^(n*r) - 1`` is independent
        of ``t`` since ``omega^n = 1``, so the vanishing division in the
        quotient phase is one scalar multiply per part instead of a
        full-width vector multiply against a batch-inverted table.
        """
        if self._part_invs is None:
            f = self.field
            acc = f.pow(self.coset_shift, self.n)
            w_ext_n = f.pow(self.extended_omega, self.n)
            invs = []
            for _ in range(self.extension):
                invs.append(f.inv(f.sub(acc, 1)))
                acc = f.mul(acc, w_ext_n)
            self._part_invs = invs
        return self._part_invs

    # -- low-degree extensions for commitments --------------------------------
    #
    # A committed column is its evaluations over the extended coset (rate
    # ``1 / extension``), kept as the ``(extension, n)`` coset parts the
    # quotient reads.  Everything else reads that layout where it lies: the
    # Merkle leaves (``MerkleTree.from_lde``), the opened rows and the DEEP
    # quotient's columns; the helpers below give its points and positions.

    def lde(self, polys: np.ndarray) -> np.ndarray:
        """Extended-coset evaluations of coefficient vectors of length ``n``:
        an ``(m, n)`` matrix in, ``(m, extension, n)`` parts out, each part's
        coset NTT writing straight into its slice.  Counts one
        ``ntt_extended`` per column.
        """
        STATS.ntt_extended += len(polys)
        out = np.empty((len(polys), self.extension, self.n), dtype=np.uint64)
        if len(polys):
            for r in range(self.extension):
                self.coeff_to_extended_part(polys, r, out=out[:, r, :])
        return out

    def lde_columns(self, lde):
        """An LDE's columns as flat vectors in :meth:`lde_points` order (a
        view: rows of it are read in place through a row index)."""
        return lde.reshape(lde.shape[0], self.extended_n)

    def lde_points(self):
        """The extended coset's points, in the order LDE columns are stored."""
        def build():
            base = self._gl64_powers(self.omega, self.n)
            shifts = np.array(self.extended_part_shifts(), dtype=np.uint64)
            # an (ext, 1) column times an (n,) row: one broadcast kernel call
            return gl64.mul(shifts[:, None], base).reshape(-1)

        return self.memo("lde-points", build)

    def lde_natural(self, vec: np.ndarray) -> np.ndarray:
        """A vector in :meth:`lde_points` order, reordered to extended index."""
        return np.ascontiguousarray(
            vec.reshape(self.extension, self.n).T).reshape(-1)

    def lde_rows(self, lde: np.ndarray,
                 positions: Sequence[int]) -> List[List[int]]:
        """Merkle leaves ``positions`` of an LDE, as plain ints (one gather
        for all of them): leaf ``j`` holds every column at extended
        positions ``j`` and ``j + N/2`` (the points ``z`` and ``-z``)."""
        t, r = np.divmod(np.array(positions, dtype=np.int64), self.extension)
        both = np.concatenate([lde[:, r, t], lde[:, r, t + self.n // 2]])
        return both.T.tolist()

    def evaluate_lagrange(self, evals: Sequence[int], z: int) -> int:
        """``f(z)`` for the column with base-domain values ``evals``.

        Barycentric, over the nonzero rows only:
        ``f(z) = (z^n - 1) / n * sum_i f_i omega^i / (z - omega^i)`` —
        one batched inversion, no transform.  ``z`` must lie outside the
        base domain.  Public-input columns hold a handful of outputs, so
        this costs the verifier microseconds where interpolating the
        column cost an NTT plus a Horner pass.
        """
        f = self.field
        p = f.p
        nonzero = [(i, v) for i, v in enumerate(evals) if v]
        if not nonzero:
            return 0
        # powers up to the last nonzero row, as Python ints (uint64
        # products would wrap)
        powers = gl64.powers(1, self.omega, nonzero[-1][0] + 1).tolist()
        rows = [(v, powers[i]) for i, v in nonzero]
        inverses = f.batch_inv([(z - w) % p for _, w in rows])
        acc = sum(v * w * inv for (v, w), inv in zip(rows, inverses))
        return acc * self.vanishing_eval(z) * f.inv(self.n) % p

    # -- transforms (int-list API, for callers that hold plain ints) ---------

    def lagrange_to_coeff(self, evals: Sequence[int]) -> List[int]:
        """Interpolate evaluations over the base domain into coefficients."""
        return self.backend.to_ints(self.lagrange_to_coeff_vec(evals))

    def coeff_to_lagrange(self, coeffs: Sequence[int]) -> List[int]:
        """Evaluate a coefficient vector over the base domain."""
        return self.backend.to_ints(self.coeff_to_lagrange_vec(coeffs))

    def coeff_to_extended(self, coeffs: Sequence[int]) -> List[int]:
        """Evaluate a coefficient vector over the extended coset domain."""
        return self.backend.to_ints(self.coeff_to_extended_vec(coeffs))

    def extended_to_coeff(self, evals: Sequence[int]) -> List[int]:
        """Interpolate extended-coset evaluations back to coefficients."""
        return self.backend.to_ints(self.extended_to_coeff_vec(evals))

    # -- vanishing polynomial ------------------------------------------------

    def vanishing_eval(self, x: int) -> int:
        """Evaluate ``Z_H(X) = X^n - 1`` at a point."""
        return self.field.sub(self.field.pow(x, self.n), 1)

    def rotate(self, x: int, rotation: int) -> int:
        """Multiply a point by ``omega^rotation`` (for shifted openings)."""
        power = self._rotation_cache.get(rotation)
        if power is None:
            if rotation >= 0:
                power = self.field.pow(self.omega, rotation)
            else:
                power = self.field.inv(self.field.pow(self.omega, -rotation))
            self._rotation_cache[rotation] = power
        return self.field.mul(x, power)
