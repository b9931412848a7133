"""Columnwise field-vector operations on the Goldilocks kernels.

Elementwise field arithmetic over whole columns (the helper running
sums, FRI folding, the DEEP quotient's combinations).  :class:`GL64Backend`
packages those operations over numpy ``uint64`` arrays, calling the
compiled kernels in :mod:`repro.field.gl64`.  Vectors returned
by the backend must be treated as immutable — they may be shared.
Constraint expressions do not come through here: the prover runs them as
a compiled register tape (:mod:`repro.halo2.tape`).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.field import gl64
from repro.field.prime_field import PrimeField


class GL64Backend:
    """Goldilocks backend: vectors are numpy ``uint64`` arrays."""

    def __init__(self, field: PrimeField):
        self.field = field

    def from_ints(self, values):
        return gl64.from_ints(values)

    def to_ints(self, vec) -> List[int]:
        return gl64.to_ints(vec)

    def zeros(self, n):
        return np.zeros(n, dtype=np.uint64)

    def add(self, a, b):
        return gl64.add(a, b)

    def sub(self, a, b):
        return gl64.sub(a, b)

    def mul(self, a, b):
        return gl64.mul(a, b)

    def add_scalar(self, a, s: int):
        return gl64.add(a, s)

    def mul_scalar(self, a, s: int):
        return gl64.mul(a, s)

    def fold(self, acc, y: int, values):
        """``acc * y + values`` elementwise (constraint folding)."""
        return gl64.fold(acc, y, values)

    def batch_inv(self, vec):
        return gl64.batch_inv(vec)

    def concat(self, vecs):
        """The vectors laid end to end."""
        return np.concatenate(vecs)

    def weighted_sum(self, rows, weights: Sequence[int], index=None):
        """``sum_i weights[i] * rows[index[i]]`` (default ``rows[i]``) over
        the rows of a matrix, read in place."""
        return gl64.weighted_sum(rows, weights, index)
