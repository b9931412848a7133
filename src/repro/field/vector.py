"""Columnwise field-vector operations with a numpy fast path.

The prover's hot loops all have the same shape: elementwise field
arithmetic over whole columns (helper construction, quotient folding).  A
:class:`VectorBackend` packages those operations so callers are agnostic
to the representation:

- :class:`ListBackend` — plain Python ints in lists; works for any field
  and is the bit-exact reference.
- :class:`GL64Backend` — numpy ``uint64`` arrays using the Goldilocks
  kernels in :mod:`repro.field.gl64`; ~1-2 orders of magnitude faster.

Both produce canonical residues, so proofs are byte-identical whichever
backend runs (asserted by ``tests/halo2/test_vectorized_equivalence.py``).
Vectors returned by a backend must be treated as immutable — they may be
cached and shared between expression nodes.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.field import gl64
from repro.field.prime_field import PrimeField


class ListBackend:
    """Reference backend: vectors are Python lists of canonical ints."""

    def __init__(self, field: PrimeField):
        self.field = field

    def from_ints(self, values: Sequence[int]):
        if isinstance(values, np.ndarray):
            return values.tolist()
        return list(values)

    def to_ints(self, vec) -> List[int]:
        return list(vec)

    def zeros(self, n: int):
        return [0] * n

    def add(self, a, b):
        p = self.field.p
        return [s - p if (s := x + y) >= p else s for x, y in zip(a, b)]

    def sub(self, a, b):
        p = self.field.p
        return [d + p if (d := x - y) < 0 else d for x, y in zip(a, b)]

    def mul(self, a, b):
        p = self.field.p
        return [x * y % p for x, y in zip(a, b)]

    def neg(self, a):
        p = self.field.p
        return [p - x if x else 0 for x in a]

    def add_scalar(self, a, s: int):
        p = self.field.p
        return [(x + s) % p for x in a]

    def mul_scalar(self, a, s: int):
        p = self.field.p
        return [x * s % p for x in a]

    def scalar_sub(self, s: int, a):
        p = self.field.p
        return [(s - x) % p for x in a]

    def fold(self, acc, y: int, values):
        """``acc * y + values`` elementwise (constraint folding)."""
        p = self.field.p
        return [(x * y + v) % p for x, v in zip(acc, values)]

    def fold_scalar(self, acc, y: int, value: int):
        p = self.field.p
        return [(x * y + value) % p for x in acc]

    def rotate(self, vec, shift: int):
        """Cyclic left rotation by ``shift`` positions."""
        shift %= len(vec)
        if shift == 0:
            return vec
        return vec[shift:] + vec[:shift]

    def batch_inv(self, vec):
        return self.field.batch_inv(list(vec))

    def concat(self, vecs):
        """The vectors laid end to end."""
        return [x for vec in vecs for x in vec]

    def weighted_sum(self, rows, weights: Sequence[int]):
        """``sum_i weights[i] * rows[i]`` over equal-length vectors."""
        p = self.field.p
        acc = [0] * len(rows[0])
        for row, w in zip(rows, weights):
            acc = [a + w * x for a, x in zip(acc, row)]
        return [a % p for a in acc]


class GL64Backend(ListBackend):
    """Goldilocks backend: vectors are numpy ``uint64`` arrays."""

    def from_ints(self, values):
        return gl64.from_ints(values)

    def to_ints(self, vec) -> List[int]:
        return gl64.to_ints(vec)

    def zeros(self, n: int):
        return np.zeros(n, dtype=np.uint64)

    def add(self, a, b):
        return gl64.add(a, b)

    def sub(self, a, b):
        return gl64.sub(a, b)

    def mul(self, a, b):
        return gl64.mul(a, b)

    def neg(self, a):
        return gl64.neg(a)

    def add_scalar(self, a, s: int):
        return gl64.add(a, s)

    def mul_scalar(self, a, s: int):
        return gl64.mul(a, s)

    def scalar_sub(self, s: int, a):
        return gl64.sub(s, a)

    def fold(self, acc, y: int, values):
        return gl64.fold(acc, y, values)

    def fold_scalar(self, acc, y: int, value: int):
        return gl64.fold(acc, y, np.uint64(value))

    def rotate(self, vec, shift: int):
        # rows rotate along the last axis so the quotient's (ext, n)
        # coset-part matrices rotate exactly like 1-D columns
        shift %= vec.shape[-1]
        if shift == 0:
            return vec
        return np.roll(vec, -shift, axis=-1)

    def batch_inv(self, vec):
        return gl64.batch_inv(vec)

    def concat(self, vecs):
        return np.concatenate(vecs)

    def weighted_sum(self, rows, weights: Sequence[int]):
        if not isinstance(rows, np.ndarray):
            rows = np.array(rows, dtype=np.uint64)
        return gl64.weighted_sum(rows, weights)


def vector_backend(field: PrimeField) -> ListBackend:
    """The fastest exact backend available for ``field``."""
    if gl64.is_goldilocks(field.p):
        return GL64Backend(field)
    return ListBackend(field)
