"""Prime-field arithmetic on scalars.

Field elements are plain Python ints reduced mod ``p``.  A
:class:`PrimeField` carries the modulus together with the data the NTT and
the proving system need: a multiplicative generator, the field's
two-adicity, and the corresponding ``2^two_adicity``-th root of unity.
The prover runs over :data:`GOLDILOCKS` only (:func:`require_goldilocks`);
the class stays general because its scalar operations are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Sequence

from repro.resilience.errors import UnsupportedFieldError


@lru_cache(maxsize=4096)
def _cached_inv(p: int, a: int) -> int:
    return pow(a, p - 2, p)


@dataclass(frozen=True)
class PrimeField:
    """A prime field F_p with NTT support.

    Attributes:
        name: Human-readable field name.
        p: The prime modulus.
        generator: A multiplicative generator of F_p*.
        two_adicity: Largest ``s`` with ``2^s | p - 1``.
    """

    name: str
    p: int
    generator: int
    two_adicity: int
    _root_cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.p < 3:
            raise ValueError("modulus must be an odd prime")
        if (self.p - 1) % (1 << self.two_adicity):
            raise ValueError("two_adicity does not divide p - 1")

    # -- scalar operations -------------------------------------------------

    def reduce(self, a: int) -> int:
        """Reduce an arbitrary int into ``[0, p)``."""
        return a % self.p

    def add(self, a: int, b: int) -> int:
        s = a + b
        return s - self.p if s >= self.p else s

    def sub(self, a: int, b: int) -> int:
        d = a - b
        return d + self.p if d < 0 else d

    def neg(self, a: int) -> int:
        return self.p - a if a else 0

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def square(self, a: int) -> int:
        return a * a % self.p

    def pow(self, a: int, e: int) -> int:
        return pow(a, e, self.p)

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError on zero.

        Backed by a small LRU: the prover inverts the same handful of
        constants (``n``, roots of unity, coset shifts) over and over.
        """
        if a == 0:
            raise ZeroDivisionError("inverse of zero in %s" % self.name)
        return _cached_inv(self.p, a)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    # -- vector operations -------------------------------------------------

    def batch_inv(self, values: Sequence[int]) -> List[int]:
        """Invert many nonzero elements with a single field inversion.

        Montgomery's trick: prefix products, one inversion, then unwind.
        """
        n = len(values)
        if n == 0:
            return []
        prefix = [0] * n
        acc = 1
        for i, v in enumerate(values):
            if v == 0:
                raise ZeroDivisionError("batch_inv of zero at index %d" % i)
            prefix[i] = acc
            acc = acc * v % self.p
        inv_acc = self.inv(acc)
        out = [0] * n
        for i in range(n - 1, -1, -1):
            out[i] = inv_acc * prefix[i] % self.p
            inv_acc = inv_acc * values[i] % self.p
        return out

    # -- roots of unity ----------------------------------------------------

    def root_of_unity(self, k: int) -> int:
        """A primitive ``2^k``-th root of unity."""
        if k > self.two_adicity:
            raise ValueError(
                "field %s has two-adicity %d < %d" % (self.name, self.two_adicity, k)
            )
        cached = self._root_cache.get(k)
        if cached is not None:
            return cached
        exponent = (self.p - 1) >> k
        root = pow(self.generator, exponent, self.p)
        self._root_cache[k] = root
        return root

    # -- encoding of signed fixed-point values ------------------------------

    def encode_signed(self, v: int) -> int:
        """Map a signed integer to the field (negatives wrap to ``p - |v|``)."""
        return v % self.p

    def decode_signed(self, a: int) -> int:
        """Map a field element back to a signed integer, centered at zero."""
        return a - self.p if a > self.p // 2 else a


GOLDILOCKS = PrimeField(
    name="goldilocks",
    p=(1 << 64) - (1 << 32) + 1,
    generator=7,
    two_adicity=32,
)


def require_goldilocks(field: PrimeField) -> None:
    """Refuse any field but :data:`GOLDILOCKS`.

    Field grids, transforms and commitments are ``uint64`` kernels that
    reduce modulo the Goldilocks prime; over another modulus they would
    return wrong residues, not an error, so the entry points check first.
    """
    if field.p != GOLDILOCKS.p:
        raise UnsupportedFieldError(
            "field %r is not Goldilocks (p = 2^64 - 2^32 + 1), the only "
            "field this prover implements" % field.name, field=field.name)
