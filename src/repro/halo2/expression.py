"""Constraint-expression AST.

Expressions are built with Python operators over :class:`Ref` (a column at
a row rotation) and :class:`Constant`.  The tree knows its polynomial
degree (a column reference is degree 1) and evaluates itself one point at
a time: on a concrete grid row (MockProver) or from a dict of opened
values (verifier).  The prover never walks the tree per row or per node:
keygen compiles it into a register tape (:mod:`repro.halo2.tape`) that
runs over whole columns.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

from repro.field.prime_field import PrimeField
from repro.halo2.column import Column


class Expression:
    """Base class; supports +, -, *, unary -, and scaling by ints."""

    def degree(self) -> int:
        raise NotImplementedError

    def refs(self) -> Set[Tuple[Column, int]]:
        """All (column, rotation) pairs the expression reads."""
        raise NotImplementedError

    def evaluate(
        self,
        field: PrimeField,
        read: Callable[[Column, int], int],
        challenges: Optional[Dict[str, int]] = None,
    ) -> int:
        """Evaluate with a callback supplying the value of (column, rotation)."""
        raise NotImplementedError

    # -- operator sugar -----------------------------------------------------

    def _lift(self, other) -> "Expression":
        if isinstance(other, Expression):
            return other
        if isinstance(other, int):
            return Constant(other)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        return Sum(self, other) if other is not NotImplemented else other

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        return Sum(self, Neg(other)) if other is not NotImplemented else other

    def __rsub__(self, other):
        other = self._lift(other)
        return Sum(other, Neg(self)) if other is not NotImplemented else other

    def __mul__(self, other):
        other = self._lift(other)
        return Product(self, other) if other is not NotImplemented else other

    __rmul__ = __mul__

    def __neg__(self):
        return Neg(self)


@dataclass(frozen=True)
class Constant(Expression):
    """A field constant."""

    value: int

    def degree(self) -> int:
        return 0

    def refs(self):
        return set()

    def evaluate(self, field, read, challenges=None):
        return field.reduce(self.value)


@dataclass(frozen=True)
class Challenge(Expression):
    """A Fiat-Shamir challenge, bound at evaluation time.

    Challenges let keygen build static constraint expressions (lookup and
    permutation arguments) whose random coefficients only exist once the
    transcript produces them.
    """

    label: str

    def degree(self) -> int:
        return 0

    def refs(self):
        return set()

    def evaluate(self, field, read, challenges=None):
        if not challenges or self.label not in challenges:
            raise KeyError("challenge %r not bound" % self.label)
        return challenges[self.label]


@dataclass(frozen=True)
class Ref(Expression):
    """A column read at a row rotation (0 = this row, 1 = next row, ...)."""

    column: Column
    rotation: int = 0

    def degree(self) -> int:
        return 1

    def refs(self):
        return {(self.column, self.rotation)}

    def evaluate(self, field, read, challenges=None):
        return read(self.column, self.rotation)


@dataclass(frozen=True)
class Sum(Expression):
    left: Expression
    right: Expression

    def degree(self) -> int:
        return max(self.left.degree(), self.right.degree())

    def refs(self):
        return self.left.refs() | self.right.refs()

    def evaluate(self, field, read, challenges=None):
        return field.add(
            self.left.evaluate(field, read, challenges),
            self.right.evaluate(field, read, challenges),
        )


@dataclass(frozen=True)
class Product(Expression):
    left: Expression
    right: Expression

    def degree(self) -> int:
        return self.left.degree() + self.right.degree()

    def refs(self):
        return self.left.refs() | self.right.refs()

    def evaluate(self, field, read, challenges=None):
        return field.mul(
            self.left.evaluate(field, read, challenges),
            self.right.evaluate(field, read, challenges),
        )


@dataclass(frozen=True)
class Neg(Expression):
    inner: Expression

    def degree(self) -> int:
        return self.inner.degree()

    def refs(self):
        return self.inner.refs()

    def evaluate(self, field, read, challenges=None):
        return field.neg(self.inner.evaluate(field, read, challenges))


def expression_digest(expr: Expression, memo: Dict[int, bytes]) -> bytes:
    """A canonical structural digest of an expression tree (16 bytes).

    Each node hashes its tag, its own fields and its children's digests,
    so two expressions agree exactly when they are the same tree — the
    encoding the verifying-key digest binds the constraint list with.
    ``memo`` (node identity -> digest) makes shared subtrees cost one
    hash; pass one dict across all of a key's constraints.
    """
    cached = memo.get(id(expr))
    if cached is not None:
        return cached
    if isinstance(expr, Constant):
        data = b"C%d" % expr.value
    elif isinstance(expr, Challenge):
        data = b"H" + expr.label.encode()
    elif isinstance(expr, Ref):
        data = b"R%s:%d:%d" % (expr.column.kind.value.encode(),
                               expr.column.index, expr.rotation)
    elif isinstance(expr, Neg):
        data = b"-" + expression_digest(expr.inner, memo)
    elif isinstance(expr, (Sum, Product)):
        data = ((b"+" if isinstance(expr, Sum) else b"*")
                + expression_digest(expr.left, memo)
                + expression_digest(expr.right, memo))
    else:
        raise TypeError("cannot digest expression node %r" % type(expr))
    digest = hashlib.blake2b(data, digest_size=16).digest()
    memo[id(expr)] = digest
    return digest


def evaluate_from_openings(
    expr: Expression,
    field: PrimeField,
    openings: Dict[Tuple[Column, int], int],
    challenges: Optional[Dict[str, int]] = None,
) -> int:
    """Evaluate an expression from a dict of opened (column, rotation) values."""

    def read(column: Column, rotation: int) -> int:
        return openings[(column, rotation)]

    return expr.evaluate(field, read, challenges)
