"""Constraint-expression AST.

Expressions are built with Python operators over :class:`Ref` (a column at
a row rotation) and :class:`Constant`.  The tree knows its polynomial
degree (a column reference is degree 1) and can evaluate itself either on
a concrete grid row (MockProver), pointwise on a domain (quotient
computation), or symbolically from a dict of opened values (verifier).
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


class VectorEvaluator:
    """Memoizing columnwise expression evaluator — the prover's hot loop.

    Evaluates expression trees over whole columns at once using the
    :class:`~repro.field.vector.GL64Backend`.  Three things make it fast:

    - results are memoized by node identity, so subexpressions that keygen
      shares between constraints (compressed lookup inputs, permutation
      denominators) are evaluated once per proof phase;
    - constants and challenges stay *scalars* until they meet a column, so
      no ``size``-length constant vectors are ever allocated;
    - ``Sum(x, Neg(y))`` — how ``-`` desugars — is fused into a single
      subtraction pass instead of a negation pass plus an addition pass.

    ``read_vec(column, rotation)`` must return the rotated column as a
    backend vector; returned vectors are shared and must not be mutated.
    A node evaluates to either a Python int (scalar) or a backend vector.
    """

    def __init__(
        self,
        backend,
        size: int,
        read_vec: Callable[[Column, int], object],
        challenges: Optional[Dict[str, int]] = None,
    ):
        self.backend = backend
        self.field = backend.field
        self.size = size
        self.read_vec = read_vec
        self.challenges = challenges
        # id -> (node, result); keeping the node alive pins its id
        self._memo: Dict[int, tuple] = {}

    def evaluate(self, expr: Expression):
        """Evaluate to a scalar int or a backend vector."""
        key = id(expr)
        hit = self._memo.get(key)
        if hit is not None:
            return hit[1]
        result = self._compute(expr)
        self._memo[key] = (expr, result)
        return result

    def evaluate_vec(self, expr: Expression):
        """Evaluate, expanding a scalar result to a full vector."""
        result = self.evaluate(expr)
        if isinstance(result, int):
            return self.backend.add_scalar(self.backend.zeros(self.size), result)
        return result

    def fold(self, exprs, y: int):
        """Fold many constraints into one vector: ``sum_i y^i * C_i``.

        The accumulator is updated in place across constraints (one vector
        pass per constraint) exactly as the verifier folds openings.
        """
        acc = self.backend.zeros(self.size)
        for expr in exprs:
            value = self.evaluate(expr)
            if isinstance(value, int):
                acc = self.backend.fold_scalar(acc, y, value)
            else:
                acc = self.backend.fold(acc, y, value)
        return acc

    def _compute(self, expr: Expression):
        field = self.field
        backend = self.backend
        if isinstance(expr, Constant):
            return field.reduce(expr.value)
        if isinstance(expr, Challenge):
            return expr.evaluate(field, None, self.challenges)
        if isinstance(expr, Ref):
            return self.read_vec(expr.column, expr.rotation)
        if isinstance(expr, Sum):
            left, right = expr.left, expr.right
            # fuse a - b (desugared as Sum(a, Neg(b))) into one pass
            if isinstance(right, Neg):
                a, b = self.evaluate(left), self.evaluate(right.inner)
                if isinstance(a, int) and isinstance(b, int):
                    return field.sub(a, b)
                if isinstance(b, int):
                    return backend.add_scalar(a, field.neg(b))
                if isinstance(a, int):
                    return backend.scalar_sub(a, b)
                return backend.sub(a, b)
            if isinstance(left, Neg):
                a, b = self.evaluate(right), self.evaluate(left.inner)
                if isinstance(a, int) and isinstance(b, int):
                    return field.sub(a, b)
                if isinstance(b, int):
                    return backend.add_scalar(a, field.neg(b))
                if isinstance(a, int):
                    return backend.scalar_sub(a, b)
                return backend.sub(a, b)
            a, b = self.evaluate(left), self.evaluate(right)
            if isinstance(a, int) and isinstance(b, int):
                return field.add(a, b)
            if isinstance(b, int):
                return backend.add_scalar(a, b)
            if isinstance(a, int):
                return backend.add_scalar(b, a)
            return backend.add(a, b)
        if isinstance(expr, Product):
            a, b = self.evaluate(expr.left), self.evaluate(expr.right)
            if isinstance(a, int) and isinstance(b, int):
                return field.mul(a, b)
            if isinstance(b, int):
                a, b = b, a
            if isinstance(a, int):
                if a == 0:
                    return 0
                if a == 1:
                    return b
                return backend.mul_scalar(b, a)
            return backend.mul(a, b)
        if isinstance(expr, Neg):
            inner = self.evaluate(expr.inner)
            if isinstance(inner, int):
                return field.neg(inner)
            return backend.neg(inner)
        raise TypeError("unknown expression node %r" % type(expr).__name__)


def evaluate_on_lagrange(
    expr: Expression,
    backend,
    read_column: Callable[[Column], object],
    size: int,
    challenges: Optional[Dict[str, int]] = None,
) -> object:
    """Evaluate an expression columnwise over the *base* domain.

    Used for helper-column construction: ``read_column(col)`` returns the
    column's base-domain evaluations (a backend vector), and rotations are
    realized as cyclic row shifts of that vector.  Returns a backend vector.
    """
    rotated: Dict[tuple, object] = {}

    def read_vec(column: Column, rotation: int):
        key = (column, rotation)
        vec = rotated.get(key)
        if vec is None:
            vec = backend.rotate(read_column(column), rotation)
            rotated[key] = vec
        return vec

    ev = VectorEvaluator(backend, size, read_vec, challenges)
    return ev.evaluate_vec(expr)
