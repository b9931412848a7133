"""Tests for the constraint-expression AST."""

import pytest

from repro.field import GOLDILOCKS
from repro.halo2 import Column, ColumnType, Constant, Ref
from repro.halo2.expression import Challenge, evaluate_from_openings

F = GOLDILOCKS
A = Column(ColumnType.ADVICE, 0)
B = Column(ColumnType.ADVICE, 1)


def test_degree_tracking():
    assert Constant(5).degree() == 0
    assert Ref(A).degree() == 1
    assert (Ref(A) * Ref(B)).degree() == 2
    assert (Ref(A) * Ref(B) + Ref(A)).degree() == 2
    assert (Ref(A) * Ref(A) * Ref(A)).degree() == 3
    assert Challenge("theta").degree() == 0


def test_refs_collects_rotations():
    expr = Ref(A) * Ref(B, 1) - Ref(A, -1)
    assert expr.refs() == {(A, 0), (B, 1), (A, -1)}


def test_evaluate_with_read_callback():
    expr = Ref(A) * Ref(B) - Constant(6)
    value = expr.evaluate(F, lambda col, rot: 2 if col == A else 3)
    assert value == 0


def test_operator_sugar_with_ints():
    expr = 2 * Ref(A) + 1 - Ref(A)
    value = expr.evaluate(F, lambda col, rot: 10)
    assert value == 11


def test_neg():
    expr = -Ref(A)
    assert expr.evaluate(F, lambda col, rot: 5) == F.p - 5


def test_challenge_evaluation():
    expr = Challenge("alpha") + Ref(A)
    value = expr.evaluate(F, lambda col, rot: 1, {"alpha": 9})
    assert value == 10


def test_unbound_challenge_raises():
    with pytest.raises(KeyError):
        Challenge("alpha").evaluate(F, lambda col, rot: 0)


def test_evaluate_from_openings():
    expr = Ref(A, 1) - Ref(A)
    openings = {(A, 1): 8, (A, 0): 3}
    assert evaluate_from_openings(expr, F, openings) == 5

