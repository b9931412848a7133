"""Tests for evaluation domains."""

import random

import pytest

from repro.field import GOLDILOCKS, EvaluationDomain

from tests.reference import poly_eval

F = GOLDILOCKS


def test_sizes():
    d = EvaluationDomain(F, 4, max_degree=3)
    assert d.n == 16
    assert d.extended_n >= d.n * 2


def test_bad_params():
    with pytest.raises(ValueError):
        EvaluationDomain(F, -1)
    with pytest.raises(ValueError):
        EvaluationDomain(F, 3, max_degree=1)


def test_lagrange_coeff_roundtrip():
    d = EvaluationDomain(F, 5)
    evals = [random.randrange(F.p) for _ in range(d.n)]
    assert d.coeff_to_lagrange(d.lagrange_to_coeff(evals)) == evals


def test_coeff_to_extended_consistent_with_eval():
    d = EvaluationDomain(F, 3, max_degree=3)
    coeffs = [random.randrange(F.p) for _ in range(d.n)]
    ext = d.coeff_to_extended(coeffs)
    x0 = d.coset_shift
    assert ext[0] == poly_eval(F, coeffs, x0)
    x1 = F.mul(d.coset_shift, d.extended_omega)
    assert ext[1] == poly_eval(F, coeffs, x1)


def test_extended_roundtrip():
    d = EvaluationDomain(F, 4, max_degree=5)
    coeffs = [random.randrange(F.p) for _ in range(d.n)]
    padded = coeffs + [0] * (d.extended_n - d.n)
    assert d.extended_to_coeff(d.coeff_to_extended(coeffs)) == padded


def _extended_point(d, j):
    return F.mul(d.coset_shift, F.pow(d.extended_omega, j))


def test_vanishing_zero_on_domain_nonzero_on_coset():
    d = EvaluationDomain(F, 3)
    for i in range(d.n):
        assert d.vanishing_eval(F.pow(d.omega, i)) == 0
    for j in range(d.extended_n):
        assert d.vanishing_eval(_extended_point(d, j)) != 0


def test_vanishing_on_extended_matches_pointwise():
    # Z_H is one scalar per coset part: extended index j = t * ext + r
    # lies in part r, whose cached inverse must invert Z_H at every point
    d = EvaluationDomain(F, 3, max_degree=4)
    inverses = d.vanishing_part_inverses()
    assert len(inverses) == d.extension
    for j in range(d.extended_n):
        z_h = d.vanishing_eval(_extended_point(d, j))
        assert F.mul(z_h, inverses[j % d.extension]) == 1


def test_rotate():
    d = EvaluationDomain(F, 4)
    x = random.randrange(1, F.p)
    assert d.rotate(x, 1) == F.mul(x, d.omega)
    assert d.rotate(d.rotate(x, 1), -1) == x
    assert d.rotate(x, 0) == x
