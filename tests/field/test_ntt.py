"""The reference NTT (``tests/reference.py``) against naive evaluation.

The Goldilocks kernels are tested against this reference elsewhere
(``test_gl64.py``, ``test_domain.py``); here the reference itself is held
to the definition of the transform.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field import GOLDILOCKS, EvaluationDomain

from tests.reference import coset_intt, coset_ntt, intt, ntt, poly_eval

F = GOLDILOCKS


def test_ntt_length_must_be_power_of_two():
    with pytest.raises(ValueError):
        ntt(F, [1, 2, 3], F.root_of_unity(2))


def test_ntt_singleton():
    assert ntt(F, [7], 1) == [7]


def test_ntt_matches_naive_evaluation():
    k = 3
    n = 1 << k
    root = F.root_of_unity(k)
    coeffs = [random.randrange(F.p) for _ in range(n)]
    evals = ntt(F, coeffs, root)
    for i in range(n):
        x = F.pow(root, i)
        assert evals[i] == poly_eval(F, coeffs, x)


def test_intt_inverts_ntt():
    k = 6
    n = 1 << k
    root = F.root_of_unity(k)
    coeffs = [random.randrange(F.p) for _ in range(n)]
    assert intt(F, ntt(F, coeffs, root), root) == coeffs


def test_coset_ntt_matches_naive():
    k = 3
    n = 1 << k
    root = F.root_of_unity(k)
    shift = F.generator
    coeffs = [random.randrange(F.p) for _ in range(n)]
    evals = coset_ntt(F, coeffs, root, shift)
    for i in range(n):
        x = F.mul(shift, F.pow(root, i))
        assert evals[i] == poly_eval(F, coeffs, x)


def test_coset_intt_inverts_coset_ntt():
    k = 5
    n = 1 << k
    root = F.root_of_unity(k)
    shift = F.generator
    coeffs = [random.randrange(F.p) for _ in range(n)]
    assert coset_intt(F, coset_ntt(F, coeffs, root, shift), root, shift) == coeffs


@given(
    k=st.integers(min_value=0, max_value=7),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=25)
def test_ntt_roundtrip_property(k, seed):
    rng = random.Random(seed)
    n = 1 << k
    root = F.root_of_unity(k) if k else 1
    coeffs = [rng.randrange(F.p) for _ in range(n)]
    assert intt(F, ntt(F, coeffs, root), root) == coeffs


def test_ntt_linearity():
    k = 4
    n = 1 << k
    root = F.root_of_unity(k)
    a = [random.randrange(F.p) for _ in range(n)]
    b = [random.randrange(F.p) for _ in range(n)]
    fa, fb = ntt(F, a, root), ntt(F, b, root)
    summed = ntt(F, [F.add(x, y) for x, y in zip(a, b)], root)
    assert summed == [F.add(x, y) for x, y in zip(fa, fb)]


@pytest.mark.parametrize("k", [0, 1, 3, 5])
def test_domain_coset_intt_matches_reference(k):
    # the FRI final polynomial's interpolation, on the domain's kernel
    domain = EvaluationDomain(F, 6)
    n = 1 << k
    root = F.root_of_unity(k) if k else 1
    shift = F.pow(F.generator, 3)
    evals = [random.randrange(F.p) for _ in range(n)]
    got = domain.coset_intt(evals, root, shift).tolist()
    assert got == coset_intt(F, evals, root, shift)


def test_bn254_ntt_roundtrip():
    # the reference is field-generic: it holds over a 254-bit prime too
    from tests.field.test_prime_field import BN254_FR

    k = 5
    n = 1 << k
    root = BN254_FR.root_of_unity(k)
    coeffs = [random.randrange(BN254_FR.p) for _ in range(n)]
    assert intt(BN254_FR, ntt(BN254_FR, coeffs, root), root) == coeffs


def test_bn254_coset_roundtrip():
    from tests.field.test_prime_field import BN254_FR

    k = 4
    root = BN254_FR.root_of_unity(k)
    shift = BN254_FR.generator
    coeffs = [random.randrange(BN254_FR.p) for _ in range(1 << k)]
    assert coset_intt(BN254_FR, coset_ntt(BN254_FR, coeffs, root, shift),
                      root, shift) == coeffs
