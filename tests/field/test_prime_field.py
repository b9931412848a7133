"""Unit and property tests for prime-field arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field import GOLDILOCKS, PrimeField, require_goldilocks
from repro.resilience.errors import UnsupportedFieldError

#: The paper's field (BN254's scalar field).  ``PrimeField``'s scalar
#: operations are modulus-generic, so they are checked on a 254-bit prime
#: too; the prover itself refuses this field (``require_goldilocks``).
BN254_FR = PrimeField(
    name="bn254-fr",
    p=21888242871839275222246405745257275088548364400416034343698204186575808495617,
    generator=5,
    two_adicity=28,
)

FIELDS = [GOLDILOCKS, BN254_FR]


def elements(field):
    return st.integers(min_value=0, max_value=field.p - 1)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
class TestBasicOps:
    def test_add_wraps(self, field):
        assert field.add(field.p - 1, 1) == 0

    def test_sub_wraps(self, field):
        assert field.sub(0, 1) == field.p - 1

    def test_neg_zero(self, field):
        assert field.neg(0) == 0

    def test_neg_roundtrip(self, field):
        assert field.add(5, field.neg(5)) == 0

    def test_mul_identity(self, field):
        assert field.mul(1, 12345) == 12345

    def test_inv(self, field):
        for v in (1, 2, 7, field.p - 1):
            assert field.mul(v, field.inv(v)) == 1

    def test_inv_zero_raises(self, field):
        with pytest.raises(ZeroDivisionError):
            field.inv(0)

    def test_div(self, field):
        assert field.div(field.mul(3, 17), 17) == 3

    def test_reduce(self, field):
        assert field.reduce(field.p + 5) == 5
        assert field.reduce(-1) == field.p - 1


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
class TestRootsOfUnity:
    def test_root_has_exact_order(self, field):
        for k in (1, 4, 10):
            root = field.root_of_unity(k)
            assert field.pow(root, 1 << k) == 1
            assert field.pow(root, 1 << (k - 1)) == field.p - 1

    def test_excessive_two_adicity_raises(self, field):
        with pytest.raises(ValueError):
            field.root_of_unity(field.two_adicity + 1)

    def test_root_cache_consistent(self, field):
        assert field.root_of_unity(8) == field.root_of_unity(8)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
class TestSignedEncoding:
    def test_roundtrip_negative(self, field):
        assert field.decode_signed(field.encode_signed(-42)) == -42

    def test_roundtrip_positive(self, field):
        assert field.decode_signed(field.encode_signed(42)) == 42

    def test_zero(self, field):
        assert field.encode_signed(0) == 0
        assert field.decode_signed(0) == 0


class TestBatchInv:
    def test_empty(self):
        assert GOLDILOCKS.batch_inv([]) == []

    def test_matches_single_inv(self):
        values = [1, 2, 3, 999, GOLDILOCKS.p - 2]
        batch = GOLDILOCKS.batch_inv(values)
        assert batch == [GOLDILOCKS.inv(v) for v in values]

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GOLDILOCKS.batch_inv([1, 0, 2])


class TestFieldRegistry:
    def test_only_goldilocks_is_accepted(self):
        require_goldilocks(GOLDILOCKS)
        with pytest.raises(UnsupportedFieldError, match="Goldilocks"):
            require_goldilocks(BN254_FR)

    def test_bad_two_adicity_rejected(self):
        with pytest.raises(ValueError):
            PrimeField(name="bad", p=7, generator=3, two_adicity=5)


@given(a=elements(GOLDILOCKS), b=elements(GOLDILOCKS), c=elements(GOLDILOCKS))
@settings(max_examples=50)
def test_field_axioms(a, b, c):
    f = GOLDILOCKS
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.sub(f.add(a, b), b) == a


@given(a=elements(GOLDILOCKS))
@settings(max_examples=50)
def test_inverse_property(a):
    f = GOLDILOCKS
    if a != 0:
        assert f.mul(a, f.inv(a)) == 1
