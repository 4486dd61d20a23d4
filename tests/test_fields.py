import pytest

from formalitykit.errors import InputValidationError
from formalitykit.fields import RATIONALS, FieldSpec, PrimeField


def test_field_is_built_once_per_modulus():
    a = FieldSpec(kind="fp", p=32003).field()
    assert FieldSpec.parse("fp:32003").field() is a
    assert FieldSpec(kind="fp", p=7).field() is not a
    assert FieldSpec().field() is RATIONALS


@pytest.mark.parametrize("p", [2, 5, 7, 32003])
def test_cached_prime_field_arithmetic_is_unchanged(p):
    f = FieldSpec(kind="fp", p=p).field()
    fresh = PrimeField(p)
    assert f == fresh and f.p == p and f.characteristic == p
    for a in range(-3, 9):
        for b in range(-3, 9):
            assert f.add(a, b) == (a + b) % p
            assert f.sub(a, b) == (a - b) % p
            assert f.mul(a, b) == (a * b) % p
            if b % p:
                assert f.mul(f.div(a, b), b) == a % p
    assert f.neg(1) == p - 1 and f.one == 1 % p and f.zero == 0
    if p != 2:
        assert f.parse("3/2") == fresh.parse("3/2") == f.div(3, 2)
    with pytest.raises(ZeroDivisionError):
        f.inv(p)


def test_composite_modulus_still_rejected():
    with pytest.raises(InputValidationError):
        FieldSpec(kind="fp", p=9)
    with pytest.raises(InputValidationError):
        PrimeField(9)
