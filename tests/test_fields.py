from fractions import Fraction

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


def test_modulus_is_bounded_before_the_primality_test():
    # 2^61 - 1 is prime, but trial division up to its square root would
    # take minutes; the bound refuses it first
    for make in (lambda: FieldSpec.parse("fp:2305843009213693951"),
                 lambda: FieldSpec(kind="fp", p=2 ** 61 - 1),
                 lambda: PrimeField(2 ** 61 - 1)):
        with pytest.raises(InputValidationError, match="below 2"):
            make()
    assert FieldSpec.parse("fp:2147483647").field().p == 2 ** 31 - 1


@pytest.mark.parametrize("text", ["1/7", "x/2", "3/", "7/14", ""])
def test_bad_prime_field_scalar_is_an_input_error(text):
    with pytest.raises(InputValidationError):
        PrimeField(7).parse(text)


def test_scalar_maps_ints_and_fractions_into_the_field():
    assert PrimeField(7).scalar(Fraction(9, 2)) == 1
    assert PrimeField(7).scalar(-1) == 6
    assert PrimeField(7).scalar(Fraction(14, 3)) == 0
    assert RATIONALS.scalar(3) == Fraction(3) and type(RATIONALS.scalar(3)) is Fraction
    assert RATIONALS.scalar(Fraction(9, 2)) == Fraction(9, 2)


@pytest.mark.parametrize("value", [Fraction(1, 7), Fraction(3, 14), 0.5, True, "1", None])
def test_scalar_refuses_what_has_no_value_in_f7(value):
    with pytest.raises(InputValidationError):
        PrimeField(7).scalar(value)


@pytest.mark.parametrize("value", [0.5, False, "1/2", None])
def test_scalar_refuses_non_rational_values_over_q(value):
    with pytest.raises(InputValidationError):
        RATIONALS.scalar(value)
