from fractions import Fraction

import pytest

from formalitykit.errors import InputValidationError
from formalitykit.fields import RATIONALS, RATIONALS_SPEC, FieldSpec, PrimeField
from formalitykit.graded import GradedAlgebra, algebra_from_json_dict, truncated_poly
from formalitykit.hochschild import (
    PeriodicResolutionSpec,
    _tables,
    periodic_spec_truncated_poly,
    validate_periodic_spec,
)
from formalitykit.presentations import Generator, TensorPresentation


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
        assert f.scalar(a) == fresh.scalar(a) == a % p
        for b in range(-3, 9):
            if b % p:
                x = f.scalar(Fraction(a, b))
                assert x == fresh.scalar(Fraction(a, b)) == f.parse(f"{a}/{b}")
                assert 0 <= x < p and (x * b - a) % p == 0
    assert f.one == 1 % p and f.zero == 0
    with pytest.raises(InputValidationError):
        f.parse(f"1/{p}")


def test_composite_modulus_still_rejected():
    with pytest.raises(InputValidationError):
        FieldSpec(kind="fp", p=9)
    with pytest.raises(InputValidationError):
        PrimeField(9)


def test_field_spec_refuses_an_unknown_kind_and_a_modulus_on_the_rationals():
    # no tag parses to either, so the command line cannot reach them
    with pytest.raises(InputValidationError, match="^unknown field kind 'reals'$"):
        FieldSpec(kind="reals")
    with pytest.raises(InputValidationError, match="^rationals take no modulus$"):
        FieldSpec(p=7)


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
    # over Q an integral rational is an int, a non-integral one a Fraction
    assert RATIONALS.scalar(3) == 3 and type(RATIONALS.scalar(3)) is int
    assert type(RATIONALS.scalar(Fraction(6, 2))) is int
    assert RATIONALS.scalar(Fraction(9, 2)) == Fraction(9, 2)
    assert type(RATIONALS.parse("6/2")) is int and RATIONALS.parse("-3/6") == Fraction(-1, 2)
    assert type(RATIONALS.zero) is int and type(RATIONALS.one) is int


@pytest.mark.parametrize("value", [Fraction(1, 7), Fraction(3, 14), 0.5, True, "1", None])
def test_scalar_refuses_what_has_no_value_in_f7(value):
    with pytest.raises(InputValidationError):
        PrimeField(7).scalar(value)


@pytest.mark.parametrize("value", [0.5, False, "1/2", None])
def test_scalar_refuses_non_rational_values_over_q(value):
    with pytest.raises(InputValidationError):
        RATIONALS.scalar(value)


def _kinds(values):
    """The types of the integral and the non-integral values."""
    values = list(values)
    return ({type(v) for v in values if v == int(v)},
            {type(v) for v in values if v != int(v)})


def test_every_entry_point_keeps_integral_rationals_as_ints():
    half, two = Fraction(1, 2), Fraction(4, 2)
    want = ({int}, {Fraction})
    data = {"field": "rationals", "basis": [{"label": "1", "degree": 0}, {"label": "t", "degree": 2}],
            "mult": [{"left": "1", "right": "1", "result": [{"label": "1", "coeff": "2/2"}]},
                     {"left": "1", "right": "t", "result": [{"label": "t", "coeff": 1}]},
                     {"left": "t", "right": "1", "result": [{"label": "t", "coeff": "1"}]}],
            "unit": [{"label": "1", "coeff": "3/3"}]}
    A = algebra_from_json_dict(data)
    assert _kinds(v for c in (*A.mult.values(), A.unit) for v in c.values()) == ({int}, set())

    # k[t]/t^3 on the basis 1, t, s = 2 t^2
    basis = (("1", 0), ("t", 1), ("s", 2))
    mult = {("1", "1"): {"1": Fraction(1)}, ("1", "t"): {"t": Fraction(2, 2)}, ("t", "1"): {"t": 1},
            ("1", "s"): {"s": 1}, ("s", "1"): {"s": 1}, ("t", "t"): {"s": half}}
    B = GradedAlgebra(RATIONALS_SPEC, basis, mult, {"1": Fraction(2, 2)}, ("1",))
    assert _kinds(v for c in (*B.mult.values(), B.unit) for v in c.values()) == want
    tb = _tables(B, "relative_normalized")
    assert _kinds(v for c in tb.mult.values() for v in c.values()) == want

    pres = TensorPresentation(1, (Generator("t", 1, 1, 1),),
                              (((("t", "t"), two), (("t", "t"), half)),), 4)
    assert _kinds(c for rel in pres.relations for _, c in rel) == want

    T = truncated_poly(1, 2)
    spec = periodic_spec_truncated_poly(1, 2, 4)
    scaled = PeriodicResolutionSpec(spec.shifts, tuple(
        tuple((x, y, c * (half if j == 0 else Fraction(1))) for x, y, c in mu)
        for j, mu in enumerate(spec.multipliers)))
    checked = validate_periodic_spec(T, scaled)
    assert _kinds(c for mu in checked.multipliers for _, _, c in mu) == want
