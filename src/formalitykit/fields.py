"""Exact scalars: arbitrary precision rationals and prime fields F_p.

Every computation in this package runs over one of these fields; there is
no floating point anywhere. A field object names the field and maps values
into it; it does no arithmetic of its own.

One scalar convention holds from the moment a value enters: over Q an
integral rational is an int and only a non-integral one a Fraction; over F_p
a scalar is an int in [0, p). `scalar` puts any int or Fraction into that
form. Everything else computes with plain + and * on such scalars and
canonicalises through `scalar`; `linalg` alone drops and reduces the
entries of the matrices it is given.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .errors import InputValidationError
from .record import Record


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


MAX_MODULUS = 2 ** 31


def _check_modulus(p) -> None:
    """Reject anything but a prime p < MAX_MODULUS. The bound comes first,
    so is_prime's trial division takes at most about 23k steps."""
    if type(p) is not int or not 2 <= p < MAX_MODULUS or not is_prime(p):
        raise InputValidationError(f"fp modulus must be a prime below 2^31, got {p!r}")


def _check_scalar(x) -> None:
    # bool is an int subclass, but True is no scalar anyone means to write
    if type(x) is not int and not isinstance(x, Fraction):
        raise InputValidationError(f"a scalar must be an int or a Fraction, got {x!r}")


class Rationals:
    """The rationals: scalars are ints, and Fractions that are not
    integral."""

    characteristic = 0
    name = "rationals"
    zero = 0
    one = 1

    @staticmethod
    def scalar(x):
        """x as a field element, an int wherever x is integral; refuses
        anything but an int or a Fraction."""
        _check_scalar(x)
        return x.numerator if x.denominator == 1 else x

    @staticmethod
    def is_zero(a) -> bool:
        return a == 0

    @staticmethod
    def parse(s: str):
        # exponent notation is refused: Fraction builds 10^e for it
        if "e" in s or "E" in s:
            raise InputValidationError(f"bad rational scalar {s!r}: exponent notation")
        try:
            return Rationals.scalar(Fraction(s.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputValidationError(f"bad rational scalar {s!r}: {exc}") from None

    @staticmethod
    def to_str(a) -> str:
        return str(a)


class PrimeField:
    """The prime field F_p: scalars are ints reduced modulo p."""

    name = "fp"

    def __init__(self, p: int):
        _check_modulus(p)
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def scalar(self, x) -> int:
        """x as a field element: an int mod p, a Fraction a/b as a * b^-1
        mod p. Refuses anything but an int or a Fraction, and a Fraction
        whose denominator p divides."""
        _check_scalar(x)
        if type(x) is int:
            return x % self.p
        if x.denominator % self.p == 0:
            raise InputValidationError(f"scalar {x} has no value in F_{self.p}")
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def parse(self, s: str):
        num, slash, den = s.strip().partition("/")
        try:
            if slash:
                # pow raises ValueError where p divides the denominator
                return int(num) * pow(int(den), -1, self.p) % self.p
            return int(num) % self.p
        except ValueError:
            raise InputValidationError(f"bad F_{self.p} scalar {s!r}") from None

    def to_str(self, a) -> str:
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


RATIONALS = Rationals()


@lru_cache(maxsize=None)
def _prime_field(p: int) -> PrimeField:
    """The one PrimeField per modulus, so that is_prime runs once per p."""
    return PrimeField(p)


class FieldSpec(Record):
    """Serializable choice of ground field: the rationals or F_p."""

    kind: str
    p: Optional[int]

    def __init__(self, kind="rationals", p=None):
        if kind == "rationals":
            if p is not None:
                raise InputValidationError("rationals take no modulus")
        elif kind == "fp":
            _check_modulus(p)
        else:
            raise InputValidationError(f"unknown field kind {kind!r}")
        vars(self).update(kind=kind, p=p)

    def field(self):
        if self.kind == "rationals":
            return RATIONALS
        return _prime_field(self.p)

    def tag(self) -> str:
        return "rationals" if self.kind == "rationals" else f"fp:{self.p}"

    @classmethod
    def parse(cls, tag: str) -> "FieldSpec":
        if not isinstance(tag, str):
            raise InputValidationError(f"field tag must be a string, got {tag!r}")
        tag = tag.strip().lower()
        if tag in ("rationals", "q", "qq"):
            return cls()
        if tag.startswith("fp:"):
            try:
                p = int(tag[3:])
            except ValueError:
                raise InputValidationError(f"bad field tag {tag!r}") from None
            return cls(kind="fp", p=p)
        raise InputValidationError(f"bad field tag {tag!r} (use rationals or fp:P)")


RATIONALS_SPEC = FieldSpec()
