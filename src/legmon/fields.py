"""Exact scalar arithmetic over the rationals and over prime fields.

Every identity this package checks is checked exactly, so there is no
floating point anywhere.  Rational scalars are `fractions.Fraction`
values (arbitrary precision, always in lowest terms with a positive
denominator).  Prime-field scalars are `ModP` residues that carry their
modulus.  A `RationalField` or `PrimeField` object bundles construction,
parsing and sampling for one field, so matrices and points can stay
field-agnostic.

`ModP` and `Fraction` are the public scalars: points, subspace bases,
JSON and every function result carry them.  Each field object also owns
the int form of its scalars, which points carry and the kernels compute
on: `form` turns vectors into one (ints, den) pair each (residue values
over 1 over F_p; over ℚ numerators scaled to the lcm of the
denominators, the one form with gcd(den, *ints) = 1 and den > 0),
`reduce` maps an int result into the field's range (mod p, or
unchanged), `scalar` wraps one int over a denominator back into a
scalar, `column` brings ints over any denominator into int form, and
`random_int` draws an int entry.  `x in field` tells whether x is a
scalar of the field.  No other module tells the two int forms apart.
`PrimeField` refuses a modulus at or above the bound below which its
Miller-Rabin test is deterministic.

Serialization: `format_scalar` renders rationals as ``"a/b"`` with an
explicit denominator and residues as ``"v mod p"``; each field's `parse`
reads them back.
"""

from __future__ import annotations

import os
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from random import Random

DEFAULT_PRIME = 2147483647  # 2^31 - 1, fits in one machine word with room to multiply


class DivisionByZero(ZeroDivisionError):
    """Inversion or division of a zero scalar."""


class FieldMismatch(ValueError):
    """Two scalars from different fields met in one expression."""


class ScalarParseError(ValueError):
    """A scalar string does not conform to the serialization grammar."""


class ModP:
    """A residue modulo a prime, with operator arithmetic.

    Values are normalized into [0, p).  Binary operations accept plain
    ints (reduced mod p) but refuse residues with a different modulus.
    """

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        self.value = value % modulus
        self.modulus = modulus

    def _lift(self, other) -> "ModP | None":
        if isinstance(other, ModP):
            if other.modulus != self.modulus:
                raise FieldMismatch(
                    f"mixed moduli {self.modulus} and {other.modulus}"
                )
            return other
        if isinstance(other, int):
            return ModP(other, self.modulus)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return ModP(self.value + o.value, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return ModP(self.value - o.value, self.modulus)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return ModP(o.value - self.value, self.modulus)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return ModP(self.value * o.value, self.modulus)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * field_inverse(o)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * field_inverse(self)

    def __neg__(self):
        return ModP(-self.value, self.modulus)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        try:
            return ModP(pow(self.value, n, self.modulus), self.modulus)
        except ValueError as exc:  # negative exponent of a zero residue
            raise DivisionByZero(str(exc)) from None

    def __eq__(self, other):
        if isinstance(other, ModP):
            return self.modulus == other.modulus and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((ModP, self.value, self.modulus))

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return f"{self.value} mod {self.modulus}"

    def __repr__(self):
        return f"ModP({self.value}, {self.modulus})"


#: A scalar of either supported field.
FieldScalar = Fraction | ModP


def field_inverse(x: FieldScalar | int) -> FieldScalar:
    """Multiplicative inverse of ``x`` in its own field.

    Raises:
        DivisionByZero: if ``x`` is zero.
    """
    if isinstance(x, ModP):
        if x.value == 0:
            raise DivisionByZero(f"inverse of 0 mod {x.modulus}")
        return ModP(pow(x.value, -1, x.modulus), x.modulus)
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        if x == 0:
            raise DivisionByZero("inverse of rational 0")
        return Fraction(1) / x
    raise TypeError(f"not a field scalar: {x!r}")


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: Entry t − 1 is the least strong pseudoprime to the first t bases of
#: `_SMALL_PRIMES` (OEIS A014233), so those t bases decide every n below
#: it.  The last, 1287836182261 × 2575672364521, bounds `_is_prime`.
_PSEUDOPRIME_BOUNDS = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                       341550071728321, 341550071728321, 3825123056546413051,
                       3825123056546413051, 3825123056546413051,
                       318665857834031151167461, 3317044064679887385961981)
_PRIMALITY_BOUND = _PSEUDOPRIME_BOUNDS[-1]


def _is_prime(n: int) -> bool:
    # Miller-Rabin on the bases that n needs: deterministic for n < _PRIMALITY_BOUND.
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES[:bisect_right(_PSEUDOPRIME_BOUNDS, n) + 1]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ASCII digits only: `\d` would also match other scripts' digits, which `int` reads.
_RATIONAL_RE = re.compile(r"^\s*(-?[0-9]+)\s*(?:/\s*([0-9]+)\s*)?$")
_RESIDUE_RE = re.compile(r"^\s*(-?[0-9]+)\s*(?:mod\s+([0-9]+)\s*)?$")


@dataclass(frozen=True)
class RationalField:
    """The field of rational numbers."""

    kind = "q"

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def random_int(self, rng: Random) -> int:
        # Small integer entries keep determinant heights manageable.
        return rng.randint(-9, 9)

    def form(self, vectors) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Each vector v as its pair (ints, d), d the lcm of v's
        denominators, so that v = ints / d."""
        dens = [lcm(*(x.denominator for x in v)) for v in vectors]
        return tuple((tuple(x.numerator * (d // x.denominator) for x in v), d)
                     for v, d in zip(vectors, dens))

    def reduce(self, x: int) -> int:
        return x

    def scalar(self, x: int, den: int = 1) -> Fraction:
        return Fraction(x, den)

    def column(self, ints, den: int = 1) -> tuple[tuple[int, ...], int]:
        """ints / den in int form: both divided by ±gcd(den, *ints), signed as den ≠ 0."""
        g = den // abs(den) * gcd(den, *ints)
        return tuple(x // g for x in ints), den // g

    def __contains__(self, x) -> bool:
        return type(x) is Fraction

    def parse(self, text: str) -> Fraction:
        m = _RATIONAL_RE.match(text)
        if not m:
            raise ScalarParseError(f"not a rational scalar: {text!r}")
        num, den = m.group(1), m.group(2)
        if den is None:
            return Fraction(int(num))
        if int(den) == 0:
            raise ScalarParseError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))

    def to_json(self) -> dict:
        return {"kind": "q"}


@dataclass(frozen=True)
class PrimeField:
    """The field of integers modulo a prime ``p``."""

    p: int

    kind = "fp"

    def __post_init__(self):
        if self.p >= _PRIMALITY_BOUND:
            raise ValueError(
                f"modulus {self.p} is too large: primality is certified "
                f"only below {_PRIMALITY_BOUND}"
            )
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def zero(self) -> ModP:
        return ModP(0, self.p)

    def one(self) -> ModP:
        return ModP(1, self.p)

    def random_int(self, rng: Random) -> int:
        return rng.randrange(self.p)

    def form(self, vectors) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Each vector as its pair (residue values, 1)."""
        return tuple((tuple(x.value for x in v), 1) for v in vectors)

    def reduce(self, x: int) -> int:
        return x % self.p

    def scalar(self, x: int, den: int = 1) -> ModP:
        """x / den as a residue; den must be nonzero mod p."""
        return ModP(x if den == 1 else x * self._inverse(den), self.p)

    def column(self, ints, den: int = 1) -> tuple[tuple[int, ...], int]:
        """ints / den in int form, with one inversion of den."""
        p, inv = self.p, self._inverse(den)
        return tuple(x * inv % p for x in ints), 1

    def __contains__(self, x) -> bool:
        return type(x) is ModP and x.modulus == self.p

    def _inverse(self, den: int) -> int:
        if den % self.p == 0:
            raise DivisionByZero(f"inverse of {den} mod {self.p}")
        return pow(den, -1, self.p)

    def parse(self, text: str) -> ModP:
        m = _RESIDUE_RE.match(text)
        if not m:
            raise ScalarParseError(f"not a residue scalar: {text!r}")
        value, modulus = m.group(1), m.group(2)
        if modulus is not None and int(modulus) != self.p:
            raise ScalarParseError(
                f"residue {text!r} declares modulus {modulus}, field has {self.p}"
            )
        return ModP(int(value), self.p)

    def to_json(self) -> dict:
        return {"kind": "fp", "p": self.p}


#: A handle for one of the two supported fields.
Field = RationalField | PrimeField

QQ = RationalField()


def format_scalar(x: FieldScalar) -> str:
    """Serialize a scalar as ``"a/b"`` or ``"v mod p"``."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, ModP):
        return str(x)
    raise TypeError(f"not a field scalar: {x!r}")


def field_from_json(data: dict) -> Field:
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError(f"malformed field descriptor: {data!r}")
    if data["kind"] == "q":
        return QQ
    if data["kind"] == "fp":
        if type(data.get("p")) is not int:  # bool is an int subclass
            raise ValueError(f"prime field descriptor needs an integer p: {data!r}")
        return PrimeField(data["p"])
    raise ValueError(f"unknown field kind: {data['kind']!r}")


def default_prime() -> int:
    """Default modulus, overridable via the LEGMON_PRIME environment variable.

    Raises:
        ValueError: naming the variable, if its value is not an admissible
            prime modulus.
    """
    raw = os.environ.get("LEGMON_PRIME")
    if not raw:
        return DEFAULT_PRIME
    try:
        return PrimeField(int(raw)).p
    except ValueError as exc:
        raise ValueError(f"LEGMON_PRIME={raw!r}: {exc}") from None
