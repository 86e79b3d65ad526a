"""Exact scalar arithmetic over the rationals and over prime fields.

Every identity this package checks is checked exactly, so there is no
floating point anywhere.  Rational scalars are `fractions.Fraction`
values (arbitrary precision, always in lowest terms with a positive
denominator); `fractions` is imported when the first one is built or
tested for, so work over F_p alone never loads it.  Prime-field
scalars are `ModP` residues that carry their modulus.  A `RationalField`
or `PrimeField` object bundles construction, parsing and sampling for
one field, so matrices and points can stay field-agnostic.

`ModP` and `Fraction` are the public scalars: a point's `columns`,
Plücker values and subspace bases carry them, and each inverts one
way, `ModP` by `x ** -1` (which `/` calls) and `Fraction` by its own `/`.
Each field object also owns the int form of its scalars, which points
carry and the kernels compute on: `form` turns vectors into one
(ints, den) pair each (residue values over 1 over F_p; over ℚ
numerators scaled to the lcm of the denominators, the one form with
gcd(den, *ints) = 1 and den > 0), `reduce` maps an int result into
the field's range (mod p, or unchanged), `scalar` wraps one int over a
denominator back into a scalar, `column` brings ints over any
denominator into int form, and `random_int` draws an int entry.
No other module tells the two int forms apart.
`PrimeField` refuses a modulus at or above the bound below which its
Miller-Rabin test is deterministic.  `prime_field(p)` is F_p built once
per modulus in a process: point files, the CLI and LEGMON_PRIME get
their field there, so the test runs once per modulus.

Serialization: an entry is written ``"a/b"`` in lowest terms with an
explicit denominator, or ``"v mod p"``, by one rule per field, which
`format_scalar` applies to a scalar and `format_column` to an int-form
column (ints, den); point JSON is written from the int form that way.
Each field's `parse_column` reads a column of texts straight into int
form; no text is read into a scalar.  `ascii_int` reads the CLI's
integer flags, `--base` letters, `--idx` indices and LEGMON_PRIME.

Errors are the builtin ones, with their facts in the message: a string
outside the grammar, a zero denominator, a residue that declares
another modulus and residues of two moduli in one expression raise
`ValueError`; a zero divisor raises `ZeroDivisionError` in both fields,
as `Fraction` does.
"""

from __future__ import annotations

import os
import re
from bisect import bisect_right
from functools import cache
from math import gcd, lcm
from random import Random

from . import Frozen

DEFAULT_PRIME = 2147483647  # 2^31 - 1, fits in one machine word with room to multiply


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
                raise ValueError(f"mixed moduli {self.modulus} and {other.modulus}")
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
        return self * o ** -1

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self ** -1

    def __neg__(self):
        return ModP(-self.value, self.modulus)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        try:
            return ModP(pow(self.value, n, self.modulus), self.modulus)
        except ValueError as exc:  # negative exponent of a zero residue
            raise ZeroDivisionError(str(exc)) from None

    def __eq__(self, other):
        if isinstance(other, ModP):
            return self.modulus == other.modulus and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((ModP, self.value, self.modulus))

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return _residue_text(self.value, self.modulus)

    def __repr__(self):
        return f"ModP({self.value}, {self.modulus})"


#: A scalar of either supported field (an annotation).
FieldScalar = "Fraction | ModP"


def _fraction_class() -> type:
    """`fractions.Fraction`, imported on first use and bound as this
    module's `Fraction` in place of the stub below, so that a process that
    builds no rational scalar never loads `fractions`."""
    global Fraction
    if not isinstance(Fraction, type):  # still the stub
        from fractions import Fraction
    return Fraction


def Fraction(*args):
    """`fractions.Fraction(*args)`; only the first call runs this stub."""
    return _fraction_class()(*args)


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


# ASCII digits only: `\d` would also match other scripts' digits, which `int`
# reads; and, by `re.ASCII`, ASCII whitespace (" \t\n\r\f\v") only around them.
_RATIONAL_RE = re.compile(r"^\s*(-?[0-9]+)\s*(?:/\s*([0-9]+)\s*)?$", re.ASCII)
_RESIDUE_RE = re.compile(r"^\s*(-?[0-9]+)\s*(?:mod\s+([0-9]+)\s*)?$", re.ASCII)


def _rational_text(a: int, b: int) -> str:
    """The text of a / b, b > 0: ``"a/b"`` in lowest terms."""
    g = gcd(a, b)
    return f"{a // g}/{b // g}"


def _residue_text(v: int, p: int) -> str:
    """The text of the residue v in [0, p): ``"v mod p"``."""
    return f"{v} mod {p}"


def ascii_int(text: str) -> int:
    """The int of `text`: ASCII digits after an optional minus, and nothing
    else (`int` also reads other scripts' digits, underscores, a plus sign
    and surrounding whitespace).  Refused text raises `ValueError`, "not
    ASCII digits" if it is not ASCII and in `int`'s wording otherwise."""
    if not text.isascii():
        raise ValueError("not ASCII digits")
    if not text.removeprefix("-").isdigit():  # on ASCII text, `isdigit` means 0-9
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


class RationalField(Frozen):
    """The field of rational numbers."""

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

    def format_column(self, ints, den: int) -> list[str]:
        """The entry texts of the int-form column ints / den."""
        return [_rational_text(x, den) for x in ints]

    def _ratio(self, text: str) -> tuple[int, int]:
        """The (numerator, denominator) that `text` spells, as written."""
        m = _RATIONAL_RE.match(text)
        if not m:
            raise ValueError(f"not a rational scalar: {text!r}")
        num, den = m.group(1), m.group(2)
        if den is None:
            return int(num), 1
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return int(num), int(den)

    def parse_column(self, texts) -> tuple[tuple[int, ...], int]:
        """The int form of the column whose entries `texts` spell."""
        ratios = [self._ratio(t) for t in texts]
        den = lcm(*(b for _, b in ratios))
        return self.column([a * (den // b) for a, b in ratios], den)

    def to_json(self) -> dict:
        return {"kind": "q"}


class PrimeField(Frozen):
    """The field of integers modulo a prime ``p``."""

    _fields = ("p",)

    def __init__(self, p: int):
        if p >= _PRIMALITY_BOUND:
            raise ValueError(
                f"modulus {p} is too large: primality is certified only below {_PRIMALITY_BOUND}"
            )
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        object.__setattr__(self, "p", p)

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

    def format_column(self, ints, den: int) -> list[str]:
        """The entry texts of the int-form column (ints, den); den is 1
        in this field's form."""
        p = self.p
        return [_residue_text(x, p) for x in ints]

    def _inverse(self, den: int) -> int:
        if den % self.p == 0:
            raise ZeroDivisionError(f"inverse of {den} mod {self.p}")
        return pow(den, -1, self.p)

    def _residue(self, text: str) -> int:
        """The residue value in [0, p) that `text` spells."""
        m = _RESIDUE_RE.match(text)
        if not m:
            raise ValueError(f"not a residue scalar: {text!r}")
        value, modulus = m.group(1), m.group(2)
        if modulus is not None and int(modulus) != self.p:
            raise ValueError(f"residue {text!r} declares modulus {modulus}, field has {self.p}")
        return int(value) % self.p

    def parse_column(self, texts) -> tuple[tuple[int, ...], int]:
        """The int form of the column whose entries `texts` spell."""
        return tuple(map(self._residue, texts)), 1

    def to_json(self) -> dict:
        return {"kind": "fp", "p": self.p}


#: A handle for one of the two supported fields.
Field = RationalField | PrimeField

QQ = RationalField()


def format_scalar(x: FieldScalar) -> str:
    """Serialize a scalar as ``"a/b"`` or ``"v mod p"``."""
    if isinstance(x, ModP):
        return str(x)
    if isinstance(x, _fraction_class()):
        return _rational_text(x.numerator, x.denominator)
    raise TypeError(f"not a field scalar: {x!r}")


@cache
def prime_field(p: int) -> PrimeField:
    """F_p, built once per modulus in a process, so its modulus is tested
    for primality once.  `p` must be an int, not a bool."""
    return PrimeField(p)


def field_from_json(data: dict) -> Field:
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError(f"malformed field descriptor: {data!r}")
    if data["kind"] == "q":
        return QQ
    if data["kind"] == "fp":
        if type(data.get("p")) is not int:  # bool is an int subclass
            raise ValueError(f"prime field descriptor needs an integer p: {data!r}")
        return prime_field(data["p"])
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
        return prime_field(ascii_int(raw)).p
    except ValueError as exc:
        raise ValueError(f"LEGMON_PRIME={raw!r}: {exc}") from None
