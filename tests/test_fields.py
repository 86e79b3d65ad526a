"""Exact scalar arithmetic: axioms, inverses, the int form, parsing,
serialization."""

from fractions import Fraction
from math import lcm
from random import Random

import pytest
import sympy

from legmon import fields
from legmon.fields import (
    DEFAULT_PRIME,
    DivisionByZero,
    FieldMismatch,
    ModP,
    PrimeField,
    QQ,
    ScalarParseError,
    default_prime,
    field_from_json,
    field_inverse,
    format_scalar,
    _is_prime,
)
from oracles import random_scalar

ALT_PRIME = 998244353
# The least composite that passes Miller-Rabin to the bases 2..41, and
# the least that passes to the bases 2..37.
PSEUDOPRIME_41 = 3317044064679887385961981
PSEUDOPRIME_37 = 318665857834031151167461
# OEIS A014233: the least strong pseudoprime to each prefix of the bases
# 2, 3, 5, ..., 41 (the prefixes of 7 and 8 bases share theirs, as do
# those of 9, 10 and 11).
A014233 = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 3825123056546413051, PSEUDOPRIME_37, PSEUDOPRIME_41)


def test_inverse_examples():
    assert field_inverse(ModP(2, 7)) == ModP(4, 7)
    assert field_inverse(Fraction(2, 3)) == Fraction(3, 2)
    with pytest.raises(DivisionByZero):
        field_inverse(ModP(0, 7))
    with pytest.raises(DivisionByZero):
        field_inverse(Fraction(0))


def test_modp_arithmetic():
    x, y = ModP(5, 7), ModP(4, 7)
    assert x + y == ModP(2, 7)
    assert x - y == ModP(1, 7)
    assert x * y == ModP(6, 7)
    assert x / y == x * field_inverse(y)
    assert -x == ModP(2, 7)
    assert x**3 == ModP(6, 7)
    assert x + 10 == ModP(1, 7)
    assert 1 - x == ModP(3, 7)
    assert bool(ModP(0, 7)) is False and bool(x) is True


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        ModP(1, 7) + ModP(1, 11)


def test_modulus_must_be_prime():
    with pytest.raises(ValueError):
        PrimeField(91)  # 7 * 13
    PrimeField(DEFAULT_PRIME)
    PrimeField(ALT_PRIME)
    # At and above the bound of the Miller-Rabin test, even a prime.
    for p in (PSEUDOPRIME_41, PSEUDOPRIME_41 + 2, 2**89 - 1):
        with pytest.raises(ValueError, match=str(PSEUDOPRIME_41)):
            PrimeField(p)


def test_is_prime_matches_sympy():
    assert all(_is_prime(n) == sympy.isprime(n) for n in range(-2, 10**4))
    large_primes = [2**61 - 1, sympy.prevprime(PSEUDOPRIME_41),
                    sympy.nextprime(PSEUDOPRIME_37)]
    for p in large_primes:
        assert _is_prime(p)
        assert PrimeField(p).p == p
    # Strong pseudoprimes to ever longer prefixes of the bases 2, 3, 5, ...:
    # at each prefix's least one `_is_prime` takes one more base, and just
    # below it the prefix alone decides.
    for bound in A014233:
        assert not sympy.isprime(bound)
        if bound < PSEUDOPRIME_41:
            assert not _is_prime(bound)
        assert _is_prime(sympy.prevprime(bound))


def test_is_prime_takes_only_the_bases_its_bound_needs(monkeypatch):
    bases = []

    def counting_pow(a, d, n=None):
        bases.append(a)
        return pow(a, d, n)

    # Just below 2047 the base 2 decides, just above it 2 and 3; below
    # 3215031751 the bases 2..7, below 3825123056546413051 the bases 2..23.
    monkeypatch.setattr(fields, "pow", counting_pow, raising=False)
    for n, count in ((2039, 1), (2053, 2), (DEFAULT_PRIME, 4), (2**61 - 1, 9)):
        bases.clear()
        assert _is_prime(n)
        assert bases == [2, 3, 5, 7, 11, 13, 17, 19, 23][:count]


@pytest.mark.parametrize("field", [QQ, PrimeField(DEFAULT_PRIME), PrimeField(ALT_PRIME)])
def test_field_axioms_randomized(field):
    rng = Random(20240814)
    zero, one = field.zero(), field.one()
    for _ in range(2000):
        a = random_scalar(field, rng)
        b = random_scalar(field, rng)
        c = random_scalar(field, rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a
        assert a + (-a) == zero
        if b != zero:
            assert b * field_inverse(b) == one


def _rational(rng):
    den = rng.choice((1, 2, 9, rng.randint(1, 10**25)))
    return Fraction(rng.randint(-10**30, 10**30), den)


@pytest.mark.parametrize(
    "field",
    [PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(DEFAULT_PRIME), QQ],
    ids=["F2", "F3", "F7", "Fp", "Q"],
)
def test_int_form_round_trip(field):
    rng = Random(31)
    draw = _rational if field is QQ else (lambda rng: random_scalar(field, rng))
    vectors = [tuple(draw(rng) for _ in range(rng.randint(0, 5))) for _ in range(200)]
    vectors += [(field.zero(),) * n for n in (1, 4)]
    vectors += [(field.one(), -field.one(), field.zero())]
    forms = field.form(vectors)
    assert len(forms) == len(vectors)
    for v, form in zip(vectors, forms):
        row, den = form
        assert type(row) is tuple and all(type(x) is int for x in row)
        if field is QQ:
            assert den == lcm(*(x.denominator for x in v))
        else:
            assert den == 1 and all(0 <= x < field.p for x in row)
        w = tuple(field.scalar(x, den) for x in row)
        assert w == v and all(type(x) is type(field.zero()) for x in w)
        # `column` returns the int form that `form` gives, from any
        # multiple of it, a negative denominator included.
        assert field.column(row, den) == form
        m = rng.choice((-1, -5, 11))
        assert field.column([x * m for x in row], den * m) == form
    for _ in range(500):
        x = rng.randint(-10**40, 10**40)
        d = rng.choice((1, 2, 3, 7, rng.randint(1, 10**30)))
        if field is QQ:
            assert field.scalar(x, d) == Fraction(x) / d
            assert field.reduce(x) == x
        else:
            p = field.p
            if d % p:
                assert field.scalar(x, d) == ModP(x, p) / ModP(d, p)
            assert field.scalar(x) == ModP(x, p)
            assert field.reduce(x) == x % p
        if field is QQ or d % field.p:
            assert field.column([x, 0], d) == field.form([(field.scalar(x, d), field.zero())])[0]
    zero_den = 0 if field is QQ else field.p
    with pytest.raises(ZeroDivisionError):
        field.scalar(1, zero_den)
    with pytest.raises(ZeroDivisionError):
        field.column([1, 2], zero_den)


def test_scalar_serialization_round_trip():
    assert format_scalar(Fraction(-3, 4)) == "-3/4"
    assert format_scalar(Fraction(5)) == "5/1"
    assert format_scalar(ModP(12, 7)) == "5 mod 7"
    assert QQ.parse("-3/4") == Fraction(-3, 4)
    assert QQ.parse("7") == Fraction(7)
    f7 = PrimeField(7)
    assert f7.parse("5 mod 7") == ModP(5, 7)
    assert f7.parse("-2") == ModP(5, 7)
    rng = Random(1)
    for field in (QQ, f7, PrimeField(DEFAULT_PRIME)):
        for _ in range(50):
            x = random_scalar(field, rng)
            assert field.parse(format_scalar(x)) == x


def test_scalar_parse_errors():
    with pytest.raises(ScalarParseError):
        QQ.parse("1.5")
    with pytest.raises(ScalarParseError):
        QQ.parse("3/0")
    with pytest.raises(ScalarParseError):
        PrimeField(7).parse("5 mod 11")
    with pytest.raises(ScalarParseError):
        PrimeField(7).parse("x")
    # `int` reads the digits of every script, so only the patterns keep
    # scalar strings to ASCII.
    for field, text in (
        (QQ, "\u0663/\u0664"),  # ARABIC-INDIC DIGITS THREE, FOUR
        (QQ, "1/\u0664"),
        (QQ, "-\uff13"),  # FULLWIDTH DIGIT THREE
        (PrimeField(7), "\uff13"),
        (PrimeField(7), "5 mod \u0667"),  # ARABIC-INDIC DIGIT SEVEN
        (PrimeField(7), "\u09e9 mod 7"),  # BENGALI DIGIT THREE
    ):
        with pytest.raises(ScalarParseError):
            field.parse(text)


def test_field_json_round_trip():
    for field in (QQ, PrimeField(DEFAULT_PRIME)):
        assert field_from_json(field.to_json()) == field
    with pytest.raises(ValueError):
        field_from_json({"kind": "real"})
    with pytest.raises(ValueError):
        field_from_json({"kind": "fp"})


def test_default_prime_env(monkeypatch):
    monkeypatch.delenv("LEGMON_PRIME", raising=False)
    assert default_prime() == DEFAULT_PRIME
    monkeypatch.setenv("LEGMON_PRIME", str(ALT_PRIME))
    assert default_prime() == ALT_PRIME
