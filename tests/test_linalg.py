"""Matrices, subspaces, determinants, intersections, wedge normalization.

Randomized determinant checks use sympy as an independent oracle.  The
determinant's int kernel (prime-field residues, and rationals cleared of
their denominators) is also checked against an elimination run with the
`ModP` and `Fraction` operators, and `intersect` against the
kernel-basis route; those slow routes live in `oracles`.
"""

from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
import sympy

from legmon.fields import ModP, PrimeField, QQ, DEFAULT_PRIME
from legmon.linalg import (
    Matrix,
    Subspace,
    _rref,
    determinant,
    intersect,
    wedge_normalize,
)
from legmon.moduli import wedge
from legmon.monodromy import DegenerateNormalization
from oracles import (
    det_eliminate, from_rows, identity, kernel_basis, kernel_intersect, random_scalar,
    zero_subspace,
)

FP = PrimeField(DEFAULT_PRIME)


def frac(rows):
    return from_rows([[Fraction(x) for x in r] for r in rows], QQ)


def scalar(field, n):
    """The integer n as a scalar of `field`."""
    return Fraction(n) if field is QQ else ModP(n, field.p)


def e(i, n=3):
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def test_determinant_examples():
    assert determinant(identity(3, QQ)) == Fraction(1)
    m = Matrix.from_columns([e(0), e(0), e(2)], QQ)
    assert determinant(m) == Fraction(0)
    m = Matrix.from_columns([e(0), e(1), (Fraction(1), Fraction(1), Fraction(1))], QQ)
    assert determinant(m) == Fraction(1)
    with pytest.raises(ValueError):
        determinant(frac([[1, 2, 3], [4, 5, 6]]))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_determinant_against_sympy(n):
    rng = Random(n)
    for _ in range(25):
        ints = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        expected = int(sympy.Matrix(ints).det())
        m_q = frac(ints)
        assert determinant(m_q) == Fraction(expected)
        m_p = from_rows(
            [[ModP(x, FP.p) for x in row] for row in ints], FP
        )
        assert determinant(m_p) == ModP(expected, FP.p)


@pytest.mark.parametrize("n", [5, 6])
def test_determinant_refuses_n_above_4(n):
    for field in (QQ, FP):
        m = from_rows([[scalar(field, i + j) for j in range(n)] for i in range(n)], field)
        with pytest.raises(ValueError, match="only n ≤ 4"):
            determinant(m)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_det_eliminate_against_sympy(n):
    rng = Random(n)
    for _ in range(25):
        ints = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        expected = int(sympy.Matrix(ints).det())
        assert det_eliminate(frac(ints)) == Fraction(expected)
        m_p = from_rows(
            [[ModP(x, FP.p) for x in row] for row in ints], FP
        )
        assert det_eliminate(m_p) == ModP(expected, FP.p)


def test_determinant_multilinear_and_alternating():
    rng = Random(7)
    for field in (QQ, FP):
        for _ in range(60):
            n = rng.choice((3, 4))
            cols = [
                tuple(random_scalar(field, rng) for _ in range(n)) for _ in range(n)
            ]
            x = tuple(random_scalar(field, rng) for _ in range(n))
            lam = random_scalar(field, rng)
            j = rng.randrange(n)
            base = determinant(Matrix.from_columns(cols, field))
            with_x = list(cols)
            with_x[j] = x
            det_x = determinant(Matrix.from_columns(with_x, field))
            mixed = list(cols)
            mixed[j] = tuple(a + lam * b for a, b in zip(cols[j], x))
            assert determinant(Matrix.from_columns(mixed, field)) == base + lam * det_x
            i = rng.randrange(n)
            if i != j:
                swapped = list(cols)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                assert determinant(Matrix.from_columns(swapped, field)) == -base
                doubled = list(cols)
                doubled[i] = doubled[j]
                assert not determinant(Matrix.from_columns(doubled, field))


def test_kernel_examples():
    assert kernel_basis(identity(3, QQ)).dim == 0
    zero = frac([[0, 0, 0], [0, 0, 0]])
    assert kernel_basis(zero).dim == 3
    line = kernel_basis(frac([[1, 1, 1]]))
    assert line.dim == 2
    for v in line.basis:
        assert sum(v) == 0


def test_kernel_annihilates():
    rng = Random(3)
    for field in (QQ, FP):
        for _ in range(40):
            r, c = rng.randint(1, 4), rng.randint(1, 5)
            m = from_rows(
                [[random_scalar(field, rng) for _ in range(c)] for _ in range(r)],
                field,
            )
            ker = kernel_basis(m)
            for v in ker.basis:
                image = [sum((a * b for a, b in zip(row, v)), field.zero())
                         for row in m.entries]
                assert not any(image)


def test_intersect_examples():
    a = Subspace.span([e(0), e(1)], 3, QQ)
    b = Subspace.span([e(2), (Fraction(1), Fraction(1), Fraction(1))], 3, QQ)
    meet = intersect(a, b)
    assert meet.dim == 1
    assert meet == Subspace.span([(Fraction(1), Fraction(1), Fraction(0))], 3, QQ)
    assert intersect(a, a) == a
    assert intersect(Subspace.span([e(0)], 3, QQ), Subspace.span([e(1)], 3, QQ)).dim == 0
    with pytest.raises(ValueError):
        intersect(a, Subspace.span([e(0, 4)], 4, QQ))


def _random_subspace(rng, field, n):
    d = rng.randint(0, n)
    return Subspace.span(
        [tuple(random_scalar(field, rng) for _ in range(n)) for _ in range(d)], n, field
    )


def test_intersect_properties():
    rng = Random(11)
    for field in (QQ, FP):
        for _ in range(60):
            n = rng.choice((3, 4))
            a = _random_subspace(rng, field, n)
            b = _random_subspace(rng, field, n)
            meet = intersect(a, b)
            assert meet == intersect(b, a)
            assert intersect(a, a) == a
            assert max(a.dim + b.dim - n, 0) <= meet.dim <= min(a.dim, b.dim)
            assert a.contains_subspace(meet) and b.contains_subspace(meet)
            # dimension agrees with the stacked-kernel computation
            if a.dim and b.dim:
                stacked = Matrix.from_columns(a.basis + b.basis, field)
                assert kernel_basis(stacked).dim == meet.dim


@pytest.mark.parametrize(
    "field", [PrimeField(3), PrimeField(7), FP, QQ], ids=["F3", "F7", "Fp", "Q"],
)
def test_intersect_matches_kernel_route(field):
    rng = Random(17)
    for case in range(300):
        n = rng.randint(1, 5)
        # dimensions 0 to n + 1 spanning vectors, some repeated or zero
        vectors = [_vector(rng, field, n) for _ in range(rng.randint(0, n + 1))]
        if vectors and case % 3 == 0:
            vectors = _degenerate_vectors(rng, field, vectors)
        a = Subspace.span(vectors, n, field)
        assert all(isinstance(c, type(field.zero())) for v in a.basis for c in v)
        kind = case % 4
        if kind == 0:  # equal, from another spanning set
            b = Subspace.span(vectors[::-1] + vectors[:1], n, field)
        elif kind == 1:  # nested: b inside a
            b = Subspace.span(vectors[: len(vectors) // 2], n, field)
        else:
            b = _random_subspace(rng, field, n)
        for x, y in ((a, b), (b, a)):
            meet = intersect(x, y)
            assert meet == kernel_intersect(x, y)
            assert all(isinstance(c, type(field.zero())) for v in meet.basis for c in v)
        if kind == 0:
            assert intersect(a, b) == a
        if kind == 1:
            assert intersect(a, b) == b
    for n in (1, 3, 4):
        assert Subspace.span([(field.zero(),) * n] * 2, n, field).dim == 0
    zero = zero_subspace(3, field)
    line = Subspace.span([(field.one(), field.zero(), field.one())], 3, field)
    assert intersect(zero, line) == intersect(line, zero) == zero
    with pytest.raises(ValueError, match="ambient mismatch"):
        intersect(line, zero_subspace(4, field))
    other = QQ if field != QQ else FP
    with pytest.raises(ValueError, match="field mismatch"):
        intersect(line, zero_subspace(3, other))


def test_subspace_canonical_equality():
    two = Fraction(2)
    a = Subspace.span([e(0), e(1)], 3, QQ)
    b = Subspace.span(
        [(two, two, Fraction(0)), (Fraction(1), Fraction(-1), Fraction(0))], 3, QQ
    )
    assert a == b
    assert a.contains((Fraction(5), Fraction(-3), Fraction(0)))
    assert not a.contains(e(2))


def test_wedge_normalize_examples():
    one = Fraction(1)
    assert wedge_normalize(e(0), e(1), (one, one, Fraction(0))) == (
        Fraction(-1),
        Fraction(-1),
        Fraction(0),
    )
    assert wedge_normalize(e(0), e(1), e(0)) == (Fraction(-1), Fraction(0), Fraction(0))
    with pytest.raises(DegenerateNormalization):
        wedge_normalize(e(0), e(1), e(1))  # direction in span(v2)
    with pytest.raises(DegenerateNormalization):
        wedge_normalize(e(0), e(0), e(1))  # v1 wedge v2 = 0
    with pytest.raises(DegenerateNormalization):
        wedge_normalize(e(0), e(1), e(2))  # no scalar matches all coordinates


def test_wedge_normalize_exactness_property():
    rng = Random(5)
    for field in (QQ, FP):
        for _ in range(200):
            n = rng.choice((3, 4))
            v1 = tuple(random_scalar(field, rng) for _ in range(n))
            v2 = tuple(random_scalar(field, rng) for _ in range(n))
            coeffs = (random_scalar(field, rng), random_scalar(field, rng))
            direction = tuple(
                coeffs[0] * a + coeffs[1] * b for a, b in zip(v1, v2)
            )
            try:
                u = wedge_normalize(v1, v2, direction)
            except DegenerateNormalization:
                continue
            assert wedge(v1, v2) == wedge(v2, u)
            assert Subspace.span([direction], n, field).contains(u)


# Differential tests of the kernels against independent routes: each
# prime gets at least 200 random cases per kernel, and every third case
# is forced singular, rank-deficient or otherwise degenerate.
PRIMES = [7, 11, DEFAULT_PRIME]


def _vector(rng, field, n):
    return tuple(random_scalar(field, rng) for _ in range(n))


def _degenerate_vectors(rng, field, vectors):
    """Replace one vector by zero, a repeat, or a combination of the others."""
    vectors = list(vectors)
    t = rng.randrange(len(vectors))
    others = vectors[:t] + vectors[t + 1:]
    kind = rng.randrange(3) if others else 0
    extra = (field.zero(),) * len(vectors[t])
    if kind == 1:
        extra = rng.choice(others)
    elif kind == 2:
        for v in others:
            c = random_scalar(field, rng)
            extra = tuple(x + c * y for x, y in zip(extra, v))
    vectors[t] = extra
    return vectors


@pytest.mark.parametrize("prime", PRIMES)
def test_determinant_int_kernel_differential(prime):
    field = PrimeField(prime)
    rng = Random(prime)
    for case in range(240):
        n = case % 4 + 1
        cols = [_vector(rng, field, n) for _ in range(n)]
        if case % 3 == 0:
            cols = _degenerate_vectors(rng, field, cols)
        m = Matrix.from_columns(cols, field)
        det = determinant(m)
        ints = [[x.value for x in row] for row in m.entries]
        assert det == ModP(int(sympy.Matrix(ints).det()), prime)
        assert det == det_eliminate(m)
        if case % 3 == 0:
            assert not det


def _fraction(rng):
    return Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 4, 7, 9, 12, 25)))


def test_determinant_rational_kernel_differential():
    # The ℚ path clears each row's denominators and divides once; entries
    # with mixed signs and denominators, every third matrix singular.
    rng = Random(2024)
    for case in range(400):
        n = case % 4 + 1
        cols = [tuple(_fraction(rng) for _ in range(n)) for _ in range(n)]
        if case % 3 == 0:
            cols = _degenerate_vectors(rng, QQ, cols)
        m = Matrix.from_columns(cols, QQ)
        det = determinant(m)
        rationals = [[sympy.Rational(x.numerator, x.denominator) for x in row]
                     for row in m.entries]
        expected = sympy.Matrix(rationals).det()
        assert det == Fraction(int(expected.p), int(expected.q))
        assert det == det_eliminate(m)
        if case % 3 == 0:
            assert not det


def _operator_rank(vectors):
    rows = [list(v) for v in vectors if any(v)]
    return len(_rref(rows)[1]) if rows else 0


@pytest.mark.parametrize("prime", PRIMES)
def test_contains_int_kernel_differential(prime):
    field = PrimeField(prime)
    rng = Random(prime + 2)
    inside = 0
    for case in range(240):
        n = rng.randint(1, 5)
        vectors = [_vector(rng, field, n) for _ in range(rng.randint(0, n))]
        v = _vector(rng, field, n)
        if case % 3 == 0:
            v = (field.zero(),) * n
            for u in vectors:
                c = random_scalar(field, rng)
                v = tuple(x + c * y for x, y in zip(v, u))
        span = Subspace.span(vectors, n, field)
        expected = _operator_rank(vectors + [v]) == _operator_rank(vectors)
        assert span.contains(v) == expected
        inside += expected
    assert inside >= 60


@pytest.mark.parametrize("prime", PRIMES)
def test_wedge_int_kernel_differential(prime):
    field = PrimeField(prime)
    rng = Random(prime + 3)
    for case in range(240):
        n = rng.randint(2, 5)
        v = _vector(rng, field, n)
        w = _vector(rng, field, n)
        if case % 3 == 0:
            c = random_scalar(field, rng)
            w = tuple(c * x for x in v)
        expected = tuple(
            v[i] * w[j] - v[j] * w[i] for i, j in combinations(range(n), 2)
        )
        assert wedge(v, w) == expected
        if case % 3 == 0:
            assert not any(wedge(v, w))
