"""Exact linear algebra in small dimension.

Matrices and subspaces over a single exact field: determinants up to
4×4, which the loop maps compute their replacement vectors from (a
ratio of two k×k determinants, k ≤ 4), and the subspace operations
`Subspace.span`/`contains`, `wedge`, `intersect` and `wedge_normalize`.
`wedge` has one `src/` caller, `explorer.xi_structural_ok`, which passes
it cleared ints.  No `src/` path calls `Subspace`, `intersect` or
`wedge_normalize`: the tests use them as the reference oracles for the
replacement-vector formula, the xi structural check and the flag
chain's column windows, and they stay here only because the
benchmark's `bench/layers.py` `TRACED` table names them.

Subspaces are kept in a canonical reduced echelon form (unit pivots,
pivot columns increasing, pivots the only nonzero entries in their
column), so subspace equality is plain tuple comparison.

`determinant` runs its closed form on ints in both fields: `_cleared`
turns each row into ints over its own denominator, and one `ModP`, or
one `Fraction` over the product of the row denominators, is returned.
Over a prime field `Subspace.span`, `Subspace.contains`, `intersect`
and `wedge` likewise compute on residue values reduced mod p and wrap
`ModP` as they return; over ℚ they use the `Fraction` operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm, prod

from .fields import Field, FieldScalar, ModP, PrimeField, field_inverse

Vector = tuple[FieldScalar, ...]


class DegeneracyError(Exception):
    """Input is not generic enough for the requested construction."""


class DegenerateNormalization(DegeneracyError):
    """No admissible u satisfies the wedge identity v1 ∧ v2 = v2 ∧ u."""


@dataclass(frozen=True)
class Matrix:
    """A dense r×c matrix of scalars over one field, stored by rows."""

    entries: tuple[tuple[FieldScalar, ...], ...]
    field: Field

    def __post_init__(self):
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged rows")

    @classmethod
    def from_columns(cls, columns, field: Field) -> "Matrix":
        cols = [tuple(c) for c in columns]
        if not cols:
            return cls((), field)
        return cls(tuple(zip(*cols, strict=True)), field)

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


def determinant(m: Matrix) -> FieldScalar:
    """Exact determinant of an n×n matrix, n ≤ 4, by its closed form."""
    n = m.nrows
    if n != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    if n > 4:
        raise ValueError(f"determinant of a {n}×{n} matrix: only n ≤ 4 is supported")
    if n == 0:
        return m.field.one()
    p = _modulus(m.field)
    rows, dens = _cleared(m.entries, p)
    det = _det_closed(rows)
    return Fraction(det, prod(dens)) if p is None else ModP(det, p)


def _cleared(vectors, p: int | None) -> tuple[list[list[int]], list[int]]:
    """Each vector v as ints over one denominator d, v = ints / d: over F_p
    the residues' int values and d = 1, over ℚ the numerators scaled to
    d = lcm of v's denominators.  Returns (int vectors, denominators)."""
    if p is not None:
        return [[x.value for x in v] for v in vectors], [1] * len(vectors)
    dens = [lcm(*(x.denominator for x in v)) for v in vectors]
    return [[x.numerator * (d // x.denominator) for x in v]
            for v, d in zip(vectors, dens)], dens


def _det_closed(e):
    n = len(e)
    if n == 1:
        return e[0][0]
    if n == 2:
        return e[0][0] * e[1][1] - e[0][1] * e[1][0]
    if n == 3:
        (a, b, c), (d, f, g), (h, i, j) = e
        return a * (f * j - g * i) - b * (d * j - g * h) + c * (d * i - f * h)
    # Expansion by 2x2 complementary minors (first two rows vs last two).
    (a, b, c, d), (f, g, h, i), (j, k, l, p), (q, r, s, t) = e
    return (
        (a * g - b * f) * (l * t - p * s)
        - (a * h - c * f) * (k * t - p * r)
        + (a * i - d * f) * (k * s - l * r)
        + (b * h - c * g) * (j * t - p * q)
        - (b * i - d * g) * (j * s - l * q)
        + (c * i - d * h) * (j * r - k * q)
    )


def _modulus(field: Field) -> int | None:
    """The prime of a prime field, None for ℚ."""
    return field.p if isinstance(field, PrimeField) else None


def _rref(rows: list[list], p: int | None = None) -> tuple[list[list], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns).

    With a modulus `p` the rows hold ints and every row operation is
    reduced mod p; without one they hold field scalars (`Fraction` or
    `ModP`) and use their operators.
    """
    pivots: list[int] = []
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field_inverse(rows[r][c]) if p is None else pow(rows[r][c], -1, p)
        rows[r] = _reduced([x * inv for x in rows[r]], p)
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = _reduced([x - f * y for x, y in zip(rows[i], rows[r])], p)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _reduced(row: list, p: int | None) -> list:
    return row if p is None else [x % p for x in row]


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of F^n in canonical reduced echelon form.

    `basis` lists the basis vectors (the columns of the canonical n×d
    basis matrix), first pivot topmost.  Construct through `span`; two
    Subspace values are equal iff they are the same subspace.
    """

    ambient: int
    basis: tuple[Vector, ...]
    field: Field

    @classmethod
    def span(cls, vectors, ambient: int, field: Field) -> "Subspace":
        vectors = [tuple(v) for v in vectors]
        if any(len(v) != ambient for v in vectors):
            raise ValueError("spanning vector length differs from ambient dimension")
        p = _modulus(field)
        if p is not None:
            vectors = [[x.value for x in v] for v in vectors]
        rows = [list(v) for v in vectors if any(v)]
        if not rows:
            return cls(ambient, (), field)
        rows, pivots = _rref(rows, p)
        rows = rows[: len(pivots)]
        if p is not None:
            rows = [[ModP(x, p) for x in r] for r in rows]
        return cls(ambient, tuple(tuple(r) for r in rows), field)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Vector) -> bool:
        p = _modulus(self.field)
        w, basis = list(v), self.basis
        if p is not None:
            w = [x.value for x in w]
            basis = [[x.value for x in b] for b in basis]
        for b in basis:
            piv = next(i for i, x in enumerate(b) if x)
            if w[piv]:
                f = w[piv]
                w = _reduced([x - f * y for x, y in zip(w, b)], p)
        return not any(w)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(b) for b in other.basis)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two subspaces of the same ambient space.

    One Zassenhaus elimination: reduce the rows (x | x) for x in a and
    (y | 0) for y in b.  A row whose pivot lies in the right half has a
    zero left half, so its right half lies in a ∩ b, and those right
    halves are the canonical basis of a ∩ b.
    """
    if a.ambient != b.ambient:
        raise ValueError("ambient mismatch")
    if a.field != b.field:
        raise ValueError("field mismatch")
    n, p = a.ambient, _modulus(a.field)
    rows = [[*x, *x] for x in a.basis] + [[*y, *(a.field.zero(),) * n] for y in b.basis]
    if p is not None:
        rows = [[x.value for x in r] for r in rows]
    rows, pivots = _rref(rows, p)
    meet = [r[n:] for r, c in zip(rows, pivots) if c >= n]
    if p is not None:
        meet = [[ModP(x, p) for x in r] for r in meet]
    return Subspace(n, tuple(map(tuple, meet)), a.field)


def wedge(v: Vector, w: Vector) -> Vector:
    """Coordinates of v ∧ w in Λ²F^n, index pairs in lexicographic order."""
    p = v[0].modulus if v and isinstance(v[0], ModP) else None
    if p is not None:
        v, w = [x.value for x in v], [x.value for x in w]
    coords = (v[i] * w[j] - v[j] * w[i] for i, j in combinations(range(len(v)), 2))
    return tuple(coords) if p is None else tuple(ModP(x, p) for x in coords)


def wedge_normalize(v1: Vector, v2: Vector, direction: Vector) -> Vector:
    """The unique u = c·direction with v1 ∧ v2 = v2 ∧ u.

    Raises:
        DegenerateNormalization: if v1 ∧ v2 = 0, if direction lies in
            ⟨v2⟩, or if no single scalar matches every Λ² coordinate.
    """
    target = wedge(v1, v2)
    if not any(target):
        raise DegenerateNormalization("v1 and v2 are dependent (v1 wedge v2 = 0)")
    base = wedge(v2, direction)
    if not any(base):
        raise DegenerateNormalization("direction lies in the span of v2")
    k = next(i for i, x in enumerate(base) if x)
    c = target[k] / base[k]
    if any(t != c * z for t, z in zip(target, base)):
        raise DegenerateNormalization(
            "no scalar multiple of direction satisfies the wedge identity"
        )
    return tuple(c * d for d in direction)
