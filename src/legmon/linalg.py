"""Exact linear algebra in small dimension.

`_det_closed` is the closed-form determinant up to 4×4, on ints or any
ring's elements.  `src/` takes every determinant with it, on the int
form a point carries (`ModuliPoint.form`): `moduli.minors` for cyclic
minors and Plücker coordinates, and the loop maps for their replacement
vectors (a ratio of two k×k determinants, k ≤ 4).  `wedge` has one
`src/` caller, `explorer.xi_structural_ok`, which passes it that form.  No
`src/` path calls `Matrix`, `determinant`, `Subspace`, `intersect` or
`wedge_normalize`: the tests use them as the reference oracles for the
minors, the replacement-vector formula, the xi structural check and the
flag chain's column windows, and they stay here only because the
benchmark's `bench/layers.py` imports or traces them.

Subspaces are kept in a canonical reduced echelon form (unit pivots,
pivot columns increasing, pivots the only nonzero entries in their
column), so subspace equality is plain tuple comparison.

`determinant` wraps `_det_closed` of its rows' int form (`Field.form`)
over the product of the row denominators (`Field.scalar`).  The subspace
operations use the scalars' own operators, `ModP` or `Fraction` alike,
so they have one arithmetic path for both fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod

from .fields import Field, FieldScalar, field_inverse

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
    rows, dens = zip(*m.field.form(m.entries))
    return m.field.scalar(_det_closed(rows), prod(dens))


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


def _rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """In-place reduced row echelon form of rows of field scalars, with
    their operators; returns (rows, pivot columns)."""
    pivots: list[int] = []
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field_inverse(rows[r][c])
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


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
        rows = [list(v) for v in vectors if any(v)]
        if not rows:
            return cls(ambient, (), field)
        rows, pivots = _rref(rows)
        return cls(ambient, tuple(tuple(r) for r in rows[: len(pivots)]), field)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Vector) -> bool:
        w = list(v)
        for b in self.basis:
            piv = next(i for i, x in enumerate(b) if x)
            if w[piv]:
                f = w[piv]
                w = [x - f * y for x, y in zip(w, b)]
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
    n = a.ambient
    rows = [[*x, *x] for x in a.basis] + [[*y, *(a.field.zero(),) * n] for y in b.basis]
    rows, pivots = _rref(rows)
    meet = [r[n:] for r, c in zip(rows, pivots) if c >= n]
    return Subspace(n, tuple(map(tuple, meet)), a.field)


def wedge(v: Vector, w: Vector) -> Vector:
    """Coordinates of v ∧ w in Λ²F^n, index pairs in lexicographic order;
    the entries may be field scalars or ints."""
    return tuple(v[i] * w[j] - v[j] * w[i] for i, j in combinations(range(len(v)), 2))


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
