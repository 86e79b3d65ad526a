"""Exact linear algebra in small dimension: the tests' reference oracles.

`Matrix`, `determinant`, `Subspace`, `intersect` and `wedge_normalize`
are the slow routes the tests check the package's kernels against.  No
other module of the package imports this one; it stays in `src/` only
because the benchmark's `bench/layers.py` imports or traces its names.
It takes the closed-form determinant `_det_closed` from `moduli`, and
`DegeneracyError`, which `wedge_normalize` raises, from there too.
`wedge` gives the coordinates of v ∧ w for `wedge_normalize` and the tests.

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

from .fields import Field, FieldScalar
from .moduli import DegeneracyError, _det_closed

Vector = tuple[FieldScalar, ...]


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
        return m.field.scalar(1)
    rows, dens = zip(*m.field.form(m.entries))
    return m.field.scalar(_det_closed(rows), prod(dens))


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
        inv = 1 / rows[r][c]
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
    rows = [[*x, *x] for x in a.basis] + [[*y, *(a.field.scalar(0),) * n] for y in b.basis]
    rows, pivots = _rref(rows)
    meet = [r[n:] for r, c in zip(rows, pivots) if c >= n]
    return Subspace(n, tuple(map(tuple, meet)), a.field)


def wedge(v, w):
    """Coordinates of v ∧ w in Λ²F^n, index pairs in lexicographic order;
    the entries may be field scalars or ints."""
    return tuple(v[i] * w[j] - v[j] * w[i] for i, j in combinations(range(len(v)), 2))


def wedge_normalize(v1: Vector, v2: Vector, direction: Vector) -> Vector:
    """The unique u = c·direction with v1 ∧ v2 = v2 ∧ u.

    Raises:
        DegeneracyError: naming the case: v1 ∧ v2 = 0, direction in ⟨v2⟩,
            or no single scalar matching every Λ² coordinate.
    """
    target = wedge(v1, v2)
    if not any(target):
        raise DegeneracyError("v1 and v2 are dependent (v1 wedge v2 = 0)")
    base = wedge(v2, direction)
    if not any(base):
        raise DegeneracyError("direction lies in the span of v2")
    k = next(i for i, x in enumerate(base) if x)
    c = target[k] / base[k]
    if any(t != c * z for t, z in zip(target, base)):
        raise DegeneracyError("no scalar multiple of direction satisfies the wedge identity")
    return tuple(c * d for d in direction)
