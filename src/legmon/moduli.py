"""Framed moduli points, genericity, Plücker minors, and flag chains.

A `ModuliPoint` is a k×N matrix of exact scalars whose columns
v_1..v_N are the framed vectors representing a point inside Gr(k,N).
Two families are supported:

* ``T36``: k = 3, N = 9, base braid word (σ1σ2)^9 on 3 strands;
* ``T44``: k = 4, N = 8, base braid word (σ1σ2σ3)^8 on 4 strands.

Genericity ("validity") asks that every cyclically consecutive k×k
minor is nonzero; on a valid point every loop action of the family is
defined.  `validate_point` is that predicate, a bool that stops at the
first vanishing minor, and `require_valid` names every vanishing window.
A point is its family, field and int form.  Draws, loop images and ℚ
lifts construct it from a form, unchecked; `ModuliPoint.from_columns`
converts scalars once and refuses entries of another field.  `columns`
are built from the form when first read, and `minors` works on the form
with `_det_closed`, the closed-form determinant up to 4×4.  It and
`wedge` are the package's two kernels on int forms; the loop maps and
the xi check use them as well.
`flags_from_point` rebuilds the chain of complete flags along the base
braid word as column windows, and `validate_bott_samelson` checks the
cyclic adjacency conditions of the open cell on their starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import prod
from random import Random

from .fields import Field, FieldMismatch, FieldScalar, field_from_json, format_scalar


class InvalidPoint(ValueError):
    """A point that fails the validity predicate where validity is required."""


class SamplingExhausted(RuntimeError):
    """Rejection sampling hit its retry bound without a valid point."""

    def __init__(self, family: "Family", seed, attempts: int):
        super().__init__(
            f"no valid {family.name} point found in {attempts} attempts (seed {seed})"
        )
        self.family = family
        self.seed = seed
        self.attempts = attempts


@dataclass(frozen=True)
class Family:
    """One of the two torus-link families, fixing k, N and the base word."""

    name: str
    k: int
    n_columns: int
    torus: tuple[int, int]

    @property
    def base_letters(self) -> tuple[int, ...]:
        return tuple(range(1, self.k)) * self.n_columns

    def base_word(self):
        from .braids import BraidWord

        return BraidWord(self.k, self.base_letters)


T36 = Family("T36", 3, 9, (3, 6))
T44 = Family("T44", 4, 8, (4, 4))
FAMILIES = {"T36": T36, "T44": T44}


def get_family(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; choose from {sorted(FAMILIES)}") from None


@dataclass(frozen=True)
class ModuliPoint:
    """Framed vectors v_1..v_N over one field, as `form`, their int form:
    one `Field.form` (ints, den) pair per column.  The form is canonical
    in each field, so `==` and `hash` compare it.  The constructor takes
    the form unchecked; `from_columns` checks and converts scalars."""

    family: Family
    field: Field
    form: tuple

    @classmethod
    def from_columns(cls, family: Family, field: Field, columns) -> "ModuliPoint":
        """The point of k×N scalar columns, refusing an entry of another field."""
        if len(columns) != family.n_columns:
            raise ValueError(
                f"{family.name} needs {family.n_columns} columns, got {len(columns)}"
            )
        if any(len(c) != family.k for c in columns):
            raise ValueError(f"{family.name} columns must have length {family.k}")
        for j, c in enumerate(columns, start=1):
            for t, x in enumerate(c, start=1):
                if x not in field:
                    raise FieldMismatch(f"column {j} entry {t}: {x!r} is not in {field}")
        return cls(family, field, field.form(columns))

    @cached_property
    def columns(self) -> tuple[tuple[FieldScalar, ...], ...]:
        """The scalar columns, built from the form when first read."""
        scalar = self.field.scalar
        return tuple(tuple(scalar(x, den) for x in ints) for ints, den in self.form)

    def col(self, i: int) -> tuple[FieldScalar, ...]:
        """Column v_i, 1-based and cyclic in i."""
        return self.columns[(i - 1) % self.family.n_columns]


def _det_closed(e):
    """The determinant of a k×k array, k ≤ 4, by its closed form, on ints
    or any ring's elements."""
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


def wedge(v, w):
    """Coordinates of v ∧ w in Λ²F^n, index pairs in lexicographic order;
    the entries may be field scalars or ints."""
    return tuple(v[i] * w[j] - v[j] * w[i] for i, j in combinations(range(len(v)), 2))


def minors(p: ModuliPoint, windows):
    """Yield the minor at each window of k 1-based column indices, lazily:
    `_det_closed` of the columns' carried int form, over their dens."""
    field, form = p.field, p.form
    for w in windows:
        rows, dens = zip(*[form[i - 1] for i in w])
        yield field.scalar(_det_closed(rows), prod(dens))


def _cyclic_minors(p: ModuliPoint):
    """(window, minor) for the N cyclic consecutive k-windows in order,
    as a lazy iterator, so a caller can stop at the first vanishing minor."""
    k, n = p.family.k, p.family.n_columns
    windows = [tuple((start + t) % n + 1 for t in range(k)) for start in range(n)]
    return zip(windows, minors(p, windows))


def validate_point(p: ModuliPoint) -> bool:
    """True iff none of the N cyclic consecutive k×k minors vanishes;
    stops at the first that does."""
    return all(value for _, value in _cyclic_minors(p))


def require_valid(p: ModuliPoint) -> None:
    """Raise `InvalidPoint` naming the vanishing cyclic minors, if any."""
    if not validate_point(p):
        bad = [window for window, value in _cyclic_minors(p) if not value]
        raise InvalidPoint(f"vanishing cyclic minors at {bad}")


def pluecker(p: ModuliPoint, idx) -> FieldScalar:
    """The Plücker coordinate P_idx: the minor at the chosen columns.

    `idx` must be strictly increasing 1-based indices, k of them.
    """
    idx = tuple(idx)
    fam = p.family
    if len(idx) != fam.k:
        raise ValueError(f"need {fam.k} indices for {fam.name}, got {len(idx)}")
    if any(type(i) is not int or not 1 <= i <= fam.n_columns for i in idx):
        raise ValueError(f"indices out of range 1..{fam.n_columns}: {idx}")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError(f"indices must be strictly increasing: {idx}")
    return next(minors(p, (idx,)))


def point_to_json(p: ModuliPoint) -> dict:
    return {
        "family": p.family.name,
        "field": p.field.to_json(),
        "columns": [[format_scalar(x) for x in c] for c in p.columns],
    }


def point_from_json(data: dict) -> ModuliPoint:
    if not isinstance(data, dict):
        raise ValueError("point file must be a JSON object")
    missing = {"family", "field", "columns"} - set(data)
    if missing:
        raise ValueError(f"point file missing keys: {sorted(missing)}")
    if not isinstance(data["family"], str):
        raise ValueError(f"family must be a string, got {data['family']!r}")
    family = get_family(data["family"])
    field = field_from_json(data["field"])
    raw = data["columns"]
    if not isinstance(raw, list) or not all(isinstance(c, list) for c in raw):
        raise ValueError("columns must be a list of lists of scalar strings")
    for j, c in enumerate(raw, start=1):
        for t, x in enumerate(c, start=1):
            if not isinstance(x, str):
                raise ValueError(f"column {j} entry {t}: scalar must be a string, got {x!r}")
    columns = tuple(tuple(field.parse(x) for x in c) for c in raw)
    return ModuliPoint.from_columns(family, field, columns)


def point_dumps(p: ModuliPoint) -> str:
    return json.dumps(point_to_json(p), indent=2) + "\n"


def point_loads(text: str) -> ModuliPoint:
    return point_from_json(json.loads(text))


RETRY_BOUND = 10_000


def random_point(family: Family, field: Field, seed) -> ModuliPoint:
    """A uniformly sampled valid point, deterministic in the seed.

    Entries are drawn uniformly as ints over 1 (`Field.random_int`), all
    k·N of them per draw; the draw is the point's int form, so no scalar
    is built, and it is rejected at its first vanishing cyclic minor
    until the point is valid.  Validity alone makes
    every loop action of the family defined, so downstream actions never
    degenerate at any depth: every loop map is the block rule Φ_k of
    `monodromy` at some start, whose window at block j has
    {v_b} ∪ T = (v_{j+1}, …, v_{j+k}), a cyclically consecutive k-window,
    so the denominator det(v_b, T) of the replacement vector is a nonzero
    cyclic minor, and v_a, v_b = v_j, v_{j+1} are adjacent columns, so
    u = λ·v_b − v_a is nonzero; and the image of a valid point is valid
    again, so the same holds after any word.

    Raises:
        SamplingExhausted: after 10,000 rejected draws.
    """
    rng = Random(seed)
    k, n = family.k, family.n_columns
    for _ in range(RETRY_BOUND):
        form = tuple((tuple(field.random_int(rng) for _ in range(k)), 1) for _ in range(n))
        p = ModuliPoint(family, field, form)
        if validate_point(p):
            return p
    raise SamplingExhausted(family, seed, RETRY_BOUND)


@dataclass(frozen=True)
class FlagTuple:
    """l(β) complete flags of F^k as column windows: flag m holds, for
    each level d = 1..k-1, the start j (0-based, mod N = `n_columns`) of
    the window v_{j+1}..v_{j+d} that spans its d-dimensional subspace."""

    ambient: int
    n_columns: int
    flags: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.flags)


def flags_from_point(p: ModuliPoint) -> FlagTuple:
    """Rebuild the flag chain along the family's base braid word.

    Flag m (1-based, m = 1..(k-1)N) has its level-d subspace spanned by
    the d consecutive columns starting at v_{j+1} with window start
    j = (m-d) // (k-1) mod N.  For k = 3 this is the scheme
    V(1)_{2i-1} = V(1)_{2i} = <v_i>, V(2)_{2i} = V(2)_{2i+1} = <v_i, v_{i+1}>;
    level d moves one column on exactly at the crossings of σ_d in the
    base word.

    Raises:
        InvalidPoint: if some cyclic consecutive minor vanishes.
    """
    require_valid(p)
    k, n = p.family.k, p.family.n_columns
    return FlagTuple(k, n, tuple(
        tuple((m - d) // (k - 1) % n for d in range(1, k))
        for m in range(1, (k - 1) * n + 1)
    ))


def validate_bott_samelson(f: FlagTuple, w) -> bool:
    """Check the open-cell conditions of the flag chain against a word.

    True iff every flag has k-1 levels, each window inside the next
    level's (start of level d minus start of level d+1 is 0 or 1 mod N),
    and each cyclically adjacent pair (m, m+1) moves level i_{m+1} by one
    column, either way, and keeps every other level (pair (l, 1) reads
    the first letter), which keeps adjacent flags off the fat diagonal.
    Deciding on the starts is exact for the chain of a valid point: each
    union of windows compared is at most k cyclically consecutive
    columns, independent by the nonzero cyclic k-minor containing them,
    so windows span spaces of their own size and equal starts mean equal
    spans.  Any other level change, which only a hand-built `FlagTuple`
    can have, is rejected.

    Raises:
        ValueError: if len(f) != len(w) or w.strands != f.ambient.
    """
    letters = w.letters
    length = len(letters)
    if len(f.flags) != length:
        raise ValueError(
            f"length mismatch: {len(f.flags)} flags vs word of length {length}"
        )
    k, n = f.ambient, f.n_columns
    if w.strands != k:
        raise ValueError(f"strand mismatch: flags in F^{k} vs word on {w.strands} strands")
    for flag in f.flags:
        if len(flag) != k - 1:
            return False
        if any((flag[d] - flag[d + 1]) % n > 1 for d in range(k - 2)):
            return False
    for m in range(length):
        here, there = f.flags[m], f.flags[(m + 1) % length]
        level = letters[(m + 1) % length]  # i_{m+1}, cyclically
        for d in range(1, k):
            moved = (there[d - 1] - here[d - 1]) % n
            if moved not in ((1, n - 1) if d == level else (0,)):
                return False
    return True
