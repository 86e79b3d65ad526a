"""Framed moduli points, genericity, Plücker minors, and flag chains.

A `ModuliPoint` holds the framed vectors v_1..v_N of a point inside
Gr(k, N).  A `Family` is two integers (k, s): the torus link T(k, ks),
whose points lie in Gr(k, N), N = k(s+1), with base braid word
(σ1…σ_{k−1})^N.  `FAMILIES` names the two that points, files and the
CLI take, ``T36`` = (3, 2), N = 9, and ``T44`` = (4, 1), N = 8.

Genericity ("validity") asks that every cyclically consecutive k×k
minor is nonzero; on a valid point every loop action of the family is
defined.  `validate_point` is that predicate, a bool that stops at the
first vanishing minor, and `require_valid` names every vanishing window.
The three failures the CLI exits 3 on live here: `InvalidPoint`,
`SamplingExhausted`, and `DegeneracyError`, which the loop maps of
`monodromy` raise.
A point is its family, field and int form.  Draws, loop images, ℚ
lifts and point JSON construct it from a form, unchecked; point JSON is
the one checked way in from outside, and scalars are outputs only.
`columns` are built from the form when first read, and
`minors` works on the form with `_det_closed`, the closed-form
determinant up to 4×4, which the xi check uses too.  `validate_point`
takes `_det_closed` of each cyclic window's rows of ints and reduces it
in the field, building no scalar.  The loop maps take each window's two
determinants with `cofactors`, the vector c with det(x, *t) = x·c.
`flags_from_point` rebuilds the chain of complete flags along the base
braid word as column windows, and `validate_bott_samelson` checks the
cyclic adjacency conditions of the open cell on their starts.
Point JSON is written from the form and read into it
(`Field.format_column`, `Field.parse_column`), with no scalar on either
side.  `json_dumps` is the package's one indented JSON writer: points,
`flags` and the reports all print its text, which is `json.dumps`' with
indent 2.
"""

from __future__ import annotations

import json
from functools import cached_property
from math import prod
from random import Random

from . import Frozen
from .fields import Field, FieldScalar, field_from_json


class InvalidPoint(ValueError):
    """A point that fails the validity predicate where validity is required."""


class SamplingExhausted(RuntimeError):
    """Rejection sampling hit its retry bound without a valid point."""


class DegeneracyError(Exception):
    """Input is not generic enough for the requested construction."""


class Family(Frozen):
    """The torus link T(k, ks) on Gr(k, N): the fields k and s, and their
    N = `n_columns` and `name`."""

    _fields = ("k", "s")

    def __init__(self, k: int, s: int):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "n_columns", k * (s + 1))
        object.__setattr__(self, "name", f"T{k}{k * s}")


T36 = Family(3, 2)
T44 = Family(4, 1)
FAMILIES = {f.name: f for f in (T36, T44)}


def get_family(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; choose from {sorted(FAMILIES)}") from None


class ModuliPoint(Frozen):
    """Framed vectors v_1..v_N over one field, as `form`, their int form:
    one `Field.form` (ints, den) pair per column.  The form is canonical
    in each field, so `==` and `hash` compare it with the family and the
    field.  The constructor takes the form unchecked; `point_from_json`
    checks entry texts and reads them into it."""

    _fields = ("family", "field", "form")

    def __init__(self, family: Family, field: Field, form: tuple):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "form", form)

    @cached_property
    def columns(self) -> tuple[tuple[FieldScalar, ...], ...]:
        """The scalar columns, built from the form when first read."""
        scalar = self.field.scalar
        return tuple(tuple(scalar(x, den) for x in ints) for ints, den in self.form)


def _check_shape(family: Family, columns) -> None:
    """Refuse columns that are not N columns of length k."""
    if len(columns) != family.n_columns:
        raise ValueError(
            f"{family.name} needs {family.n_columns} columns, got {len(columns)}"
        )
    if any(len(c) != family.k for c in columns):
        raise ValueError(f"{family.name} columns must have length {family.k}")


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


def cofactors(t):
    """The vector c with `_det_closed([x, *t])` = x·c for every x, given
    k−1 rows t of length k, 2 ≤ k ≤ 4: the first row's cofactors, on
    ints or any ring's elements."""
    if len(t) == 1:
        (a, b), = t
        return b, -a
    if len(t) == 2:
        (a, b, c), (d, f, g) = t
        return b * g - c * f, c * d - a * g, a * f - b * d
    # Each 3x3 cofactor expanded along t's first row, over the 2x2 minors
    # m_ij of its last two rows.
    (a, b, c, d), (f, g, h, i), (j, k, l, p) = t
    m01, m02, m03 = f * k - g * j, f * l - h * j, f * p - i * j
    m12, m13, m23 = g * l - h * k, g * p - i * k, h * p - i * l
    return (b * m23 - c * m13 + d * m12, c * m03 - a * m23 - d * m02,
            a * m13 - b * m03 + d * m01, b * m02 - a * m12 - c * m01)


def minors(p: ModuliPoint, windows):
    """Yield the minor at each window of k 1-based column indices, lazily:
    `_det_closed` of the columns' carried int form, over their dens."""
    field, form = p.field, p.form
    for w in windows:
        rows, dens = zip(*[form[i - 1] for i in w])
        yield field.scalar(_det_closed(rows), prod(dens))


def validate_point(p: ModuliPoint) -> bool:
    """True iff none of the N cyclic consecutive k×k minors vanishes;
    stops at the first that does.  Each minor is decided on the form's
    ints: its dens are nonzero, so it vanishes iff `field.reduce` of
    `_det_closed` of the rows does."""
    k, n, reduce = p.family.k, p.family.n_columns, p.field.reduce
    rows = [ints for ints, _ in p.form]
    rows += rows[:k - 1]
    return all(reduce(_det_closed(rows[j:j + k])) for j in range(n))


def require_valid(p: ModuliPoint) -> None:
    """Raise `InvalidPoint` naming the vanishing cyclic minors, if any."""
    if not validate_point(p):
        k, n = p.family.k, p.family.n_columns
        windows = [tuple((start + t) % n + 1 for t in range(k)) for start in range(n)]
        bad = [window for window, value in zip(windows, minors(p, windows)) if not value]
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
    """The point's JSON data, its entry texts written from the form."""
    texts = p.field.format_column
    return {
        "family": p.family.name,
        "field": p.field.to_json(),
        "columns": [texts(ints, den) for ints, den in p.form],
    }


def point_from_json(data: dict) -> ModuliPoint:
    """The point of JSON data, its entry texts read into the form by
    `Field.parse_column`; each refusal is a `ValueError`."""
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
    form = tuple(map(field.parse_column, raw))
    _check_shape(family, raw)
    return ModuliPoint(family, field, form)


def json_dumps(obj) -> str:
    """Exactly `json.dumps(obj, indent=2)` for str-keyed dicts, lists, str,
    int, bool and None; any other type raises `TypeError`.  Within one
    call, a container met again at the same depth is written from the
    text it rendered to the first time: that text is kept from the
    container's second sighting on, so only repeated texts are kept."""
    return _write(obj, 0, set(), {})


_encode = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _write(x, depth: int, seen: set, done: dict) -> str:
    """The text of x at `depth` within one `json_dumps` call, whose
    container sightings `seen` and kept texts `done` are passed down, so
    that the call leaves no reference cycle."""
    if isinstance(x, str):
        return _encode(x)
    if x is None or isinstance(x, bool):
        return _CONSTANTS[x]
    if isinstance(x, int):
        return int.__repr__(x)
    key = id(x), depth
    if key in done:
        return done[key]
    if isinstance(x, dict):  # `_encode` refuses a key that is not a str
        items = [f"{_encode(k)}: {_write(v, depth + 1, seen, done)}" for k, v in x.items()]
        ends = "{}"
    elif isinstance(x, list):
        items, ends = [_write(v, depth + 1, seen, done) for v in x], "[]"
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    inner = "\n" + "  " * (depth + 1)
    text = ends[0] + inner + ("," + inner).join(items) + inner[:-2] + ends[1] if items else ends
    if key in seen:
        done[key] = text
    seen.add(key)
    return text


def point_dumps(p: ModuliPoint) -> str:
    return json_dumps(point_to_json(p)) + "\n"


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
    raise SamplingExhausted(
        f"no valid {family.name} point found in {RETRY_BOUND} attempts (seed {seed})"
    )


class FlagTuple(Frozen):
    """l(β) complete flags of F^k as column windows: flag m holds, for
    each level d = 1..k-1, the start j (0-based, mod N = `n_columns`) of
    the window v_{j+1}..v_{j+d} that spans its d-dimensional subspace."""

    _fields = ("ambient", "n_columns", "flags")

    def __init__(self, ambient: int, n_columns: int, flags: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "n_columns", n_columns)
        object.__setattr__(self, "flags", flags)

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
