"""Exact point maps induced by the Legendrian loops.

Each verified loop acts on framed moduli points.  The cyclic shift
rotates the column tuple; the sigma1 loop on T36 and the xi loops on
T44 replace one column per window by the vector u that lies in ⟨T⟩,
where T is the window's k−1 "other" columns, and satisfies the wedge
normalization v_a ∧ v_b = v_b ∧ u.  The normalization forces
u = λ·v_b − v_a, and u ∈ ⟨T⟩ then fixes λ by Cramer's rule:

    u = λ·v_b − v_a,    λ = det(v_a, T) / det(v_b, T).

Both determinants are taken on ints and u is wrapped in `Fraction` or
`ModP` only as it is returned.  `linalg.intersect` and
`linalg.wedge_normalize` compute the same u from the subspaces; they are
its reference oracle in the tests, and no path here calls them.

Composition is by group words.  On T36 the generators are A (column
shift by one), A2 (shift by two), and B = sigma1 after a shift, so that
pullbacks compose contravariantly.  On T44 the generators are X1, X2,
X3.  Degeneracies name the window label and the failing vector and
subspace pair.  They cannot occur on a valid point, and every image of
a valid point is valid, so callers validate once and never resample.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .fields import ModP
from .linalg import (
    DegeneracyError,
    DegenerateNormalization,
    _cleared,
    _det_closed,
    _modulus,
)
from .moduli import ModuliPoint, T36, T44


class DegenerateIntersection(DegeneracyError):
    """A window's replacement vector is not determined: both determinants
    of the ratio vanish, or v_a and v_b are parallel.  `label`, `pair` and
    `other` name the window; the message also gives the cause."""

    def __init__(self, message: str, *, label: str | None = None,
                 pair: tuple[int, ...] = (), other: tuple[int, ...] = ()):
        super().__init__(message)
        self.label = label
        self.pair = pair
        self.other = other


def act_shift(p: ModuliPoint, j: int) -> ModuliPoint:
    """Rotate columns left by j (mod N): v_1..v_N -> v_{1+j}..v_j."""
    n = p.family.n_columns
    j %= n
    return ModuliPoint(p.family, p.field, p.columns[j:] + p.columns[:j])


def _replacement_vector(p: ModuliPoint, label: str, pair: tuple[int, int],
                        other: tuple[int, ...]):
    """u = λ·v_b − v_a with λ = det(v_a, T) / det(v_b, T), T = other columns.

    With v_a = A/α, v_b = B/β and T cleared to integer columns T′, the
    ratio is λ = dA·β / (dB·α) for dA = det(A, T′), dB = det(B, T′), so
    u = (dA·B − dB·A) / (dB·α): two integer determinants and one
    denominator, wrapped in `Fraction` or `ModP` only as u is returned.

    Raises:
        DegenerateIntersection: if both determinants vanish or u = 0.
        DegenerateNormalization: if only det(v_b, T) vanishes, so that v_b
            lies in ⟨T⟩ and no u ∈ ⟨T⟩ satisfies v_a ∧ v_b = v_b ∧ u.
    """
    mod = _modulus(p.field)
    (ai, bi, *ti), (alpha, *_) = _cleared([p.col(j) for j in (*pair, *other)], mod)
    da, db = _det_closed([ai, *ti]), _det_closed([bi, *ti])
    if mod is not None:
        da, db = da % mod, db % mod
    if db:
        n = [da * y - db * x for x, y in zip(ai, bi)]
        if mod is None:
            u = tuple(Fraction(x, db * alpha) for x in n)
        else:
            inv = pow(db, -1, mod)
            u = tuple(ModP(x * inv, mod) for x in n)
        if any(u):
            return u
    elif da:
        raise DegenerateNormalization(f"{label}: v{pair[1]} lies in span{other}")
    why = (f"v{pair[0]} and v{pair[1]} are parallel" if db else
           f"det(v{pair[0]}, T) = det(v{pair[1]}, T) = 0")
    raise DegenerateIntersection(
        f"{label} (pair {pair}, T = columns {other}): {why}",
        label=label, pair=pair, other=other,
    )


# (label, pair spanning the 2-plane, tuple spanning the other subspace)
_SIGMA1_WINDOWS = (
    ("u1", (1, 2), (3, 4)),
    ("u2", (4, 5), (6, 7)),
    ("u3", (7, 8), (9, 1)),
)


def act_sigma1(p: ModuliPoint) -> ModuliPoint:
    """The sigma1 loop on T36: (v1..v9) -> (v2,u1,v3, v5,u2,v6, v8,u3,v9)
    with u_t the wedge-normalized vector of <v_a,v_b> ∩ <v_c,v_d> per window."""
    if p.family is not T36:
        raise ValueError(f"act_sigma1 needs family T36, got {p.family.name}")
    u = {
        label: _replacement_vector(p, label, pair, other)
        for label, pair, other in _SIGMA1_WINDOWS
    }
    cols = (
        p.col(2), u["u1"], p.col(3),
        p.col(5), u["u2"], p.col(6),
        p.col(8), u["u3"], p.col(9),
    )
    return ModuliPoint(p.family, p.field, cols)


# i -> ((u specs), output layout); "u1"/"u2" mark the replaced columns.
_XI_TABLE = {
    1: (
        (("u1", (1, 2), (3, 4, 5)), ("u2", (5, 6), (7, 8, 1))),
        (2, "u1", 3, 4, 6, "u2", 7, 8),
    ),
    2: (
        (("u1", (2, 3), (4, 5, 6)), ("u2", (6, 7), (8, 1, 2))),
        (1, 3, "u1", 4, 5, 7, "u2", 8),
    ),
    3: (
        (("u1", (3, 4), (5, 6, 7)), ("u2", (7, 8), (1, 2, 3))),
        (1, 2, 4, "u1", 5, 6, 8, "u2"),
    ),
}


def _xi_table(i: int, *points: ModuliPoint):
    """`_XI_TABLE[i]`, refusing points off T44 and i not in {1, 2, 3}."""
    for p in points:
        if p.family is not T44:
            raise ValueError(f"act_xi needs family T44, got {p.family.name}")
    if i not in _XI_TABLE:
        raise ValueError(f"xi index must be 1, 2 or 3, got {i}")
    return _XI_TABLE[i]


def act_xi(p: ModuliPoint, i: int) -> ModuliPoint:
    """The xi_i loop on T44 (i in {1,2,3}); each window replaces one
    column by the wedge-normalized vector of <v_a,v_b> ∩ <v_c,v_d,v_e>."""
    specs, layout = _xi_table(i, p)
    u = {
        label: _replacement_vector(p, label, pair, other)
        for label, pair, other in specs
    }
    cols = tuple(u[slot] if isinstance(slot, str) else p.col(slot) for slot in layout)
    return ModuliPoint(p.family, p.field, cols)


# Generator token -> (family it applies to, its point map).  The maps call
# act_shift/act_sigma1/act_xi through module globals, so patching one reaches
# them.  SH(j), for either family, is matched by `_SHIFT_RE` on a miss.
_TOKENS = {
    "A": (T36, lambda p: act_shift(p, 1)),
    "A2": (T36, lambda p: act_shift(p, 2)),
    "B": (T36, lambda p: act_sigma1(act_shift(p, 1))),
    "S1": (T36, lambda p: act_sigma1(p)),
    "X1": (T44, lambda p: act_xi(p, 1)),
    "X2": (T44, lambda p: act_xi(p, 2)),
    "X3": (T44, lambda p: act_xi(p, 3)),
}
_SHIFT_RE = re.compile(r"^SH\((-?\d+)\)$")

#: A group word is a tuple of generator tokens, applied left to right.
GroupWord = tuple[str, ...]


def _token(tok: str):
    """(family, map) of a token; the family is None for SH(j)."""
    if tok in _TOKENS:
        return _TOKENS[tok]
    m = _SHIFT_RE.match(tok)
    if m is None:
        raise ValueError(f"unknown generator token {tok!r}")
    j = int(m.group(1))
    return None, lambda p: act_shift(p, j)


def parse_group_word(text: str) -> GroupWord:
    """Parse whitespace-separated tokens: the keys of `_TOKENS` or SH(j)."""
    tokens = tuple(text.split())
    for tok in tokens:
        _token(tok)
    return tokens


def act_word(p: ModuliPoint, word) -> ModuliPoint:
    """Apply a group word left to right (the first token acts first).

    Degeneracies are re-raised with the failing prefix position.
    """
    if isinstance(word, str):
        word = parse_group_word(word)
    for pos, tok in enumerate(word, start=1):
        family, act = _token(tok)
        if family is not None and p.family is not family:
            raise ValueError(f"token {tok} applies to {family.name}, point is {p.family.name}")
        try:
            p = act(p)
        except DegeneracyError as exc:
            exc.args = (f"token {pos} ({tok}): {exc}",)
            raise
    return p
