"""Exact point maps induced by the Legendrian loops.

Each verified loop acts on framed moduli points.  The cyclic shift
rotates the column tuple.  The sigma1 loop on T36 and the xi loops on
T44 are one rule Φ_k on Gr(k, N), N = k(s+1), at a block offset: sigma1
is Φ_3 at start 1, xi_i is Φ_4 at start i.  Φ_k maps each block
(v_j, …, v_{j+k−1}), j ≡ start (mod k), to (v_{j+1}, u, v_{j+2}, …,
v_{j+k−1}), where u lies in ⟨T⟩, T = (v_{j+2}, …, v_{j+k}), and
satisfies the wedge normalization v_a ∧ v_b = v_b ∧ u for the pair
(v_a, v_b) = (v_j, v_{j+1}).  Start i is start 1 conjugated by the
shift (X_i = SH(i−1) X1 SH(1−i)), but the offset keeps each window's
own columns in its label, pair and degeneracy message.  The
normalization forces u = λ·v_b − v_a, and u ∈ ⟨T⟩ then fixes λ by
Cramer's rule:

    u = λ·v_b − v_a,    λ = det(v_a, T) / det(v_b, T).

Both determinants are taken with `moduli._det_closed` on the int form
the point carries, and `Field.column` gives u in int form, the image's
form: an image builds scalars only if its `columns` are read, and
nothing here tells F_p from ℚ.  The tests check u against the subspace
route of `linalg`, `intersect` then `wedge_normalize`.

Composition is by group words.  On T36 the generators are A (column
shift by one), A2 (shift by two), and B = sigma1 after a shift, so that
pullbacks compose contravariantly.  On T44 the generators are X1, X2,
X3.  Degeneracies (`DegeneracyError` and its two kinds, defined here,
where the loop maps raise them) name the window label and the failing
vector and subspace pair.  They cannot occur on a valid point, and every
image of a valid point is valid, so callers validate once and never
resample.
"""

from __future__ import annotations

import re
from functools import cache

from .moduli import ModuliPoint, T36, T44, _det_closed


class DegeneracyError(Exception):
    """Input is not generic enough for the requested construction."""


class DegenerateNormalization(DegeneracyError):
    """No admissible u satisfies the wedge identity v1 ∧ v2 = v2 ∧ u."""


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
    j %= p.family.n_columns
    return ModuliPoint(p.family, p.field, p.form[j:] + p.form[:j])


def _replacement_vector(p: ModuliPoint, label: str, pair: tuple[int, int],
                        other: tuple[int, ...]):
    """The int form of u = λ·v_b − v_a, λ = det(v_a, T) / det(v_b, T).

    With v_a = A/α, v_b = B/β and T as integer columns T′, all read from
    the point's int form, the ratio is λ = dA·β / (dB·α) for
    dA = det(A, T′), dB = det(B, T′), so u = (dA·B − dB·A) / (dB·α): two
    integer determinants and one denominator, which `Field.column`
    divides out as u is returned.

    Raises:
        DegenerateIntersection: if both determinants vanish or u = 0.
        DegenerateNormalization: if only det(v_b, T) vanishes, so that v_b
            lies in ⟨T⟩ and no u ∈ ⟨T⟩ satisfies v_a ∧ v_b = v_b ∧ u.
    """
    field = p.field
    (ai, bi, *ti), (alpha, *_) = zip(*[p.form[j - 1] for j in (*pair, *other)])
    da = field.reduce(_det_closed([ai, *ti]))
    db = field.reduce(_det_closed([bi, *ti]))
    if db:
        u = field.column([da * y - db * x for x, y in zip(ai, bi)], db * alpha)
        if any(u[0]):
            return u
    elif da:
        raise DegenerateNormalization(f"{label}: v{pair[1]} lies in span{other}")
    why = (f"v{pair[0]} and v{pair[1]} are parallel" if db else
           f"det(v{pair[0]}, T) = det(v{pair[1]}, T) = 0")
    raise DegenerateIntersection(
        f"{label} (pair {pair}, T = columns {other}): {why}",
        label=label, pair=pair, other=other,
    )


@cache
def _blocks(k: int, n: int, start: int):
    """Φ_k at `start` on Gr(k, n): its windows (label, pair, T), block by
    block, and its layout, each entry the column of the point acted on or
    the label of the u filling that slot.  Needs k | n, and k ≤ 4, where
    `_det_closed` stops."""
    windows, layout = [], list(range(1, n + 1))
    for t, j in enumerate(range(start - 1, start - 1 + n, k), start=1):
        a, b, *other = ((j + d) % n + 1 for d in range(k + 1))
        windows.append((f"u{t}", (a, b), tuple(other)))
        layout[a - 1], layout[b - 1] = b, f"u{t}"
    return tuple(windows), tuple(layout)


def _replace(p: ModuliPoint, windows, layout) -> ModuliPoint:
    """The point whose columns follow `layout`: a label takes its window's
    replacement vector, an index the column of p it names."""
    u = {label: _replacement_vector(p, label, pair, other) for label, pair, other in windows}
    form = tuple(u[s] if isinstance(s, str) else p.form[s - 1] for s in layout)
    return ModuliPoint(p.family, p.field, form)


def act_sigma1(p: ModuliPoint) -> ModuliPoint:
    """The sigma1 loop on T36, Φ_3 at start 1:
    (v1..v9) -> (v2,u1,v3, v5,u2,v6, v8,u3,v9)."""
    if p.family is not T36:
        raise ValueError(f"act_sigma1 needs family T36, got {p.family.name}")
    return _replace(p, *_blocks(T36.k, T36.n_columns, 1))


def _xi_blocks(i: int, *points: ModuliPoint):
    """`_blocks` of xi_i, Φ_4 at start i, refusing points off T44 and i
    other than the ints 1, 2, 3 (1.0 and True too, as `braids.Move` does)."""
    for p in points:
        if p.family is not T44:
            raise ValueError(f"act_xi needs family T44, got {p.family.name}")
    if type(i) is not int or i not in (1, 2, 3):
        raise ValueError(f"xi index must be 1, 2 or 3, got {i}")
    return _blocks(T44.k, T44.n_columns, i)


def act_xi(p: ModuliPoint, i: int) -> ModuliPoint:
    """The xi_i loop on T44 (i in {1,2,3}), Φ_4 at start i."""
    return _replace(p, *_xi_blocks(i, p))


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
