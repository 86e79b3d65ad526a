"""Exact point maps induced by the Legendrian loops.

Each verified loop acts on framed moduli points.  The cyclic shift
rotates the column tuple.  The sigma1 loop on T36 and the xi loops on
T44 are one rule Φ_k on Gr(k, N), N = k(s+1), at a block offset: sigma1
is Φ_3 at start 1, xi_i is Φ_4 at start i.  Φ_k maps each block
(v_j, …, v_{j+k−1}), j ≡ start (mod k), to (v_{j+1}, u, v_{j+2}, …,
v_{j+k−1}), where u lies in ⟨T⟩, T = (v_{j+2}, …, v_{j+k}), and
satisfies the wedge normalization v_a ∧ v_b = v_b ∧ u for the pair
(v_a, v_b) = (v_j, v_{j+1}): a window (label, (a, b), T) is all the
block needs, as its image is v_b in column a and u in column b.  Start
i is start 1 conjugated by the shift (X_i = SH(i−1) X1 SH(1−i)), but
the offset keeps each window's own columns in its label, pair and
degeneracy message.  The normalization forces u = λ·v_b − v_a, and
u ∈ ⟨T⟩ then fixes λ by Cramer's rule:

    u = λ·v_b − v_a,    λ = det(v_a, T) / det(v_b, T).

Both determinants are dot products with one vector, `moduli.cofactors`
of T on the point's int form, and `Field.column` gives u in int form,
the image's form: an image builds scalars only if its `columns` are
read, and nothing here tells F_p from ℚ.  The tests check u against the
subspace route of `linalg`, `intersect` then `wedge_normalize`.

Composition is by group words.  On T36 the generators are A (column
shift by one), A2 (shift by two), and B = sigma1 after a shift, so that
pullbacks compose contravariantly.  On T44 the generators are X1, X2,
X3.  A degeneracy is a `DegeneracyError`, which the loop maps raise; it
is defined in `moduli`, beside the other failures the CLI exits 3 on,
and `monodromy.DegeneracyError` names the same class.  Its message names
the window label, its pair and T, and the cause.  It cannot occur on a
valid point, and every image of a valid point is valid, so callers
validate once and never resample.

`column_sources(tok, n)` derives from a token's `_TOKENS` entry, a
shift and at most one Φ_k, the column of q that each column of tok(q)
copies: all but the u columns, each the very (ints, den) pair of its
source.  A minor of tok(q) on copied columns is thus the minor of q at
their sources, in order, without building tok(q); that skips no
degeneracy, as validity is the gate and valid images never degenerate.
"""

from __future__ import annotations

import re
from functools import cache
from operator import mul

from .moduli import DegeneracyError, ModuliPoint, T36, T44, cofactors


def act_shift(p: ModuliPoint, j: int) -> ModuliPoint:
    """Rotate columns left by j (mod N): v_1..v_N -> v_{1+j}..v_j."""
    j %= p.family.n_columns
    return ModuliPoint(p.family, p.field, p.form[j:] + p.form[:j])


def _replacement_vector(p: ModuliPoint, label: str, pair: tuple[int, int],
                        other: tuple[int, ...]):
    """The int form of u = λ·v_b − v_a, λ = det(v_a, T) / det(v_b, T).

    With v_a = A/α, v_b = B/β and T as integer columns T′, all read from
    the point's int form, the ratio is λ = dA·β / (dB·α) for
    dA = det(A, T′), dB = det(B, T′), so u = (dA·B − dB·A) / (dB·α).
    Both determinants are dot products with one cofactor vector of T′,
    and `Field.column` divides the one denominator out as u is returned.

    Raises:
        DegeneracyError: "{label} (pair {pair}, T = columns {other}): "
            and the cause: v_a and v_b are parallel (u = 0), v_b lies in
            the span of T (only det(v_b, T) vanishes, so no u ∈ ⟨T⟩
            satisfies v_a ∧ v_b = v_b ∧ u), or both determinants vanish.
    """
    field, form = p.field, p.form
    (ai, alpha), (bi, _) = form[pair[0] - 1], form[pair[1] - 1]
    c = cofactors([form[j - 1][0] for j in other])
    da = field.reduce(sum(map(mul, ai, c)))
    db = field.reduce(sum(map(mul, bi, c)))
    if db:
        u = field.column([da * y - db * x for x, y in zip(ai, bi)], db * alpha)
        if any(u[0]):
            return u
    a, b = pair
    why = (f"v{a} and v{b} are parallel" if db else
           f"v{b} lies in the span of T" if da else
           f"det(v{a}, T) = det(v{b}, T) = 0")
    raise DegeneracyError(f"{label} (pair {pair}, T = columns {other}): {why}")


@cache
def _blocks(k: int, n: int, start: int):
    """The windows (label, pair, T) of Φ_k at `start` on Gr(k, n), block
    by block.  Keyed by ints: a `Family` hashes in Python.  Needs k | n,
    as N = k(s+1) of every family, and 2 ≤ k ≤ 4, where `cofactors`
    stops."""
    windows = []
    for t, j in enumerate(range(start - 1, start - 1 + n, k), start=1):
        a, b, *other = ((j + d) % n + 1 for d in range(k + 1))
        windows.append((f"u{t}", (a, b), tuple(other)))
    return tuple(windows)


def _replace(p: ModuliPoint, windows) -> ModuliPoint:
    """p with, window by window, v_b in column a and the window's
    replacement vector u in column b of its pair (v_a, v_b)."""
    form = list(p.form)
    for label, (a, b), other in windows:
        form[a - 1] = p.form[b - 1]
        form[b - 1] = _replacement_vector(p, label, (a, b), other)
    return ModuliPoint(p.family, p.field, tuple(form))


def act_sigma1(p: ModuliPoint) -> ModuliPoint:
    """The sigma1 loop on T36, Φ_3 at start 1:
    (v1..v9) -> (v2,u1,v3, v5,u2,v6, v8,u3,v9)."""
    if p.family is not T36:
        raise ValueError(f"act_sigma1 needs family T36, got {p.family.name}")
    return _replace(p, _blocks(T36.k, T36.n_columns, 1))


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
    return _replace(p, _xi_blocks(i, p))


# Generator token -> (family it applies to, shift j, Φ_k start or None).
# act_word shifts by j, then calls act_sigma1 or act_xi through module
# globals, so patching one reaches them.  SH(j) matches `_SHIFT_RE`.
_TOKENS = {
    "A": (T36, 1, None), "A2": (T36, 2, None), "B": (T36, 1, 1), "S1": (T36, 0, 1),
    "X1": (T44, 0, 1), "X2": (T44, 0, 2), "X3": (T44, 0, 3),
}
_SHIFT_RE = re.compile(r"SH\((-?[0-9]+)\)")  # ASCII: `int` reads every script's digits

#: A group word is a tuple of generator tokens, applied left to right.
GroupWord = tuple[str, ...]


def _token(tok: str):
    """(family, shift, loop start) of a token; the family is None for SH(j)."""
    if tok in _TOKENS:
        return _TOKENS[tok]
    m = _SHIFT_RE.fullmatch(tok)
    if m is None:
        raise ValueError(f"unknown generator token {tok!r}")
    return None, int(m.group(1)), None


def column_sources(tok: str, n: int) -> tuple[int | None, ...]:
    """For each column of tok(q) on n columns, the 1-based column of q
    the map copies there, or None where it writes a replacement vector."""
    family, j, start = _token(tok)
    sources = [(c + j) % n + 1 for c in range(n)]
    if start is not None:
        for _, (a, b), _ in _blocks(family.k, n, start):
            sources[a - 1], sources[b - 1] = sources[b - 1], None
    return tuple(sources)


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
        family, j, start = _token(tok)
        if family is not None and p.family is not family:
            raise ValueError(f"token {tok} applies to {family.name}, point is {p.family.name}")
        if j or start is None:  # SH(0) too returns a new point
            p = act_shift(p, j)
        if start is not None:
            try:
                p = act_sigma1(p) if family is T36 else act_xi(p, start)
            except DegeneracyError as exc:
                exc.args = (f"token {pos} ({tok}): {exc}",)
                raise
    return p
