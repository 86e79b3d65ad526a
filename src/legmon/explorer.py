"""Reduced words of Z3 * Z2, relation reports, and separation witnesses.

A group word is a tuple of `monodromy` tokens in every report.  On T36
the loop generators are A (shift by one column), A2 (shift by two) and
B (sigma1 after a shift); a word is reduced when no two adjacent tokens
come from the same free factor, {A, A2} or {B}.  On T44 the xi report's
words are tuples of X1, X2 and X3.  `word_label` spells a word in the
JSON: A, A2 and B as a, a2 and b, every other token as itself, and the
empty word as e.

The observable is Δ = P_147 composed with probe words: a word w is
separated from the identity by exhibiting a probe u and a sampled point
p with Δ(u(w(p))) ≠ Δ(u(p)).  Over a prime field such an inequality is
an exact certificate, and every witness re-verifies over the rationals
by lifting the point entries to integers, so no Schwartz-Zippel caveat
remains.

Within one report call, a memo (`_WordImages`) per sampled point extends
each word's image from its prefix's image by `act_word` of the last
token, so the sweep, its ℚ re-check, the relation checks and the xi
table compute each image they build once, all through the one point
map.  While a word's last token copies every column Δ reads
(`monodromy.column_sources`), Δ is a minor of the image before it, so
the sweep and the relation checks build no image past the prefix where
Δ's pullback first meets a replacement vector.  Probes
are drawn lazily, shortest first, so a search stops at its first
witness without listing the rest of its budget.

Every sigma1 and xi image of a valid point is valid again, so every word
is defined on every sampled point.  Sampling-time validity is the one
degeneracy gate: the reports neither skip nor resample, and a
`DegeneracyError` inside one is a bug that reaches the caller; the maps
that Δ's pullback skips could not have degenerated either.

Every report samples through `_sample_points`, which refuses an empty
sample.  The report functions' signatures hold the only defaults: the
CLI passes just the flags it is given.  Called without a `field`, a
report samples over `DEFAULT_FIELD`, whatever LEGMON_PRIME says.  A
report is its JSON plus one `ok` verdict, the CLI's exit status: each
report function builds the JSON dict as it computes, and `Report` holds
the two.  All reports are deterministic functions of their parameters,
with a fixed key order.  A sweep shares one dict per witness point among
its entries, so `report_dumps` (`moduli.json_dumps`) renders it once.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from functools import cache
from itertools import product
from random import Random

from . import Frozen
from .fields import (
    DEFAULT_PRIME,
    Field,
    FieldScalar,
    PrimeField,
    QQ,
    format_scalar,
    prime_field,
)
from .moduli import (
    ModuliPoint, T36, T44, _det_closed, json_dumps, minors, point_to_json, random_point,
)
from .monodromy import act_word, column_sources
from . import monodromy

_FACTOR = {"A": "rotation", "A2": "rotation", "B": "involution"}
_LABELS = {"A": "a", "A2": "a2", "B": "b"}

DELTA_INDEX = (1, 4, 7)

#: The sample field of every report when none is given.
DEFAULT_FIELD = prime_field(DEFAULT_PRIME)


def reduced_words(max_syllables: int) -> tuple[tuple[str, ...], ...]:
    """All reduced words with at most `max_syllables` tokens, shortest
    first, options in (A, A2, B) order; includes the empty word ()."""
    if max_syllables < 0:
        raise ValueError("max_syllables must be >= 0")
    return tuple(_iter_reduced_words(max_syllables))


def _iter_reduced_words(max_syllables: int) -> Iterator[tuple[str, ...]]:
    """`reduced_words(max_syllables)`, one word at a time.  A reduced word
    of n tokens puts A or A2 in every other slot, from slot 0 or slot 1,
    and B in the slots between; in (A, A2, B) order the words opening
    with a rotation come first."""
    yield ()
    for n in range(1, max_syllables + 1):
        for start in (0, 1):
            for rotations in product(("A", "A2"), repeat=(n + 1 - start) // 2):
                word = ["B"] * n
                word[start::2] = rotations
                yield tuple(word)


def is_reduced(word: tuple[str, ...]) -> bool:
    return all(s in _FACTOR for s in word) and all(
        _FACTOR[x] != _FACTOR[y] for x, y in zip(word, word[1:])
    )


def word_label(word: tuple[str, ...]) -> str:
    """Human/JSON label: `_LABELS` spells the T36 tokens, every other
    token labels itself, and the empty word renders as "e"."""
    return " ".join(_LABELS.get(t, t) for t in word) or "e"


def delta(p: ModuliPoint) -> FieldScalar:
    return next(minors(p, (DELTA_INDEX,)))


def _sample_points(family, field: Field, n_points: int, seed) -> tuple[ModuliPoint, ...]:
    """The sample of every report: n_points valid points drawn from `seed`."""
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    rng = Random(seed)
    return tuple(
        random_point(family, field, rng.randrange(2**62)) for _ in range(n_points)
    )


class _WordImages:
    """Images w(p) of one point p under token words, and their Δ values.
    A nonempty word's image is `act_word` of its prefix's image and its
    last token, computed once, and only where an image or a Δ reads it."""

    def __init__(self, point: ModuliPoint):
        self.point = point
        self._images = {(): point}
        self._values: dict[tuple, FieldScalar] = {}

    def image(self, word: tuple) -> ModuliPoint:
        """word(point), extending the longest prefix already known."""
        n = len(word)
        while n and word[:n] not in self._images:
            n -= 1
        q = self._images[word[:n]]
        for m in range(n, len(word)):
            q = self._images[word[:m + 1]] = act_word(q, word[m:m + 1])
        return q

    def steps(self):
        """(prefix image, last token, image) of each step the memo took."""
        return [(self._images[w[:-1]], w[-1], q) for w, q in self._images.items() if w]

    def value(self, word: tuple) -> FieldScalar:
        """Δ(word(point)), a minor of the shortest prefix image holding it."""
        if word not in self._values:
            n, index, columns = len(word), DELTA_INDEX, self.point.family.n_columns
            while n and (pulled := _pullback(word[n - 1], columns, index)):
                n, index = n - 1, pulled
            self._values[word] = next(minors(self.image(word[:n]), (index,)))
        return self._values[word]


@cache
def _pullback(tok: str, n: int, index: tuple[int, ...]) -> tuple[int, ...] | None:
    """The columns of q that tok(q) copies into its columns `index`, in
    order, or None if tok writes a replacement vector into one of them."""
    pulled = tuple(column_sources(tok, n)[i - 1] for i in index)
    return None if None in pulled else pulled


class SeparationWitness(Frozen):
    """A probe u, a point p, and Δ(u(w(p))) ≠ Δ(u(p)) certifying that w
    acts nontrivially: lhs = Δ(probe(word(point))), rhs = Δ(probe(point))."""

    _fields = ("word", "probe", "point", "lhs", "rhs")

    def __init__(self, word: tuple[str, ...], probe: tuple[str, ...], point: ModuliPoint,
                 lhs: FieldScalar, rhs: FieldScalar):
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "probe", probe)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def to_json(self, point_json=point_to_json) -> dict:
        """The witness's JSON; its point's dict is `point_json(point)`."""
        return {
            "word": word_label(self.word),
            "probe": word_label(self.probe),
            "lhs": format_scalar(self.lhs),
            "rhs": format_scalar(self.rhs),
            "point": point_json(self.point),
        }


def lift_point_to_q(p: ModuliPoint) -> ModuliPoint:
    """Lift a prime-field point to ℚ: its int form is the lift's int form."""
    return p if p.field == QQ else ModuliPoint(p.family, QQ, p.form)


def reverify_witness_q(witness: SeparationWitness, _q: _WordImages | None = None) -> dict:
    """Replay a witness over ℚ on the lifted point.

    A value that is nonzero mod p lifts to a nonzero rational, so a
    prime-field witness always stays a witness: the two rational values
    are distinct and reduce mod p to the stored pair.  `_q` is the memo
    of the lifted point's images; by default, a new one.
    """
    images = _q or _WordImages(lift_point_to_q(witness.point))
    lhs = images.value(witness.word + witness.probe)
    rhs = images.value(witness.probe)
    field = witness.point.field
    consistent = (
        _reduces_to(lhs, witness.lhs, field) and _reduces_to(rhs, witness.rhs, field)
    )
    return {
        "lhs": format_scalar(lhs),
        "rhs": format_scalar(rhs),
        "distinct": lhs != rhs,
        "consistent_with_fp": consistent,
        "ok": lhs != rhs and consistent,
    }


def _reduces_to(x: FieldScalar, r: FieldScalar, field: Field) -> bool:
    """Whether the rational x maps to r in r's `field`."""
    return bool(field.reduce(x.denominator)) and field.scalar(x.numerator, x.denominator) == r


def separate(word: tuple[str, ...], probe_budget: int = 4, n_points: int = 32,
             seed=11, field: Field = DEFAULT_FIELD,
             _memos: list[_WordImages] | None = None) -> SeparationWitness | None:
    """Search for a separation witness for a nonempty reduced word.

    Probes are drawn one at a time, shortest first, and tried on the
    points in sampling order; the first witness found is returned, so
    results are deterministic in the seed.
    Returns None if the budget is exhausted (sound, not complete).
    Δ(u(w(p))) is p's memo's value of the word w + u; a sweep passes its
    per-point memos, `_memos`, to all its calls.
    """
    word = tuple(word)
    if not word:
        raise ValueError("the empty word cannot be separated from the identity")
    if not is_reduced(word):
        raise ValueError(f"word {word!r} is not reduced")
    if probe_budget < 0:
        raise ValueError("probe_budget must be >= 0")
    memos = _memos if _memos is not None else [
        _WordImages(p) for p in _sample_points(T36, field, n_points, seed)]
    for probe in _iter_reduced_words(probe_budget):
        for images in memos:
            lhs = images.value(word + probe)
            rhs = images.value(probe)
            if lhs != rhs:
                return SeparationWitness(word, probe, images.point, lhs, rhs)
    return None


class Report(Frozen):
    """A report's JSON, built as the report computes, and its `ok`
    verdict, the CLI's exit status."""

    _fields = ("json", "ok")
    # Valid points stay valid under every word, so nothing degenerates
    # and no draw is resampled.
    degenerate_evals = 0
    resamples = 0

    def __init__(self, json: dict, ok: bool):
        object.__setattr__(self, "json", json)
        object.__setattr__(self, "ok", ok)


def verify_relations(n_points: int = 32, seed=7, field: Field = DEFAULT_FIELD,
                     probe_budget: int = 2) -> Report:
    """Check the order relations a³ and b² on Δ-probe observables.

    For each sampled point p and probe u: compares Δ(u(a³(p))) with
    Δ(u(p)) and Δ(u(b²(p))) with Δ(u(p)).  a³ is the shift by three
    columns and commutes with every generator window, so its checks pass
    at every probe.  b² fixes no column of p: it equals a³ on columns
    1, 3, 4, 6, 7, 9 and is a nonzero multiple of a³ on columns 2, 5, 8,
    rescaled by ratios of consecutive minors.  Δ = P147 is invariant
    under a³, so only probes whose Δ-pullback avoids the rescaled
    columns (the empty probe, pure b-powers) pass; the report records
    each probe's outcome.
    """
    if probe_budget < 0:
        raise ValueError("probe_budget must be >= 0")
    probes = reduced_words(probe_budget)
    failures = Counter()  # (relation, probe) -> points where the values differ
    for p in _sample_points(T36, field, n_points, seed):
        images = _WordImages(p)
        for u in probes:
            for rel, r in _RELATIONS.items():
                failures[rel, u] += images.value(r + u) != images.value(u)
    checks = [
        {
            "relation": rel,
            "probe": word_label(u),
            "passes": n_points - failures[rel, u],
            "failures": failures[rel, u],
            "all_pass": not failures[rel, u],
        }
        for rel in _RELATIONS
        for u in probes
    ]
    all_pass = all(c["all_pass"] for c in checks)
    return Report({
        "n_points": n_points,
        "seed": seed,
        "probe_budget": probe_budget,
        "field": field.to_json(),
        "resamples": Report.resamples,
        "all_pass": all_pass,
        "checks": checks,
    }, all_pass)


# Relation name -> its word; three single shifts are the shift by three.
_RELATIONS = {"a3": ("A", "A", "A"), "b2": ("B", "B")}


def faithfulness_sweep(max_syllables: int = 6, probe_budget: int = 4,
                       n_points: int = 32, seed=11,
                       field: Field = DEFAULT_FIELD) -> Report:
    """Run separate() on every nontrivial reduced word up to the budget.

    All words share one deterministic point sample and its per-point
    memos of word images, so each word's outcome equals a standalone
    separate() call with the same seed.  Over a prime field, found
    witnesses are re-verified over ℚ, on one memo per lifted point.
    """
    if max_syllables < 1:
        raise ValueError("max_syllables must be >= 1")
    memos = [_WordImages(p) for p in _sample_points(T36, field, n_points, seed)]
    q_memo = cache(lambda p: _WordImages(lift_point_to_q(p)))
    point_json = cache(point_to_json)  # one dict per distinct witness point
    entries = []
    unseparated = []
    for word in reduced_words(max_syllables)[1:]:
        witness = separate(word, probe_budget, _memos=memos)
        entry = {"word": word_label(word), "separated": witness is not None}
        if witness is None:
            unseparated.append(entry["word"])
        else:
            entry["witness"] = witness.to_json(point_json)
            entry["q_reverify"] = None
            if isinstance(field, PrimeField):
                entry["q_reverify"] = reverify_witness_q(witness, _q=q_memo(witness.point))
        entries.append(entry)
    total = len(entries)
    separated = total - len(unseparated)
    q_verified = all(e["q_reverify"]["ok"] for e in entries if e.get("q_reverify"))
    return Report({
        "max_syllables": max_syllables,
        "probe_budget": probe_budget,
        "n_points": n_points,
        "seed": seed,
        "field": field.to_json(),
        "total_words": total,
        "separated": separated,
        "fraction_separated": f"{separated}/{total}",
        "all_separated": not unseparated,
        "unseparated_words": unseparated,
        "degenerate_evals": Report.degenerate_evals,
        "witnesses": entries,
    }, not unseparated and q_verified)


PLUECKER_SET = (
    (1, 3, 7, 8),
    (2, 3, 4, 8),
    (2, 3, 6, 7),
    (4, 6, 7, 8),
    (3, 4, 5, 7),
    (2, 3, 4, 7),
    (2, 3, 7, 8),
    (3, 6, 7, 8),
    (3, 4, 6, 7),
)

XI_REPORT_WORDS = (
    ("X1",), ("X2",), ("X3",), ("X1", "X2", "X1"), ("X2", "X1", "X2"),
    ("X3", "X2"), ("X3", "X2", "X1"),
)


def xi_structural_ok(before: ModuliPoint, i: int, after: ModuliPoint) -> bool:
    """Post-hoc check of one xi step, on the int form both points carry.

    The windows are `act_xi`'s own, Φ_4's blocks at start i, and each
    window's u sits in `after` at column b of its pair (v_a, v_b).
    With v_a, v_b, u and T read from the points' int forms as A/α, B/β,
    C/γ and T′, and dA = det(A, T′), dB = det(B, T′), a window passes iff
    dB ≠ 0 and α·dB·C = γ·(dA·B − dB·A), each after `Field.reduce` (so
    mod p over F_p).  Given dB ≠ 0 that identity holds iff u ∈ ⟨T⟩ and
    v_a∧v_b = v_b∧u: it gives dB(γA + αC) = γ·dA·B, so (u + v_a) ∥ v_b,
    and α·dB·det(C, T′) = γ(dA·dB − dB·dA) = 0; conversely those two fix
    u as λ·v_b − v_a with λ = dA·β / (dB·α).  `act_xi` returns only where
    det(v_b, T) ≠ 0, so on its images this is the full subspace check; a
    `before` with det(v_b, T) = 0 is rejected.  Both determinants are
    `_det_closed`, not `act_xi`'s cofactor vector c: its u, built from
    dA and dB as dot products with c, passes a check through c whatever
    c is.  Points off T44 and i not in {1, 2, 3} are refused as `act_xi`
    refuses them, with a `ValueError`."""
    windows = monodromy._xi_blocks(i, before, after)
    field, form = before.field, before.form
    for _, (ja, jb), other in windows:
        (a, alpha), (b, _), (c, gamma) = form[ja - 1], form[jb - 1], after.form[jb - 1]
        t = [form[j - 1][0] for j in other]
        da, db = _det_closed([a, *t]), _det_closed([b, *t])
        ad, gda, gdb = alpha * db, gamma * da, gamma * db
        if not field.reduce(db) or any(
                field.reduce(ad * z - gda * y + gdb * x) for x, y, z in zip(a, b, c)):
            return False
    return True


def _plabel(idx: tuple[int, ...]) -> str:
    return "P" + "".join(str(i) for i in idx)


def xi_pluecker_report(n_points: int = 32, seed=11,
                       field: Field = DEFAULT_FIELD) -> Report:
    """Tabulate the Plücker set of T44 before and after each xi word.

    For every word W and every P in the set, the report records the
    members Q with P(W(p)) = Q(p) across the sample.  P is invariant
    under W when it is among its own matches.  The report also compares
    X1 X2 X1 against X2 X1 X2 coordinate by coordinate.  Purely observational; the
    asserted part is the structural postcondition of every applied step.
    Per point each distinct word prefix is replayed once, through a
    one-point memo of word images: the 7 words hold 14 xi steps but only
    9 distinct prefixes.  Every word's image is taken, and then each step
    the memo took is checked once.  Minors are computed only where a
    verdict reads them: P(W(p)) while some Q still matches P under W at
    every point so far, or at every point for the two braid words, and
    Q(p) while some list still holds Q.
    """
    structural = set()  # xi_structural_ok outcomes of the steps the memos take
    w121, w212 = ("X1", "X2", "X1"), ("X2", "X1", "X2")
    cols = range(len(PLUECKER_SET))
    # (word, column) -> positions Q with P_column(W(p)) = Q(p) at every point so far
    alive = {(w, col): list(cols) for w in XI_REPORT_WORDS for col in cols}
    agree = [0] * len(PLUECKER_SET)
    for p in _sample_points(T44, field, n_points, seed):
        images = _WordImages(p)
        wanted = sorted({pos for positions in alive.values() for pos in positions})
        base = dict(zip(wanted, minors(p, [PLUECKER_SET[pos] for pos in wanted])))
        values = {}  # word -> {column: P_column(W(p))} for the columns read
        for w in XI_REPORT_WORDS:
            read = [col for col in cols if alive[w, col] or w in (w121, w212)]
            values[w] = dict(zip(read, minors(images.image(w), [PLUECKER_SET[c] for c in read])))
            for col in read:
                alive[w, col] = [pos for pos in alive[w, col] if base[pos] == values[w][col]]
        for col in cols:
            agree[col] += values[w121][col] == values[w212][col]
        # Token X<i> is xi_i.
        structural.update(xi_structural_ok(q, int(tok[1:]), r) for q, tok, r in images.steps())

    labels = [_plabel(ix) for ix in PLUECKER_SET]
    matches = {
        word_label(w): {labels[col]: [labels[pos] for pos in alive[w, col]] for col in cols}
        for w in XI_REPORT_WORDS
    }
    # P(W(p)) = P(p) on the sample exactly when P is among its own matches.
    invariance = {w: {lab: lab in m for lab, m in match.items()} for w, match in matches.items()}
    braid = {
        labels[col]: {"equal": agree[col] == n_points, "agree": agree[col], "n": n_points}
        for col in cols
    }

    structural_all_ok = all(structural)
    return Report({
        "n_points": n_points,
        "seed": seed,
        "field": field.to_json(),
        "resamples": Report.resamples,
        "structural_all_ok": structural_all_ok,
        "pluecker_set": labels,
        "words": [word_label(w) for w in XI_REPORT_WORDS],
        "invariance": invariance,
        "matches": matches,
        "braid_comparison": braid,
    }, structural_all_ok)


def report_dumps(report: Report) -> str:
    """Serialize a report's JSON with stable key order."""
    return json_dumps(report.json) + "\n"
