"""Reduced words of Z3 * Z2, relation reports, and separation witnesses.

The T36 loop generators induce point maps a (shift by one column),
a² (shift by two) and b (sigma1 after a shift).  Words alternate
syllables from the two free factors {a, a2} and {b}; a word is reduced
when no two adjacent syllables come from the same factor.

The observable is Δ = P_147 composed with probe words: a word w is
separated from the identity by exhibiting a probe u and a sampled point
p with Δ(u(w(p))) ≠ Δ(u(p)).  Over a prime field such an inequality is
an exact certificate, and every witness re-verifies over the rationals
by lifting the point entries to integers, so no Schwartz-Zippel caveat
remains.

Within one report call, a memo (`_WordImages`) extends each word's
image from its prefix's image, so the sweep, its ℚ re-check, the
relation checks and the xi table compute every image once.  Probes
are drawn lazily, shortest first, so a search stops at its first
witness without listing the rest of its budget.

Every sigma1 and xi image of a valid point is valid again, so every word
is defined on every sampled point.  Sampling-time validity is the one
degeneracy gate: the reports neither skip nor resample, and a
`DegeneracyError` inside one is a bug that reaches the caller.

Every report samples through `_sample_points`, which refuses an empty
sample.  The report functions' signatures hold the only defaults: the
CLI passes just the flags it is given.  Called without a `field`, a
report samples over `DEFAULT_FIELD`, whatever LEGMON_PRIME says.  Each
report has one `ok` verdict, the CLI's exit status.  All reports are
deterministic functions of their parameters and serialize to JSON with
a fixed key order.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from random import Random

from .fields import (
    DEFAULT_PRIME,
    Field,
    FieldScalar,
    PrimeField,
    QQ,
    format_scalar,
)
from .moduli import (
    ModuliPoint, T36, T44, _det_closed, minors, point_to_json, random_point, wedge,
)
from .monodromy import act_word, act_xi
from . import monodromy

_FACTOR = {"a": "rotation", "a2": "rotation", "b": "involution"}
_SYLLABLE_TOKEN = {"a": "A", "a2": "A2", "b": "B"}

#: Reduced words are tuples of syllables; () is the empty word.
Syllables = tuple[str, ...]

DELTA_INDEX = (1, 4, 7)

#: The sample field of every report when none is given.
DEFAULT_FIELD = PrimeField(DEFAULT_PRIME)


def reduced_words(max_syllables: int) -> tuple[Syllables, ...]:
    """All reduced words with at most `max_syllables` syllables,
    shortest first, options in (a, a2, b) order; includes the empty word."""
    if max_syllables < 0:
        raise ValueError("max_syllables must be >= 0")
    return tuple(_iter_reduced_words(max_syllables))


def _iter_reduced_words(max_syllables: int) -> Iterator[Syllables]:
    """`reduced_words(max_syllables)`, one word at a time.  A reduced word
    of n syllables puts a or a2 in every other slot, from slot 0 or slot
    1, and b in the slots between; in (a, a2, b) order the words opening
    with a rotation come first."""
    yield ()
    for n in range(1, max_syllables + 1):
        for start in (0, 1):
            for rotations in product(("a", "a2"), repeat=(n + 1 - start) // 2):
                word = ["b"] * n
                word[start::2] = rotations
                yield tuple(word)


def is_reduced(word: Syllables) -> bool:
    return all(s in _FACTOR for s in word) and all(
        _FACTOR[x] != _FACTOR[y] for x, y in zip(word, word[1:])
    )


def word_label(word: Syllables) -> str:
    """Human/JSON label; the empty word renders as "e"."""
    return " ".join(word) if word else "e"


def apply_syllables(p: ModuliPoint, word: Syllables) -> ModuliPoint:
    return act_word(p, tuple(_SYLLABLE_TOKEN[s] for s in word))


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
    """Images w(p) of points under words, and their Δ values.  A nonempty
    word's image is `step` of its prefix's image and its last letter (a
    syllable unless `step` says otherwise), computed once per memo."""

    def __init__(self, points: tuple[ModuliPoint, ...],
                 step=lambda q, s: apply_syllables(q, (s,))):
        self.points = points
        self._step = step
        self._images = {(idx, ()): p for idx, p in enumerate(points)}
        self._values: dict[tuple[int, tuple], FieldScalar] = {}

    def image(self, idx: int, word: tuple) -> ModuliPoint:
        """word(points[idx]), extending the longest prefix already known."""
        n = len(word)
        while n and (idx, word[:n]) not in self._images:
            n -= 1
        q = self._images[idx, word[:n]]
        for m in range(n, len(word)):
            q = self._images[idx, word[:m + 1]] = self._step(q, word[m])
        return q

    def value(self, idx: int, word: tuple) -> FieldScalar:
        """Δ(word(points[idx]))."""
        if (idx, word) not in self._values:
            self._values[idx, word] = delta(self.image(idx, word))
        return self._values[idx, word]


@dataclass(frozen=True)
class SeparationWitness:
    """A probe u, a point p, and Δ(u(w(p))) ≠ Δ(u(p)) certifying that w
    acts nontrivially."""

    word: Syllables
    probe: Syllables
    point: ModuliPoint
    lhs: FieldScalar  # Δ(probe(word(point)))
    rhs: FieldScalar  # Δ(probe(point))

    def replay(self) -> bool:
        """Recompute both values exactly and compare with the stored pair."""
        lhs = delta(apply_syllables(apply_syllables(self.point, self.word), self.probe))
        rhs = delta(apply_syllables(self.point, self.probe))
        return lhs == self.lhs and rhs == self.rhs and lhs != rhs

    def to_json(self) -> dict:
        return {
            "word": word_label(self.word),
            "probe": word_label(self.probe),
            "lhs": format_scalar(self.lhs),
            "rhs": format_scalar(self.rhs),
            "point": point_to_json(self.point),
        }


def lift_point_to_q(p: ModuliPoint) -> ModuliPoint:
    """Lift a prime-field point to ℚ: its int form is the lift's int form."""
    return p if p.field == QQ else ModuliPoint(p.family, QQ, p.form)


def reverify_witness_q(witness: SeparationWitness, _q: tuple | None = None) -> dict:
    """Replay a witness over ℚ on the lifted point.

    A value that is nonzero mod p lifts to a nonzero rational, so a
    prime-field witness always stays a witness: the two rational values
    are distinct and reduce mod p to the stored pair.  `_q` is a memo of
    ℚ images and the point's index in it; by default, a one-point memo.
    """
    images, idx = _q or (_WordImages((lift_point_to_q(witness.point),)), 0)
    lhs = images.value(idx, witness.word + witness.probe)
    rhs = images.value(idx, witness.probe)
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


def _reduces_to(x: Fraction, r: FieldScalar, field: Field) -> bool:
    """Whether the rational x maps to r in r's `field`."""
    return bool(field.reduce(x.denominator)) and field.scalar(x.numerator, x.denominator) == r


def separate(word: Syllables, probe_budget: int = 4, n_points: int = 32,
             seed=11, field: Field = DEFAULT_FIELD,
             _images: _WordImages | None = None) -> SeparationWitness | None:
    """Search for a separation witness for a nonempty reduced word.

    Probes are drawn one at a time, shortest first, and tried on the
    points in sampling order; the first witness found is returned, so
    results are deterministic in the seed.
    Returns None if the budget is exhausted (sound, not complete).
    Δ(u(w(p))) is the memo's value of the word w + u; a sweep passes one
    memo, `_images`, to all its calls.
    """
    word = tuple(word)
    if not word:
        raise ValueError("the empty word cannot be separated from the identity")
    if not is_reduced(word):
        raise ValueError(f"word {word!r} is not reduced")
    if probe_budget < 0:
        raise ValueError("probe_budget must be >= 0")
    images = _images if _images is not None else _WordImages(
        _sample_points(T36, field, n_points, seed)
    )
    for probe in _iter_reduced_words(probe_budget):
        for idx, point in enumerate(images.points):
            lhs = images.value(idx, word + probe)
            rhs = images.value(idx, probe)
            if lhs != rhs:
                return SeparationWitness(word, probe, point, lhs, rhs)
    return None


@dataclass(frozen=True)
class RelationCheck:
    relation: str
    probe: Syllables
    passes: int
    failures: int

    @property
    def all_pass(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True)
class RelationReport:
    n_points: int
    seed: object
    probe_budget: int
    field: Field
    checks: tuple[RelationCheck, ...]
    # Valid points stay valid under every word, so no draw is resampled.
    resamples = 0

    @property
    def all_pass(self) -> bool:
        return all(c.all_pass for c in self.checks)

    ok = all_pass

    def to_json(self) -> dict:
        return {
            "n_points": self.n_points,
            "seed": self.seed,
            "probe_budget": self.probe_budget,
            "field": self.field.to_json(),
            "resamples": self.resamples,
            "all_pass": self.all_pass,
            "checks": [
                {
                    "relation": c.relation,
                    "probe": word_label(c.probe),
                    "passes": c.passes,
                    "failures": c.failures,
                    "all_pass": c.all_pass,
                }
                for c in self.checks
            ],
        }


def verify_relations(n_points: int = 32, seed=7, field: Field = DEFAULT_FIELD,
                     probe_budget: int = 2) -> RelationReport:
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
        images = _WordImages((p,))
        for u in probes:
            for rel, r in _RELATIONS.items():
                failures[rel, u] += images.value(0, r + u) != images.value(0, u)
    checks = tuple(
        RelationCheck(rel, u, n_points - failures[rel, u], failures[rel, u])
        for rel in _RELATIONS
        for u in probes
    )
    return RelationReport(n_points, seed, probe_budget, field, checks)


# Relation name -> its word; three single shifts are the shift by three.
_RELATIONS = {"a3": ("a", "a", "a"), "b2": ("b", "b")}


@dataclass(frozen=True)
class SweepEntry:
    word: Syllables
    witness: SeparationWitness | None
    q_reverify: dict | None


@dataclass(frozen=True)
class SweepReport:
    max_syllables: int
    probe_budget: int
    n_points: int
    seed: object
    field: Field
    entries: tuple[SweepEntry, ...]
    # Valid points stay valid under every word, so nothing degenerates.
    degenerate_evals = 0

    @property
    def total_words(self) -> int:
        return len(self.entries)

    @property
    def separated(self) -> int:
        return sum(1 for e in self.entries if e.witness is not None)

    @property
    def unseparated_words(self) -> tuple[Syllables, ...]:
        return tuple(e.word for e in self.entries if e.witness is None)

    @property
    def all_separated(self) -> bool:
        return self.separated == self.total_words

    @property
    def all_q_verified(self) -> bool:
        return all(
            e.q_reverify is None or e.q_reverify["ok"]
            for e in self.entries
            if e.witness is not None
        )

    @property
    def ok(self) -> bool:
        return self.all_separated and self.all_q_verified

    def to_json(self) -> dict:
        return {
            "max_syllables": self.max_syllables,
            "probe_budget": self.probe_budget,
            "n_points": self.n_points,
            "seed": self.seed,
            "field": self.field.to_json(),
            "total_words": self.total_words,
            "separated": self.separated,
            "fraction_separated": f"{self.separated}/{self.total_words}",
            "all_separated": self.all_separated,
            "unseparated_words": [word_label(w) for w in self.unseparated_words],
            "degenerate_evals": self.degenerate_evals,
            "witnesses": [
                {
                    "word": word_label(e.word),
                    "separated": e.witness is not None,
                    **(
                        {
                            "witness": e.witness.to_json(),
                            "q_reverify": e.q_reverify,
                        }
                        if e.witness is not None
                        else {}
                    ),
                }
                for e in self.entries
            ],
        }


def faithfulness_sweep(max_syllables: int = 6, probe_budget: int = 4,
                       n_points: int = 32, seed=11,
                       field: Field = DEFAULT_FIELD) -> SweepReport:
    """Run separate() on every nontrivial reduced word up to the budget.

    All words share one deterministic point sample and one memo of word
    images, so each word's outcome equals a standalone separate() call
    with the same seed.  Over a prime field, found witnesses are
    re-verified over ℚ on a second memo, over the lifted sample.
    """
    if max_syllables < 1:
        raise ValueError("max_syllables must be >= 1")
    points = _sample_points(T36, field, n_points, seed)
    images = _WordImages(points)
    q_images = _WordImages(tuple(map(lift_point_to_q, points)))
    entries = []
    for word in reduced_words(max_syllables)[1:]:
        witness = separate(word, probe_budget, _images=images)
        q_report = None
        if witness is not None and isinstance(field, PrimeField):
            q_at = (q_images, points.index(witness.point))
            q_report = reverify_witness_q(witness, _q=q_at)
        entries.append(SweepEntry(word, witness, q_report))
    return SweepReport(
        max_syllables, probe_budget, n_points, seed, field, tuple(entries)
    )


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
    (1,), (2,), (3,), (1, 2, 1), (2, 1, 2), (3, 2), (3, 2, 1),
)


def xi_structural_ok(before: ModuliPoint, i: int, after: ModuliPoint) -> bool:
    """Post-hoc check of one xi step, on the int form both points carry.

    The windows are `act_xi`'s own, Φ_4's blocks at start i, and each
    window's u sits in `after` at column b of its pair (v_a, v_b).
    With v_a, v_b, u and T read from the points' int forms as A/α, B/β,
    C/γ and T′, a window passes iff det(B, T′) ≠ 0, det(C, T′) = 0
    (u ∈ ⟨T⟩) and γ·(A∧B) = α·(B∧C) (v_a∧v_b = v_b∧u), each after
    `Field.reduce` (so mod p over F_p).  Then v_b ≠ 0 and
    v_b∧(u + v_a) = 0, so u ∈ ⟨v_a, v_b⟩.  `act_xi` returns only where
    det(v_b, T) ≠ 0, so on its images this is the full subspace check; a
    `before` with det(v_b, T) = 0, which `act_xi` refuses, is rejected.
    Points off T44 and i not in {1, 2, 3} are refused as `act_xi` refuses
    them, with a `ValueError`."""
    windows, _ = monodromy._xi_blocks(i, before, after)
    field = before.field
    for _, pair, other in windows:
        pairs = [before.form[j - 1] for j in (*pair, *other)] + [after.form[pair[1] - 1]]
        (a, b, *t, c), (alpha, *_, gamma) = zip(*pairs)
        tests = [_det_closed([b, *t]), _det_closed([c, *t])] + [
            gamma * x - alpha * y for x, y in zip(wedge(a, b), wedge(b, c))]
        db, dc, *gap = map(field.reduce, tests)
        if not db or dc or any(gap):
            return False
    return True


def _xi_word_label(word: tuple[int, ...]) -> str:
    return " ".join(f"X{i}" for i in word)


@dataclass(frozen=True)
class XiReport:
    n_points: int
    seed: object
    field: Field
    structural_all_ok: bool
    invariance: dict  # word label -> {P label -> bool}
    matches: dict  # word label -> {P label -> list of matching P labels}
    braid_comparison: dict  # P label -> {"equal": bool, "agree": int, "n": int}
    # Valid points stay valid under every word, so no draw is resampled.
    resamples = 0

    @property
    def ok(self) -> bool:
        return self.structural_all_ok

    def to_json(self) -> dict:
        return {
            "n_points": self.n_points,
            "seed": self.seed,
            "field": self.field.to_json(),
            "resamples": self.resamples,
            "structural_all_ok": self.structural_all_ok,
            "pluecker_set": [_plabel(ix) for ix in PLUECKER_SET],
            "words": [_xi_word_label(w) for w in XI_REPORT_WORDS],
            "invariance": self.invariance,
            "matches": self.matches,
            "braid_comparison": self.braid_comparison,
        }


def _plabel(idx: tuple[int, ...]) -> str:
    return "P" + "".join(str(i) for i in idx)


def xi_pluecker_report(n_points: int = 32, seed=11,
                       field: Field = DEFAULT_FIELD) -> XiReport:
    """Tabulate the Plücker set of T44 before and after each xi word.

    For every word W and every P in the set, the report records the
    members Q with P(W(p)) = Q(p) across the sample.  P is invariant
    under W when it is among its own matches.  The report also compares
    X1 X2 X1 against X2 X1 X2 coordinate by coordinate.  Purely observational; the
    asserted part is the structural postcondition of every applied step.
    Per point each distinct word prefix is replayed and checked once,
    through a one-point memo of word images: the 7 words hold 14 xi
    steps but only 9 distinct prefixes.
    """
    structural = set()  # xi_structural_ok outcomes of the steps the memos take

    def step(q: ModuliPoint, i: int) -> ModuliPoint:
        nxt = act_xi(q, i)
        structural.add(xi_structural_ok(q, i, nxt))
        return nxt

    samples = []  # per point: (base values, {word: values})
    for p in _sample_points(T44, field, n_points, seed):
        images = _WordImages((p,), step)
        table = {w: tuple(minors(images.image(0, w), PLUECKER_SET)) for w in XI_REPORT_WORDS}
        samples.append((tuple(minors(p, PLUECKER_SET)), table))

    invariance = {}
    matches = {}
    for word in XI_REPORT_WORDS:
        match = {}
        for col, ix in enumerate(PLUECKER_SET):
            match[_plabel(ix)] = [
                _plabel(other)
                for pos, other in enumerate(PLUECKER_SET)
                if all(
                    per_word[word][col] == base[pos]
                    for base, per_word in samples
                )
            ]
        # P(W(p)) = P(p) on the sample exactly when P is among its own matches.
        invariance[_xi_word_label(word)] = {lab: lab in m for lab, m in match.items()}
        matches[_xi_word_label(word)] = match

    braid = {}
    w121, w212 = (1, 2, 1), (2, 1, 2)
    for col, ix in enumerate(PLUECKER_SET):
        agree = sum(
            1 for _, per_word in samples
            if per_word[w121][col] == per_word[w212][col]
        )
        braid[_plabel(ix)] = {
            "equal": agree == len(samples),
            "agree": agree,
            "n": len(samples),
        }

    return XiReport(
        n_points, seed, field,
        all(structural),
        invariance, matches, braid,
    )


def report_dumps(report) -> str:
    """Serialize any report object with stable key order."""
    return json.dumps(report.to_json(), indent=2) + "\n"
