"""Acceptance gate: one test per shipped criterion, with time budgets.

Each test prints a single summary line; every comparison is exact
(zero tolerance) and every budget is wall-clock seconds.
"""

import itertools
import time
from random import Random

from legmon.braids import builtin_script, verify_loop
from legmon.explorer import (
    faithfulness_sweep,
    reduced_words,
    separate,
    xi_pluecker_report,
    xi_structural_ok,
)
from legmon.fields import DEFAULT_PRIME, QQ, PrimeField
from legmon.linalg import (
    Matrix,
    Subspace,
    determinant,
    intersect,
    wedge_normalize,
)
from legmon.moduli import (
    T36,
    T44,
    flags_from_point,
    pluecker,
    random_point,
    validate_bott_samelson,
    validate_point,
    wedge,
)
from legmon.monodromy import act_shift, act_sigma1, act_word, act_xi
from oracles import random_scalar

FP = PrimeField(DEFAULT_PRIME)


def _report(n, label, t0, budget):
    dt = time.monotonic() - t0
    assert dt < budget, f"criterion {n} overran its budget: {dt:.2f}s >= {budget}s"
    print(f"criterion {n} PASS: {label} ({dt:.2f}s < {budget}s)")


def test_criterion_1_loop_certification():
    t0 = time.monotonic()
    scripts = [
        builtin_script("sigma1", s=2),
        builtin_script("xi1", s=1),
        builtin_script("xi2", s=1),
        builtin_script("xi3", s=1),
        builtin_script("delta_power", s=2, k_for_delta=3),
        builtin_script("delta_power", s=1, k_for_delta=4),
    ]
    assert str(scripts[0].base) == " ".join("1 2".split() * 9)
    for script in scripts:
        report = verify_loop(script)  # raises on any illegal intermediate move
        assert report.is_loop
        assert report.texts[-1] == str(script.base)
    _report(1, "all built-in loop scripts certify", t0, 1.0)


PULLBACKS = [
    ((1, 4, 7), "A", (2, 5, 8)),
    ((1, 4, 7), "A A", (3, 6, 9)),
    ((1, 4, 7), "A A A", (1, 4, 7)),
    ((3, 6, 9), "S1", (3, 6, 9)),
    ((1, 4, 7), "S1", (2, 5, 8)),
    ((1, 4, 7), "B", (3, 6, 9)),
    ((1, 4, 7), "B B", (1, 4, 7)),
]


def test_criterion_2_pullback_identities():
    t0 = time.monotonic()
    fp_points = [random_point(T36, FP, seed) for seed in range(100)]
    q_points = [random_point(T36, QQ, seed) for seed in range(5)]
    for p in fp_points + q_points:
        for lhs, word, rhs in PULLBACKS:
            assert pluecker(act_word(p, word), lhs) == pluecker(p, rhs)
    _report(2, "seven pullback identities on 100 Fp + 5 Q points", t0, 10.0)


def test_criterion_3_xi_structural_postconditions():
    t0 = time.monotonic()
    points = [random_point(T44, FP, seed) for seed in range(100)]
    for i in (1, 2, 3):
        for p in points:
            out = act_xi(p, i)
            assert xi_structural_ok(p, i, out)
            assert validate_point(out) is True
    _report(3, "xi membership + wedge normalization on 100 points x 3", t0, 30.0)


def test_criterion_4_faithfulness_sweep():
    t0 = time.monotonic()
    report = faithfulness_sweep()  # 6 syllables, probe 4, 32 points, seed 11
    assert report.total_words == 49
    assert report.all_separated, f"unseparated: {report.unseparated_words}"
    assert report.all_q_verified
    for entry in report.entries:
        assert entry.witness.replay()
        assert entry.q_reverify["ok"]
    _report(4, "49/49 reduced words separated and Q-reverified", t0, 300.0)


def test_criterion_5_single_shift_nontrivial():
    t0 = time.monotonic()
    witness = separate(("a",), probe_budget=0, n_points=8)
    assert witness is not None and witness.probe == ()
    assert witness.lhs == pluecker(witness.point, (2, 5, 8))
    assert witness.rhs == pluecker(witness.point, (1, 4, 7))
    assert witness.lhs != witness.rhs
    _report(5, "separate(a) found a P258 != P147 point within 8 samples", t0, 1.0)


def test_criterion_6_bott_samelson_round_trip():
    t0 = time.monotonic()
    for family in (T36, T44):
        word = family.base_word()
        for seed in range(1000):
            p = random_point(family, FP, seed)
            assert validate_bott_samelson(flags_from_point(p), word)
    _report(6, "flag round-trip on 1000 seeds per family (T36, T44)", t0, 10.0)


def _random_vector(field, rng, k):
    return tuple(random_scalar(field, rng) for _ in range(k))


def _field_axiom_cases(field, rng, n_cases):
    zero, one = field.zero(), field.one()
    for _ in range(n_cases):
        x, y, z = (random_scalar(field, rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x + zero == x and x * one == x
        assert x + (-x) == zero
        if y != zero:
            assert y * (one / y) == one
            assert (x / y) * y == x


def test_criterion_7_property_suites():
    t0 = time.monotonic()
    rng = Random(20240814)

    # field axioms: 10^4 randomized cases split across both fields
    _field_axiom_cases(FP, rng, 5000)
    _field_axiom_cases(QQ, rng, 5000)

    # determinant multilinearity and alternation on random columns
    for field in (FP, QQ):
        for _ in range(50):
            n = rng.randint(2, 4)
            cols = [_random_vector(field, rng, n) for _ in range(n)]
            lam = random_scalar(field, rng)
            base = determinant(Matrix.from_columns(cols, field))
            j = rng.randrange(n)
            scaled = list(cols)
            scaled[j] = tuple(lam * x for x in cols[j])
            assert determinant(Matrix.from_columns(scaled, field)) == lam * base
            extra = _random_vector(field, rng, n)
            bumped = list(cols)
            bumped[j] = tuple(a + b for a, b in zip(cols[j], extra))
            replaced = list(cols)
            replaced[j] = extra
            assert determinant(Matrix.from_columns(bumped, field)) == base + determinant(
                Matrix.from_columns(replaced, field)
            )
            if n >= 2:
                i = (j + 1) % n
                swapped = list(cols)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                assert determinant(Matrix.from_columns(swapped, field)) == -base
                doubled = list(cols)
                doubled[i] = doubled[j]
                assert determinant(Matrix.from_columns(doubled, field)) == field.zero()

    # intersect: commutative and idempotent on canonical forms
    for field in (FP, QQ):
        for _ in range(40):
            k = rng.randint(2, 4)
            a = Subspace.span([_random_vector(field, rng, k) for _ in range(rng.randint(1, k))], k, field)
            b = Subspace.span([_random_vector(field, rng, k) for _ in range(rng.randint(1, k))], k, field)
            assert intersect(a, b) == intersect(b, a)
            assert intersect(a, a) == a

    # wedge_normalize exactness: v1 ^ v2 == v2 ^ u with u on the line
    for field in (FP, QQ):
        count = 0
        while count < 100:
            k = rng.randint(2, 4)
            v1 = _random_vector(field, rng, k)
            v2 = _random_vector(field, rng, k)
            if wedge(v1, v2) == tuple([field.zero()] * (k * (k - 1) // 2)):
                continue
            a = random_scalar(field, rng)
            b = random_scalar(field, rng)
            if a == field.zero():
                continue
            direction = tuple(a * x + b * y for x, y in zip(v1, v2))
            u = wedge_normalize(v1, v2, direction)
            assert wedge(v1, v2) == wedge(v2, u)
            assert Subspace.span([direction], k, field).contains(u)
            count += 1

    # reduced word counts against a brute-force enumeration, n <= 10
    factor = {"a": 0, "a2": 0, "b": 1}
    for n in range(11):
        brute = {
            word
            for m in range(n + 1)
            for word in itertools.product(("a", "a2", "b"), repeat=m)
            if all(factor[x] != factor[y] for x, y in zip(word, word[1:]))
        }
        assert set(reduced_words(n)) == brute

    # shift by N is the identity point map
    for family in (T36, T44):
        for seed in range(5):
            p = random_point(family, FP, seed)
            assert act_shift(p, family.n_columns) == p

    # window equivariance: sigma1 vs shift-by-3, xi_i vs shift-by-4
    for seed in range(10):
        p = random_point(T36, FP, seed)
        assert act_sigma1(act_shift(p, 3)) == act_shift(act_sigma1(p), 3)
        q = random_point(T44, FP, seed)
        for i in (1, 2, 3):
            assert act_xi(act_shift(q, 4), i) == act_shift(act_xi(q, i), 4)

    _report(7, "field/determinant/intersect/wedge/word/shift properties", t0, 60.0)


def test_criterion_8_xi_report_completes():
    t0 = time.monotonic()
    report = xi_pluecker_report(n_points=32, seed=11)
    assert report.n_points == 32
    assert len(report.braid_comparison) == 9
    for entry in report.braid_comparison.values():
        assert entry["n"] == 32  # observational table; no verdict asserted
    assert report.structural_all_ok
    data = report.to_json()
    assert len(data["pluecker_set"]) == 9
    _report(8, "xi report on 32 points with full comparison table", t0, 60.0)
