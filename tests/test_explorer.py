"""Reduced words, relation reports, separation witnesses, xi tables."""

import itertools
import json
from fractions import Fraction
from random import Random

import pytest

from legmon import explorer, monodromy
from legmon.explorer import (
    DELTA_INDEX,
    PLUECKER_SET,
    XI_REPORT_WORDS,
    SweepReport,
    XiReport,
    apply_syllables,
    delta,
    faithfulness_sweep,
    is_reduced,
    lift_point_to_q,
    reduced_words,
    report_dumps,
    reverify_witness_q,
    separate,
    verify_relations,
    word_label,
    xi_pluecker_report,
    xi_structural_ok,
)
from legmon.fields import DEFAULT_PRIME, QQ, PrimeField
from legmon.linalg import Subspace
from legmon.moduli import ModuliPoint, T36, T44, pluecker, random_point, wedge
from legmon.monodromy import act_sigma1, act_word, act_xi
from oracles import (
    LOOP_WINDOWS, scratch_relations, scratch_reverify, scratch_sweep, window_slots,
)

ALT_PRIME = 998244353


def brute_force_words(max_syllables):
    factor = {"a": 0, "a2": 0, "b": 1}
    found = set()
    for n in range(max_syllables + 1):
        for word in itertools.product(("a", "a2", "b"), repeat=n):
            if all(factor[x] != factor[y] for x, y in zip(word, word[1:])):
                found.add(word)
    return found


def test_reduced_words_examples():
    assert reduced_words(0) == ((),)
    assert set(reduced_words(1)) == {(), ("a",), ("a2",), ("b",)}
    two = set(reduced_words(2))
    assert two == set(reduced_words(1)) | {
        ("a", "b"), ("a2", "b"), ("b", "a"), ("b", "a2"),
    }
    assert len(two) == 8


def test_reduced_words_against_brute_force():
    for n in range(11):
        words = reduced_words(n)
        assert len(set(words)) == len(words)
        assert set(words) == brute_force_words(n)
    assert [len(reduced_words(n)) for n in range(7)] == [1, 4, 8, 14, 22, 34, 50]


def test_reduced_words_ordering():
    words = reduced_words(2)
    assert words[:4] == ((), ("a",), ("a2",), ("b",))
    lengths = [len(w) for w in words]
    assert lengths == sorted(lengths)  # shortest first
    with pytest.raises(ValueError):
        reduced_words(-1)


def test_reduced_words_are_in_shortlex_order():
    rank = {"a": 0, "a2": 1, "b": 2}
    keys = [(len(w), [rank[s] for s in w]) for w in reduced_words(8)]
    assert keys == sorted(keys)


def test_is_reduced():
    assert is_reduced(())
    assert is_reduced(("a", "b", "a2"))
    assert not is_reduced(("a", "a2"))
    assert not is_reduced(("b", "b"))
    assert not is_reduced(("c",))


def test_word_label():
    assert word_label(()) == "e"
    assert word_label(("a", "b", "a2")) == "a b a2"


def test_apply_syllables_matches_tokens():
    p = random_point(T36, PrimeField(DEFAULT_PRIME), 5)
    assert apply_syllables(p, ("a", "b", "a2")) == act_word(p, "A B A2")
    assert apply_syllables(p, ()) == p
    assert delta(p) == pluecker(p, DELTA_INDEX)


def test_verify_relations_default_outcomes():
    report = verify_relations()
    assert report.n_points == 32 and report.probe_budget == 2
    # a3 is the full shift by three: invariant under every probe
    for check in report.checks:
        if check.relation == "a3":
            assert check.all_pass and check.passes == 32
    # b2 rescales columns 2, 5, 8, so exactly the probes whose pullback
    # touches a rescaled column fail
    failing = {
        (c.relation, c.probe) for c in report.checks if not c.all_pass
    }
    assert failing == {("b2", ("a",)), ("b2", ("a2", "b")), ("b2", ("b", "a"))}
    assert not report.all_pass
    by_key = {(c.relation, c.probe): c for c in report.checks}
    for probe in ((), ("a2",), ("b",), ("a", "b"), ("b", "a2")):
        assert by_key["b2", probe].all_pass


def test_verify_relations_prime_independent():
    report = verify_relations(n_points=8, seed=3, field=PrimeField(ALT_PRIME))
    failing = {(c.relation, c.probe) for c in report.checks if not c.all_pass}
    assert failing == {("b2", ("a",)), ("b2", ("a2", "b")), ("b2", ("b", "a"))}


def test_verify_relations_probe_zero_passes():
    report = verify_relations(n_points=8, seed=3, probe_budget=0)
    assert [c.probe for c in report.checks] == [(), ()]
    assert report.all_pass


def test_verify_relations_json():
    report = verify_relations(n_points=4, seed=3)
    data = report.to_json()
    assert data["all_pass"] is False
    assert data["n_points"] == 4
    assert data["checks"][0]["relation"] == "a3"
    assert data["checks"][0]["probe"] == "e"
    assert report_dumps(report) == report_dumps(verify_relations(n_points=4, seed=3))
    with pytest.raises(ValueError):
        verify_relations(n_points=0)


def test_separate_a_with_empty_probe():
    witness = separate(("a",))
    assert witness is not None
    assert witness.probe == ()
    assert witness.word == ("a",)
    assert witness.lhs != witness.rhs
    # the empty probe compares P_147 of the shifted point, i.e. P_258(p)
    assert witness.lhs == pluecker(witness.point, (2, 5, 8))
    assert witness.rhs == pluecker(witness.point, (1, 4, 7))
    assert witness.replay()


def test_separate_b_with_empty_probe():
    witness = separate(("b",), n_points=8)
    assert witness is not None and witness.probe == ()
    assert witness.lhs == pluecker(witness.point, (3, 6, 9))


def test_separate_input_validation():
    with pytest.raises(ValueError):
        separate(())
    with pytest.raises(ValueError):
        separate(("a", "a2"))
    with pytest.raises(ValueError):
        separate(("b", "b"))


@pytest.mark.parametrize("n_points", [0, -1])
def test_separate_refuses_an_empty_sample(n_points):
    # No sampled point would separate nothing; the input is refused.
    with pytest.raises(ValueError, match="n_points must be >= 1"):
        separate(("a",), n_points=n_points)


def test_separate_draws_probes_lazily(monkeypatch):
    # (a b) is separated by the second probe, a: a search with a large
    # budget draws just those two probes and builds no list of them.
    drawn = []
    probes = explorer._iter_reduced_words

    def counting(budget):
        for probe in probes(budget):
            drawn.append(probe)
            yield probe

    monkeypatch.setattr(explorer, "_iter_reduced_words", counting)
    monkeypatch.setattr(explorer, "reduced_words", None)
    witness = separate(("a", "b"), probe_budget=30, n_points=2)
    assert witness.probe == ("a",)
    assert drawn == [(), ("a",)]


def test_separate_budget_exhaustion_returns_none():
    # Delta((a b)(p)) = Delta(p) identically, so the empty probe can
    # never separate the word (a b); with probe budget 0 the search is
    # exhausted and reports None.
    assert separate(("a", "b"), probe_budget=0, n_points=8) is None


def test_separate_deterministic():
    w1 = separate(("b", "a"), seed=11)
    w2 = separate(("b", "a"), seed=11)
    assert w1 == w2


def test_separate_over_q():
    witness = separate(("a",), n_points=4, field=QQ)
    assert witness is not None
    assert isinstance(witness.lhs, Fraction)
    assert witness.replay()


def test_witness_json_and_q_reverify():
    witness = separate(("a", "b", "a"), n_points=8)
    assert witness is not None
    data = witness.to_json()
    assert set(data) == {"word", "probe", "lhs", "rhs", "point"}
    assert data["word"] == "a b a"
    report = reverify_witness_q(witness)
    assert report["ok"] and report["distinct"] and report["consistent_with_fp"]
    lifted = lift_point_to_q(witness.point)
    assert lifted.field == QQ
    assert all(
        Fraction(orig.value) == new
        for c_old, c_new in zip(witness.point.columns, lifted.columns)
        for orig, new in zip(c_old, c_new)
    )
    assert lift_point_to_q(lifted) is lifted


def test_mini_sweep_matches_standalone_separate():
    sweep = faithfulness_sweep(max_syllables=2, probe_budget=2, n_points=8, seed=4)
    assert sweep.total_words == 7  # the 8 reduced words minus the empty one
    assert sweep.all_separated and sweep.all_q_verified
    for entry in sweep.entries:
        alone = separate(entry.word, probe_budget=2, n_points=8, seed=4)
        assert alone == entry.witness


def test_sweep_probe_escalation():
    # powers of (a b) and of (b a2) are invisible to the empty probe
    # and need the probe "a"; everything else separates at probe e.
    sweep = faithfulness_sweep(max_syllables=4, probe_budget=4, n_points=16, seed=11)
    assert sweep.all_separated
    needs_a = {e.word for e in sweep.entries if e.witness.probe == ("a",)}
    assert needs_a == {("a", "b"), ("a", "b", "a", "b"), ("b", "a2"), ("b", "a2", "b", "a2")}
    assert all(e.witness.probe == () for e in sweep.entries if e.word not in needs_a)


def test_sweep_over_q_skips_reverify():
    sweep = faithfulness_sweep(max_syllables=1, probe_budget=1, n_points=4,
                               seed=2, field=QQ)
    assert sweep.all_separated and sweep.all_q_verified
    assert all(e.q_reverify is None for e in sweep.entries)


def test_sweep_json():
    sweep = faithfulness_sweep(max_syllables=1, probe_budget=1, n_points=4, seed=2)
    data = sweep.to_json()
    assert data["fraction_separated"] == "3/3"
    assert data["all_separated"] is True
    assert [w["word"] for w in data["witnesses"]] == ["a", "a2", "b"]
    assert all("witness" in w and "q_reverify" in w for w in data["witnesses"])
    assert isinstance(sweep, SweepReport)
    with pytest.raises(ValueError):
        faithfulness_sweep(max_syllables=0)


@pytest.mark.parametrize("field,probe_budget", [
    (PrimeField(DEFAULT_PRIME), 3),
    (PrimeField(ALT_PRIME), 3),
    (PrimeField(3), 3),  # witnesses at three different sample points
    (PrimeField(DEFAULT_PRIME), 0),  # words no empty probe separates
    (QQ, 3),
], ids=["Fp", "Falt", "F3", "Fp-budget0", "Q"])
def test_sweep_matches_whole_word_oracle(field, probe_budget):
    kw = dict(max_syllables=5, probe_budget=probe_budget, n_points=8, seed=11, field=field)
    sweep = faithfulness_sweep(**kw)
    assert report_dumps(sweep) == report_dumps(scratch_sweep(**kw))
    # the standalone re-check, on its own one-point memo, agrees as well;
    # a ℚ witness is its own lift and reduces to itself
    for witness in (e.witness for e in sweep.entries if e.witness is not None):
        if field.kind == "fp":
            assert reverify_witness_q(witness) == scratch_reverify(witness)
        else:
            assert reverify_witness_q(witness)["ok"]


@pytest.mark.parametrize("field", [PrimeField(DEFAULT_PRIME), PrimeField(5), QQ],
                         ids=["Fp", "F5", "Q"])
def test_relations_match_whole_word_oracle(field):
    report = verify_relations(n_points=16, seed=7, field=field, probe_budget=3)
    assert report_dumps(report) == report_dumps(scratch_relations(16, 7, field, 3))


def _record_sigma1_inputs(monkeypatch) -> list:
    seen = []

    def recording(p):
        seen.append(p)
        return act_sigma1(p)

    monkeypatch.setattr(monodromy, "act_sigma1", recording)
    return seen


def test_sweep_computes_each_image_once(monkeypatch):
    seen = _record_sigma1_inputs(monkeypatch)
    sweep = faithfulness_sweep(max_syllables=8)
    assert sweep.total_words == 105 and sweep.all_separated and sweep.all_q_verified
    # points carry their field: no sigma1 input repeats over F_p or over ℚ
    assert len(set(seen)) == len(seen)
    assert {p.field for p in seen} == {explorer.DEFAULT_FIELD, QQ}


def test_relations_compute_each_image_once(monkeypatch):
    seen = _record_sigma1_inputs(monkeypatch)
    verify_relations(field=QQ, probe_budget=3)
    assert seen and len(set(seen)) == len(seen)


def test_xi_structural_ok_direct():
    p = random_point(T44, PrimeField(DEFAULT_PRIME), 9)
    for i in (1, 2, 3):
        after = act_xi(p, i)
        assert xi_structural_ok(p, i, after)
        # swapping in the wrong point breaks the postcondition
        assert not xi_structural_ok(p, i, p)


def _xi_upos(i):
    """Output slots (1-based) of the replaced columns u1, u2 of xi_i."""
    return tuple(slot for *_, slot in window_slots(f"X{i}"))


def test_xi_upos_slots():
    assert [_xi_upos(i) for i in (1, 2, 3)] == [(2, 6), (3, 7), (4, 8)]


def test_xi_structural_ok_refuses_bad_index():
    p = random_point(T44, PrimeField(DEFAULT_PRIME), 9)
    with pytest.raises(ValueError, match="xi index must be 1, 2 or 3, got 4"):
        xi_structural_ok(p, 4, p)


def test_xi_structural_ok_refuses_non_t44_points():
    p = random_point(T44, PrimeField(DEFAULT_PRIME), 9)
    t36 = random_point(T36, PrimeField(DEFAULT_PRIME), 9)
    with pytest.raises(ValueError, match="act_xi needs family T44, got T36"):
        xi_structural_ok(t36, 1, t36)
    with pytest.raises(ValueError, match="act_xi needs family T44, got T36"):
        xi_structural_ok(p, 1, t36)


def oracle_xi_structural_ok(before, i, after):
    """The subspace-route check: each replaced column lies in both
    prescribed subspaces and satisfies its wedge normalization."""
    k = before.family.k
    for _, pair, other, upos in window_slots(f"X{i}"):
        u = after.columns[upos - 1]
        va, vb = before.col(pair[0]), before.col(pair[1])
        plane = Subspace.span([va, vb], k, before.field)
        target = Subspace.span([before.col(t) for t in other], k, before.field)
        if not (plane.contains(u) and target.contains(u)):
            return False
        if wedge(va, vb) != wedge(vb, u):
            return False
    return True


def _xi_after_candidates(before, i):
    """The true xi_i image, then mutations of it: each replaced column
    doubled, negated, shifted by (1,…,1) and by v_b (which keeps the
    wedge identity and plane but leaves ⟨T⟩); two pairs of swapped
    columns; and `before` itself."""
    after = act_xi(before, i)
    one = before.field.one()
    out = [after]
    for _, pair, _, upos in window_slots(f"X{i}"):
        u, vb = after.columns[upos - 1], before.col(pair[1])
        for mutated in (
            tuple(x + x for x in u),
            tuple(-x for x in u),
            tuple(x + one for x in u),
            tuple(x + y for x, y in zip(u, vb)),
        ):
            cols = list(after.columns)
            cols[upos - 1] = mutated
            out.append(ModuliPoint.from_columns(T44, before.field, tuple(cols)))
    u1, u2 = _xi_upos(i)
    for a, b in ((u1, u2), (u1, u1 - 1)):
        cols = list(after.columns)
        cols[a - 1], cols[b - 1] = cols[b - 1], cols[a - 1]
        out.append(ModuliPoint.from_columns(T44, before.field, tuple(cols)))
    out.append(before)
    return out


@pytest.mark.parametrize(
    "field", [PrimeField(3), PrimeField(5), PrimeField(DEFAULT_PRIME), QQ],
    ids=["F3", "F5", "Fp", "Q"],
)
def test_xi_structural_ok_matches_subspace_oracle(field):
    verdicts = set()
    for seed in range(30):
        p = random_point(T44, field, seed)
        # a sampled point and an xi image, whose ℚ entries carry mixed denominators
        for before in (p, act_xi(p, 1 + seed % 3)):
            for i in (1, 2, 3):
                for n, after in enumerate(_xi_after_candidates(before, i)):
                    new = xi_structural_ok(before, i, after)
                    assert new == oracle_xi_structural_ok(before, i, after), (seed, i, n)
                    assert new or n > 0, (seed, i)  # the true image passes
                    verdicts.add(new)
    assert verdicts == {True, False}


def test_xi_structural_ok_needs_v_b_off_t():
    """The documented precondition: with det(v_b, T) = 0 for window u1
    of xi1 (v1, v2 ∈ ⟨v3, v4, v5⟩), `act_xi` refuses the point, and the
    check rejects an `after` that the subspace route accepts."""
    q = lambda *xs: tuple(Fraction(x) for x in xs)  # noqa: E731
    v = [q(1, 1, 0, 0), q(1, 0, 1, 0), q(1, 0, 0, 0), q(0, 1, 0, 0),
         q(0, 0, 1, 0), q(0, 0, 0, 1), q(1, 2, 3, 4), q(2, -1, 5, 7)]
    before = ModuliPoint.from_columns(T44, QQ, tuple(v))
    with pytest.raises(monodromy.DegeneracyError):
        act_xi(before, 1)
    u1 = tuple(b - a for a, b in zip(v[0], v[1]))  # v2 − v1 ∈ ⟨v3, v4, v5⟩
    ints, den = monodromy._replacement_vector(before, *LOOP_WINDOWS["X1"][0][1])
    u2 = tuple(Fraction(x, den) for x in ints)
    after = ModuliPoint.from_columns(T44, QQ, (v[1], u1, v[2], v[3], v[5], u2, v[6], v[7]))
    assert oracle_xi_structural_ok(before, 1, after)
    assert not xi_structural_ok(before, 1, after)


def naive_xi_report(n_points, seed, field):
    """xi_pluecker_report replayed word by word from each point, letter
    by letter, checking every step."""
    rng = Random(seed)
    samples = []
    for _ in range(n_points):
        p = random_point(T44, field, rng.randrange(2**62))
        ok, per_word = True, {}
        for word in XI_REPORT_WORDS:
            q = p
            for i in word:
                nxt = act_xi(q, i)
                ok = xi_structural_ok(q, i, nxt) and ok
                q = nxt
            per_word[word] = [pluecker(q, ix) for ix in PLUECKER_SET]
        samples.append(([pluecker(p, ix) for ix in PLUECKER_SET], per_word, ok))
    plabel = lambda ix: "P" + "".join(map(str, ix))  # noqa: E731
    wlabel = lambda w: " ".join(f"X{i}" for i in w)  # noqa: E731
    cols = list(enumerate(PLUECKER_SET))
    invariance = {
        wlabel(w): {plabel(ix): all(pw[w][c] == b[c] for b, pw, _ in samples)
                    for c, ix in cols}
        for w in XI_REPORT_WORDS
    }
    matches = {
        wlabel(w): {
            plabel(ix): [plabel(o) for d, o in cols
                         if all(pw[w][c] == b[d] for b, pw, _ in samples)]
            for c, ix in cols
        }
        for w in XI_REPORT_WORDS
    }
    braid = {}
    for c, ix in cols:
        agree = sum(pw[(1, 2, 1)][c] == pw[(2, 1, 2)][c] for _, pw, _ in samples)
        braid[plabel(ix)] = {"equal": agree == n_points, "agree": agree, "n": n_points}
    structural = all(ok for _, _, ok in samples)
    return XiReport(n_points, seed, field, structural, invariance, matches, braid)


@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(DEFAULT_PRIME), QQ],
                         ids=["F3", "Fp", "Q"])
def test_xi_report_prefix_sharing_matches_naive_replay(field, monkeypatch):
    expected = report_dumps(naive_xi_report(6, 11, field))
    calls = {"act_xi": 0, "check": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(explorer, "act_xi", counted("act_xi", act_xi))
    monkeypatch.setattr(explorer, "xi_structural_ok",
                        counted("check", xi_structural_ok))
    report = xi_pluecker_report(n_points=6, seed=11, field=field)
    assert report_dumps(report) == expected
    assert report.structural_all_ok
    # 9 distinct prefixes among the 14 steps of the 7 words, per point
    assert calls == {"act_xi": 6 * 9, "check": 6 * 9}


def test_xi_report_frozen_observations():
    report = xi_pluecker_report(n_points=8, seed=11)
    assert report.structural_all_ok
    assert set(report.invariance) == {
        "X1", "X2", "X3", "X1 X2 X1", "X2 X1 X2", "X3 X2", "X3 X2 X1",
    }
    x2_invariant = sorted(p for p, ok in report.invariance["X2"].items() if ok)
    assert x2_invariant == ["P2348", "P2367", "P4678"]
    assert all(v["equal"] for v in report.braid_comparison.values())
    assert all(v["n"] == 8 for v in report.braid_comparison.values())
    # an invariant coordinate matches itself in the pullback table
    assert "P2348" in report.matches["X2"]["P2348"]


def test_xi_report_shape_and_determinism():
    report = xi_pluecker_report(n_points=4, seed=3)
    data = report.to_json()
    assert data["pluecker_set"][0] == "P1378"
    assert len(data["pluecker_set"]) == 9
    assert data["words"] == [
        "X1", "X2", "X3", "X1 X2 X1", "X2 X1 X2", "X3 X2", "X3 X2 X1",
    ]
    again = xi_pluecker_report(n_points=4, seed=3)
    assert report_dumps(report) == report_dumps(again)
    parsed = json.loads(report_dumps(report))
    assert parsed["structural_all_ok"] is True
    with pytest.raises(ValueError):
        xi_pluecker_report(n_points=0)


def test_pluecker_set_is_valid_for_t44():
    p = random_point(T44, PrimeField(DEFAULT_PRIME), 1)
    assert len(PLUECKER_SET) == 9
    for idx in PLUECKER_SET:
        assert len(idx) == 4 and idx == tuple(sorted(idx))
        pluecker(p, idx)  # raises if any index is invalid
    assert len(XI_REPORT_WORDS) == 7


def test_reports_build_scalars_only_for_witness_json(monkeypatch):
    # Every report computes on the int form: no point's `columns` are
    # built during a report, and the sweep's JSON builds those of each
    # distinct witness point once.
    calls = []
    build = ModuliPoint.columns.func

    def counting(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(ModuliPoint.columns, "func", counting)
    verify_relations(n_points=4, field=QQ)
    xi_pluecker_report(n_points=4)
    xi_pluecker_report(n_points=2, field=QQ)
    sweep = faithfulness_sweep(max_syllables=4, probe_budget=2, n_points=8)
    assert calls == []
    text = report_dumps(sweep)
    witness_points = {e.witness.point for e in sweep.entries if e.witness is not None}
    built = len(witness_points)
    assert witness_points and len(calls) == built
    assert report_dumps(sweep) == text and len(calls) == built  # kept, not rebuilt
