"""Reduced words, relation reports, separation witnesses, xi tables."""

import itertools
import json
from fractions import Fraction
from random import Random

import pytest

from legmon import explorer, moduli, monodromy
from legmon.explorer import (
    DELTA_INDEX,
    PLUECKER_SET,
    XI_REPORT_WORDS,
    Report,
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
from legmon.linalg import Subspace, wedge
from legmon.moduli import ModuliPoint, T36, T44, pluecker, point_to_json, random_point
from legmon.monodromy import act_sigma1, act_word, act_xi
from oracles import (
    LOOP_WINDOWS,
    _syllables,
    point_of,
    replay_witness,
    replay_witness_json,
    scratch_relations,
    scratch_reverify,
    scratch_sweep,
    window_slots,
    witness_from_json,
)

ALT_PRIME = 998244353


def brute_force_words(max_syllables):
    factor = {"A": 0, "A2": 0, "B": 1}
    found = set()
    for n in range(max_syllables + 1):
        for word in itertools.product(("A", "A2", "B"), repeat=n):
            if all(factor[x] != factor[y] for x, y in zip(word, word[1:])):
                found.add(word)
    return found


def test_reduced_words_examples():
    assert reduced_words(0) == ((),)
    assert set(reduced_words(1)) == {(), ("A",), ("A2",), ("B",)}
    two = set(reduced_words(2))
    assert two == set(reduced_words(1)) | {
        ("A", "B"), ("A2", "B"), ("B", "A"), ("B", "A2"),
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
    assert words[:4] == ((), ("A",), ("A2",), ("B",))
    lengths = [len(w) for w in words]
    assert lengths == sorted(lengths)  # shortest first
    with pytest.raises(ValueError):
        reduced_words(-1)


def test_reduced_words_are_in_shortlex_order():
    rank = {"A": 0, "A2": 1, "B": 2}
    keys = [(len(w), [rank[s] for s in w]) for w in reduced_words(8)]
    assert keys == sorted(keys)


def test_is_reduced():
    assert is_reduced(())
    assert is_reduced(("A", "B", "A2"))
    assert not is_reduced(("A", "A2"))
    assert not is_reduced(("B", "B"))
    assert not is_reduced(("c",))


def test_word_label():
    # T36 tokens print in lower case, every other token as itself.
    assert word_label(()) == "e"
    assert word_label(("A", "B", "A2")) == "a b a2"
    assert word_label(("X1", "X2", "X1")) == "X1 X2 X1"


def test_sweep_labels_read_back_to_their_token_words(monkeypatch):
    # The oracle reads every label of a sweep back to the token word the
    # sweep used: the entries' words, and each witness's word and probe.
    witnesses = []

    def recording(*args, **kwargs):
        witnesses.append(separate(*args, **kwargs))
        return witnesses[-1]

    monkeypatch.setattr(explorer, "separate", recording)
    sweep = faithfulness_sweep(max_syllables=8)
    words = reduced_words(8)[1:]
    assert len(sweep.json["witnesses"]) == len(witnesses) == len(words) == 105
    for entry, word, witness in zip(sweep.json["witnesses"], words, witnesses):
        assert _syllables(entry["word"]) == word
        if witness is not None:
            assert _syllables(entry["witness"]["word"]) == witness.word == word
            assert _syllables(entry["witness"]["probe"]) == witness.probe


def test_token_tuples_match_parsed_words():
    p = random_point(T36, PrimeField(DEFAULT_PRIME), 5)
    assert act_word(p, ("A", "B", "A2")) == act_word(p, "A B A2")
    assert act_word(p, ()) == p
    assert delta(p) == pluecker(p, DELTA_INDEX)


def _failing(report: Report) -> set:
    return {(c["relation"], c["probe"]) for c in report.json["checks"] if not c["all_pass"]}


def test_verify_relations_default_outcomes():
    report = verify_relations()
    assert report.json["n_points"] == 32 and report.json["probe_budget"] == 2
    # a3 is the full shift by three: invariant under every probe
    for check in report.json["checks"]:
        if check["relation"] == "a3":
            assert check["all_pass"] and check["passes"] == 32
    # b2 rescales columns 2, 5, 8, so exactly the probes whose pullback
    # touches a rescaled column fail
    assert _failing(report) == {("b2", "a"), ("b2", "a2 b"), ("b2", "b a")}
    assert not report.ok and report.json["all_pass"] is False
    by_key = {(c["relation"], c["probe"]): c for c in report.json["checks"]}
    for probe in ("e", "a2", "b", "a b", "b a2"):
        assert by_key["b2", probe]["all_pass"]


def test_verify_relations_prime_independent():
    report = verify_relations(n_points=8, seed=3, field=PrimeField(ALT_PRIME))
    assert _failing(report) == {("b2", "a"), ("b2", "a2 b"), ("b2", "b a")}


def test_verify_relations_probe_zero_passes():
    report = verify_relations(n_points=8, seed=3, probe_budget=0)
    assert [c["probe"] for c in report.json["checks"]] == ["e", "e"]
    assert report.ok and report.json["all_pass"] is True


def test_verify_relations_json():
    report = verify_relations(n_points=4, seed=3)
    data = report.json
    assert data["all_pass"] is False
    assert data["n_points"] == 4
    assert data["checks"][0]["relation"] == "a3"
    assert data["checks"][0]["probe"] == "e"
    assert report_dumps(report) == report_dumps(verify_relations(n_points=4, seed=3))
    with pytest.raises(ValueError):
        verify_relations(n_points=0)


def test_separate_a_with_empty_probe():
    witness = separate(("A",))
    assert witness is not None
    assert witness.probe == ()
    assert witness.word == ("A",)
    assert witness.lhs != witness.rhs
    # the empty probe compares P_147 of the shifted point, i.e. P_258(p)
    assert witness.lhs == pluecker(witness.point, (2, 5, 8))
    assert witness.rhs == pluecker(witness.point, (1, 4, 7))
    assert replay_witness(witness)


def test_separate_b_with_empty_probe():
    witness = separate(("B",), n_points=8)
    assert witness is not None and witness.probe == ()
    assert witness.lhs == pluecker(witness.point, (3, 6, 9))


def test_separate_input_validation():
    with pytest.raises(ValueError):
        separate(())
    with pytest.raises(ValueError):
        separate(("A", "A2"))
    with pytest.raises(ValueError):
        separate(("B", "B"))


@pytest.mark.parametrize("n_points", [0, -1])
def test_separate_refuses_an_empty_sample(n_points):
    # No sampled point would separate nothing; the input is refused.
    with pytest.raises(ValueError, match="n_points must be >= 1"):
        separate(("A",), n_points=n_points)


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
    witness = separate(("A", "B"), probe_budget=30, n_points=2)
    assert witness.probe == ("A",)
    assert drawn == [(), ("A",)]


def test_separate_budget_exhaustion_returns_none():
    # Delta((a b)(p)) = Delta(p) identically, so the empty probe can
    # never separate the word (a b); with probe budget 0 the search is
    # exhausted and reports None.
    assert separate(("A", "B"), probe_budget=0, n_points=8) is None


def test_separate_deterministic():
    w1 = separate(("B", "A"), seed=11)
    w2 = separate(("B", "A"), seed=11)
    assert w1 == w2


def test_separate_over_q():
    witness = separate(("A",), n_points=4, field=QQ)
    assert witness is not None
    assert isinstance(witness.lhs, Fraction)
    assert replay_witness(witness)


def test_witness_json_and_q_reverify():
    witness = separate(("A", "B", "A"), n_points=8)
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
    assert sweep.json["total_words"] == 7  # the 8 reduced words minus the empty one
    assert sweep.ok and sweep.json["all_separated"] is True
    for entry in sweep.json["witnesses"]:
        alone = separate(tuple(entry["word"].upper().split()), probe_budget=2, n_points=8, seed=4)
        assert witness_from_json(entry["witness"]) == alone


def test_sweep_probe_escalation():
    # powers of (a b) and of (b a2) are invisible to the empty probe
    # and need the probe "a"; everything else separates at probe e.
    sweep = faithfulness_sweep(max_syllables=4, probe_budget=4, n_points=16, seed=11)
    assert sweep.ok
    probes = {e["word"]: e["witness"]["probe"] for e in sweep.json["witnesses"]}
    needs_a = {word for word, probe in probes.items() if probe == "a"}
    assert needs_a == {"a b", "a b a b", "b a2", "b a2 b a2"}
    assert all(probe == "e" for word, probe in probes.items() if word not in needs_a)


def test_sweep_over_q_skips_reverify():
    sweep = faithfulness_sweep(max_syllables=1, probe_budget=1, n_points=4,
                               seed=2, field=QQ)
    assert sweep.ok and sweep.json["all_separated"] is True
    assert all(e["q_reverify"] is None for e in sweep.json["witnesses"])


def test_sweep_json():
    sweep = faithfulness_sweep(max_syllables=1, probe_budget=1, n_points=4, seed=2)
    data = sweep.json
    assert data["fraction_separated"] == "3/3"
    assert data["all_separated"] is True
    assert [w["word"] for w in data["witnesses"]] == ["a", "a2", "b"]
    assert all("witness" in w and "q_reverify" in w for w in data["witnesses"])
    assert isinstance(sweep, Report)
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
    assert json.dumps(sweep.json) == json.dumps(scratch_sweep(**kw))
    # every witness replays from the JSON alone, and the standalone
    # re-check, on its own one-point memo, agrees as well; a ℚ witness is
    # its own lift and reduces to itself
    for entry in sweep.json["witnesses"]:
        if not entry["separated"]:
            continue
        assert replay_witness_json(entry)
        witness = witness_from_json(entry["witness"])
        if isinstance(field, PrimeField):
            assert reverify_witness_q(witness) == scratch_reverify(witness)
        else:
            assert reverify_witness_q(witness)["ok"]


@pytest.mark.parametrize("field", [PrimeField(DEFAULT_PRIME), PrimeField(5), QQ],
                         ids=["Fp", "F5", "Q"])
def test_relations_match_whole_word_oracle(field):
    report = verify_relations(n_points=16, seed=7, field=field, probe_budget=3)
    assert json.dumps(report.json) == json.dumps(scratch_relations(16, 7, field, 3))


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
    assert sweep.json["total_words"] == 105 and sweep.ok
    # points carry their field: no sigma1 input repeats over F_p or over ℚ
    assert len(set(seen)) == len(seen)
    assert {p.field for p in seen} == {explorer.DEFAULT_FIELD, QQ}


def test_relations_compute_each_image_once(monkeypatch):
    seen = _record_sigma1_inputs(monkeypatch)
    verify_relations(field=QQ, probe_budget=3)
    assert seen and len(set(seen)) == len(seen)


@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(DEFAULT_PRIME), QQ],
                         ids=["F3", "Fp", "Q"])
def test_word_images_match_whole_word_replay(field):
    """One memo per point, filled in a shuffled order so that most words
    extend a prefix imaged earlier, gives each word's `act_word` image:
    every w + u with w of at most 5 and u of at most 2 tokens on T36,
    every xi report word on T44.  A second memo, filled by Δ values
    alone in another shuffled order, gives Δ of each T36 word's image."""
    t36_words = [w + u for w in reduced_words(5) for u in reduced_words(2)]
    for family, words in ((T36, t36_words), (T44, list(XI_REPORT_WORDS))):
        p = random_point(family, field, 17)
        Random(len(words)).shuffle(words)
        images, values = explorer._WordImages(p), explorer._WordImages(p)
        for w in words:
            assert images.image(w) == act_word(p, w), w
        if family is T36:
            Random(repr(field)).shuffle(words)
            for w in words:
                assert values.value(w) == delta(act_word(p, w)), w


def test_delta_builds_no_image_it_does_not_read():
    # Every T36 generator copies Δ's columns 1, 4, 7 (A and S1 from 2, 5, 8;
    # A2 and B from 3, 6, 9), so no word's own image is built for its Δ.
    # B A2 B pulls Δ back to columns 3, 6, 9 of B A2, then 5, 8, 2 of B,
    # which are B's replacement vectors: only B's image is built.
    p = random_point(T36, PrimeField(DEFAULT_PRIME), 5)
    for w in reduced_words(4)[1:]:
        images = explorer._WordImages(p)
        assert images.value(w) == delta(act_word(p, w))
        assert w not in images._images, w
    images = explorer._WordImages(p)
    images.value(("B", "A2", "B"))
    assert set(images._images) == {(), ("B",)}


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
        va, vb = before.columns[pair[0] - 1], before.columns[pair[1] - 1]
        plane = Subspace.span([va, vb], k, before.field)
        target = Subspace.span([before.columns[t - 1] for t in other], k, before.field)
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
    one = before.field.scalar(1)
    out = [after]
    for _, pair, _, upos in window_slots(f"X{i}"):
        u, vb = after.columns[upos - 1], before.columns[pair[1] - 1]
        for mutated in (
            tuple(x + x for x in u),
            tuple(-x for x in u),
            tuple(x + one for x in u),
            tuple(x + y for x, y in zip(u, vb)),
        ):
            cols = list(after.columns)
            cols[upos - 1] = mutated
            out.append(point_of(T44, before.field, tuple(cols)))
    u1, u2 = _xi_upos(i)
    for a, b in ((u1, u2), (u1, u1 - 1)):
        cols = list(after.columns)
        cols[a - 1], cols[b - 1] = cols[b - 1], cols[a - 1]
        out.append(point_of(T44, before.field, tuple(cols)))
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
    before = point_of(T44, QQ, tuple(v))
    with pytest.raises(monodromy.DegeneracyError):
        act_xi(before, 1)
    u1 = tuple(b - a for a, b in zip(v[0], v[1]))  # v2 − v1 ∈ ⟨v3, v4, v5⟩
    ints, den = monodromy._replacement_vector(before, *LOOP_WINDOWS["X1"][0][1])
    u2 = tuple(Fraction(x, den) for x in ints)
    after = point_of(T44, QQ, (v[1], u1, v[2], v[3], v[5], u2, v[6], v[7]))
    assert oracle_xi_structural_ok(before, 1, after)
    assert not xi_structural_ok(before, 1, after)


@pytest.mark.parametrize("field", [PrimeField(DEFAULT_PRIME), QQ], ids=["Fp", "Q"])
def test_xi_structural_ok_rejects_a_wrong_kernel_vector(monkeypatch, field):
    """An `act_xi` on a wrong `cofactors` still builds each u as
    dA·B − dB·A, so C·c = 0 and the wedge identity hold by construction;
    the check must reject the image all the same."""
    cofactors = monodromy.cofactors

    def wrong(t):
        c0, *rest = cofactors(t)
        return (c0 + 1, *rest)

    points = [random_point(T44, field, seed) for seed in range(5)]
    for p in points:
        for i in (1, 2, 3):
            assert xi_structural_ok(p, i, act_xi(p, i))
    for module in (moduli, monodromy, explorer):  # wherever the name is bound
        if hasattr(module, "cofactors"):
            monkeypatch.setattr(module, "cofactors", wrong)
    for p in points:
        for i in (1, 2, 3):
            assert not xi_structural_ok(p, i, act_xi(p, i)), (p, i)


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
            for i in (int(tok[1:]) for tok in word):
                nxt = act_xi(q, i)
                ok = xi_structural_ok(q, i, nxt) and ok
                q = nxt
            per_word[word] = [pluecker(q, ix) for ix in PLUECKER_SET]
        samples.append(([pluecker(p, ix) for ix in PLUECKER_SET], per_word, ok))
    plabel = lambda ix: "P" + "".join(map(str, ix))  # noqa: E731
    wlabel = " ".join
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
        agree = sum(pw[("X1", "X2", "X1")][c] == pw[("X2", "X1", "X2")][c]
                    for _, pw, _ in samples)
        braid[plabel(ix)] = {"equal": agree == n_points, "agree": agree, "n": n_points}
    structural = all(ok for _, _, ok in samples)
    return {
        "n_points": n_points,
        "seed": seed,
        "field": field.to_json(),
        "resamples": 0,
        "structural_all_ok": structural,
        "pluecker_set": [plabel(ix) for ix in PLUECKER_SET],
        "words": [wlabel(w) for w in XI_REPORT_WORDS],
        "invariance": invariance,
        "matches": matches,
        "braid_comparison": braid,
    }


# Over F_2 and F_7 a coordinate can match a wrong Q on the first points
# by chance, so the lazy table must keep filtering on every later point.
@pytest.mark.parametrize("field, n_points", [
    pytest.param(PrimeField(3), 6, id="F3"),
    pytest.param(PrimeField(DEFAULT_PRIME), 6, id="Fp"),
    pytest.param(QQ, 6, id="Q"),
    pytest.param(PrimeField(2), 6, id="F2"),
    pytest.param(PrimeField(7), 6, id="F7"),
    pytest.param(PrimeField(2), 1, id="F2-n1"),
    pytest.param(PrimeField(DEFAULT_PRIME), 1, id="Fp-n1"),
    pytest.param(PrimeField(2), 16, id="F2-n16"),
    pytest.param(PrimeField(3), 16, id="F3-n16"),
    pytest.param(PrimeField(7), 16, id="F7-n16"),
    pytest.param(QQ, 16, id="Q-n16"),
])
def test_xi_report_prefix_sharing_matches_naive_replay(field, n_points, monkeypatch):
    expected = json.dumps(naive_xi_report(n_points, 11, field))
    calls = {"act_xi": 0, "check": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(monodromy, "act_xi", counted("act_xi", act_xi))
    monkeypatch.setattr(explorer, "xi_structural_ok",
                        counted("check", xi_structural_ok))
    report = xi_pluecker_report(n_points=n_points, seed=11, field=field)
    assert json.dumps(report.json) == expected
    assert report.ok and report.json["structural_all_ok"] is True
    # 9 distinct prefixes among the 14 steps of the 7 words, per point
    assert calls == {"act_xi": n_points * 9, "check": n_points * 9}


def test_xi_report_computes_only_the_minors_a_verdict_reads(monkeypatch):
    """The first point refutes most (word, coordinate) candidates, so later
    points take far fewer than the 72 minors (9 base values and 9 per word)
    of an eager table; the count is deterministic in the seed."""
    windows = []
    minors = explorer.minors

    def counted(p, ws):
        for w, value in zip(ws, minors(p, ws)):
            windows.append(w)
            yield value

    monkeypatch.setattr(explorer, "minors", counted)
    report = xi_pluecker_report(n_points=8, seed=11)
    assert report.ok
    assert len(windows) == 282 < 8 * 72


def test_xi_report_frozen_observations():
    report = xi_pluecker_report(n_points=8, seed=11)
    data = report.json
    assert report.ok and data["structural_all_ok"] is True
    assert set(data["invariance"]) == {
        "X1", "X2", "X3", "X1 X2 X1", "X2 X1 X2", "X3 X2", "X3 X2 X1",
    }
    x2_invariant = sorted(p for p, ok in data["invariance"]["X2"].items() if ok)
    assert x2_invariant == ["P2348", "P2367", "P4678"]
    assert all(v["equal"] for v in data["braid_comparison"].values())
    assert all(v["n"] == 8 for v in data["braid_comparison"].values())
    # an invariant coordinate matches itself in the pullback table
    assert "P2348" in data["matches"]["X2"]["P2348"]


def test_xi_report_shape_and_determinism():
    report = xi_pluecker_report(n_points=4, seed=3)
    data = report.json
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
    # Every report computes on the int form and writes its witness
    # points from it: no report builds a point's `columns`, the sweep
    # included, and dumping builds none.
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
    assert any(e["separated"] for e in sweep.json["witnesses"])
    report_dumps(sweep)
    assert calls == []


def test_sweep_builds_each_witness_point_json_once(monkeypatch):
    # Witness entries on one point hold one dict, built by one
    # `point_to_json` call, and dumping builds no JSON again.
    calls = []

    def counting(p):
        calls.append(p)
        return point_to_json(p)

    monkeypatch.setattr(explorer, "point_to_json", counting)
    sweep = faithfulness_sweep(max_syllables=4, probe_budget=2, n_points=8)
    by_point = {}
    for e in sweep.json["witnesses"]:
        if e["separated"]:
            by_point.setdefault(json.dumps(e["witness"]["point"]), []).append(e["witness"]["point"])
    assert sum(map(len, by_point.values())) > len(by_point)  # points are shared
    assert len(calls) == len(set(calls)) == len(by_point)
    assert all(d is dicts[0] for dicts in by_point.values() for d in dicts)
    text = report_dumps(sweep)
    monkeypatch.setattr(ModuliPoint.columns, "func", lambda self: pytest.fail("columns built"))
    assert report_dumps(sweep) == text and len(calls) == len(by_point)
