"""Loop point maps: shift, sigma1, xi, group words, pullback identities."""

from fractions import Fraction
from random import Random

import pytest

from legmon.fields import DEFAULT_PRIME, QQ, PrimeField
from legmon.linalg import Subspace, intersect, wedge_normalize
from legmon.moduli import (
    Family, ModuliPoint, T36, T44, pluecker, point_dumps, point_loads, random_point,
    validate_point, wedge,
)
from legmon.monodromy import (
    DegenerateIntersection,
    DegenerateNormalization,
    _blocks,
    _replace,
    _replacement_vector,
    act_shift,
    act_sigma1,
    act_word,
    act_xi,
    parse_group_word,
)
from oracles import LOOP_WINDOWS, window_slots

FP = PrimeField(DEFAULT_PRIME)


def qv(*xs):
    return tuple(Fraction(x) for x in xs)


def fp_points(family, n, start=0):
    return [random_point(family, FP, seed) for seed in range(start, start + n)]


def test_act_shift_rotation():
    p = random_point(T36, FP, 1)
    q = act_shift(p, 1)
    assert q.columns == p.columns[1:] + p.columns[:1]
    assert act_shift(p, 9) == p
    assert act_shift(p, 10) == q
    assert act_shift(p, -8) == q
    assert act_shift(act_shift(p, 4), 5) == p


def test_shift_iterated_n_times_is_identity():
    for family in (T36, T44):
        p = random_point(family, FP, 2)
        q = p
        for _ in range(family.n_columns):
            q = act_shift(q, 1)
        assert q == p


# The seven pullback identities: (lhs index, word, rhs index).
PULLBACKS_T36 = [
    ((1, 4, 7), "A", (2, 5, 8)),
    ((1, 4, 7), "A A", (3, 6, 9)),
    ((1, 4, 7), "A A A", (1, 4, 7)),
    ((3, 6, 9), "S1", (3, 6, 9)),
    ((1, 4, 7), "S1", (2, 5, 8)),
    ((1, 4, 7), "B", (3, 6, 9)),
    ((1, 4, 7), "B B", (1, 4, 7)),
]


@pytest.mark.parametrize("lhs,word,rhs", PULLBACKS_T36)
def test_pullback_identities_fp(lhs, word, rhs):
    for p in fp_points(T36, 12):
        assert pluecker(act_word(p, word), lhs) == pluecker(p, rhs)


@pytest.mark.parametrize("lhs,word,rhs", PULLBACKS_T36)
def test_pullback_identities_q(lhs, word, rhs):
    for seed in range(3):
        p = random_point(T36, QQ, seed)
        assert pluecker(act_word(p, word), lhs) == pluecker(p, rhs)


def test_sigma1_postconditions():
    _, layout = LOOP_WINDOWS["S1"]
    kept = {dst: src for dst, src in enumerate(layout, 1) if isinstance(src, int)}
    for p in fp_points(T36, 10):
        out = act_sigma1(p)
        for dst, src in kept.items():
            assert out.columns[dst - 1] == p.col(src)
        for _, pair, other, dst in window_slots("S1"):
            u = out.columns[dst - 1]
            va, vb = p.col(pair[0]), p.col(pair[1])
            plane = Subspace.span([va, vb], 3, FP)
            target = Subspace.span([p.col(i) for i in other], 3, FP)
            assert plane.contains(u) and target.contains(u)
            assert wedge(va, vb) == wedge(vb, u)


def family_windows(family):
    """Every (label, pair, other) window a loop action of the family reads,
    in the columns of the point it is applied to (B reads sigma1's
    windows shifted by one)."""
    if family is T36:
        def shifted(idx, shift):
            return tuple((i - 1 + shift) % family.n_columns + 1 for i in idx)

        return [
            (label, shifted(pair, shift), shifted(other, shift))
            for shift in (0, 1)
            for label, pair, other in LOOP_WINDOWS["S1"][0]
        ]
    return [spec for tok in ("X1", "X2", "X3") for spec in LOOP_WINDOWS[tok][0]]


def oracle_replacement(p, pair, other):
    k = p.family.k
    va, vb = p.col(pair[0]), p.col(pair[1])
    plane = Subspace.span([va, vb], k, p.field)
    target = Subspace.span([p.col(i) for i in other], k, p.field)
    return wedge_normalize(va, vb, intersect(plane, target).basis[0])


@pytest.mark.parametrize("family", [T36, T44], ids=lambda f: f.name)
def test_replacement_vector_matches_subspace_oracle(family):
    points = fp_points(family, 50) + [random_point(family, QQ, seed) for seed in range(5)]
    for p in points:
        for label, pair, other in family_windows(family):
            u = _replacement_vector(p, label, pair, other)
            assert u == p.field.form([oracle_replacement(p, pair, other)])[0]


_Q_IMAGE_WORDS = {T36: ("B", "B B", "S1 A B"), T44: ("X1", "X1 X2", "X3 X2 X1")}


@pytest.mark.parametrize("family", [T36, T44], ids=lambda f: f.name)
def test_replacement_vector_on_rational_points(family):
    # Sampled ℚ points have integer entries; their images carry
    # denominators, which the int kernel clears and restores.
    images = [act_word(random_point(family, QQ, seed), word)
              for seed in range(4) for word in _Q_IMAGE_WORDS[family]]
    fractional = set()
    for q in images:
        for label, pair, other in family_windows(family):
            for role, idx in (("a", pair[:1]), ("b", pair[1:]), ("T", other)):
                if any(x.denominator != 1 for i in idx for x in q.col(i)):
                    fractional.add(role)
            u = _replacement_vector(q, label, pair, other)
            assert u == QQ.form([oracle_replacement(q, pair, other)])[0]
    assert fractional == {"a", "b", "T"}


@pytest.mark.parametrize("family", [T36, T44], ids=lambda f: f.name)
def test_windows_are_cyclically_consecutive(family):
    # Validity (all cyclic consecutive minors nonzero) implies every loop
    # action is defined: det(v_b, T) is such a minor and v_a, v_b are
    # adjacent, hence independent.
    k, n = family.k, family.n_columns
    consecutive = {
        frozenset((s + t) % n + 1 for t in range(k)) for s in range(n)
    }
    for _, (a, b), other in family_windows(family):
        assert frozenset((b, *other)) in consecutive
        assert len(other) == k - 1
        assert b == a % n + 1


@pytest.mark.parametrize(
    "tok, k, n, start", [("S1", 3, 9, 1), ("X1", 4, 8, 1), ("X2", 4, 8, 2), ("X3", 4, 8, 3)],
    ids=["S1", "X1", "X2", "X3"],
)
def test_blocks_reproduce_the_window_table(tok, k, n, start):
    # Labels, pairs, T and output slots, against the table written out by hand.
    assert _blocks(k, n, start) == LOOP_WINDOWS[tok]


_CONJUGATION_FIELDS = [PrimeField(101), FP, QQ]


@pytest.mark.parametrize("field", _CONJUGATION_FIELDS, ids=["F101", "Fp", "Q"])
def test_xi_is_x1_conjugated_by_the_shift(field):
    # Exact on the framed int forms: == compares family, field and form.
    for seed in range(30):
        p = random_point(T44, field, seed)
        for i in (2, 3):
            assert act_xi(p, i) == act_word(p, f"SH({i - 1}) X1 SH({1 - i})")


@pytest.mark.parametrize("field", _CONJUGATION_FIELDS, ids=["F101", "Fp", "Q"])
def test_phi3_at_later_starts_is_s1_conjugated_by_the_shift(field):
    for seed in range(30):
        p = random_point(T36, field, seed)
        for start in (2, 3):
            expect = act_word(p, f"SH({start - 1}) S1 SH({1 - start})")
            assert _replace(p, *_blocks(3, 9, start)) == expect


# Families of Gr(k, n) with k | n that only the tests build; none is in FAMILIES.
_GR_FAMILIES = [Family(f"Gr({k},{n})", k, n, (k, n - k))
                for k, n in ((2, 4), (2, 6), (3, 6), (3, 12), (4, 12))]


@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(5), FP], ids=["F3", "F5", "Fp"])
@pytest.mark.parametrize("family", _GR_FAMILIES, ids=lambda f: f.name)
def test_phi_k_on_other_grassmannians(family, field):
    # At every start, Φ_k's windows are cyclically consecutive as on T36
    # and T44, its replacement vectors are the subspace route's, and it
    # keeps sampled points valid.
    k, n = family.k, family.n_columns
    consecutive = {frozenset((s + t) % n + 1 for t in range(k)) for s in range(n)}
    for start in range(1, k + 1):
        windows, layout = _blocks(k, n, start)
        assert len(windows) == n // k and windows[0][1][0] == start
        for label, (a, b), other in windows:
            assert frozenset((b, *other)) in consecutive and len(other) == k - 1
            assert b == a % n + 1
            assert layout[a - 1] == b and layout[b - 1] == label
    for seed in range(30):
        p = random_point(family, field, seed)
        for start in range(1, k + 1):
            windows, layout = _blocks(k, n, start)
            assert validate_point(_replace(p, windows, layout)) is True
            for label, pair, other in windows:
                u = _replacement_vector(p, label, pair, other)
                assert u == field.form([oracle_replacement(p, pair, other)])[0]


def fresh_form(p):
    """The int form of p's columns, converted anew by its field."""
    return p.field.form(p.columns)


def fractional_point(family, rng):
    """A valid ℚ point whose entries have mixed denominators."""
    while True:
        p = ModuliPoint.from_columns(family, QQ, tuple(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(family.k))
            for _ in range(family.n_columns)
        ))
        if validate_point(p):
            return p


_FORM_TOKENS = {T36: ("A", "A2", "B", "S1", "SH"), T44: ("X1", "X2", "X3", "SH")}


@pytest.mark.parametrize(
    "field", [PrimeField(3), PrimeField(5), FP, QQ], ids=["F3", "F5", "Fp", "Q"],
)
def test_images_carry_the_int_form_of_their_columns(field, monkeypatch):
    # Every loop map passes its image the int form it computed or kept;
    # it must equal a fresh conversion of the image's columns, so over ℚ
    # each replaced column's pair is divided by its gcd and signed so
    # that its denominator is positive, also where db·α < 0.
    dens = []
    column = type(field).column

    def recording(self, ints, den=1):
        dens.append(den)
        return column(self, ints, den)

    monkeypatch.setattr(type(field), "column", recording)
    rng = Random(53)
    for family, tokens in _FORM_TOKENS.items():
        points = [random_point(family, field, seed) for seed in range(6)]
        if field is QQ:
            points += [fractional_point(family, rng) for _ in range(3)]
        for p in points:
            assert p.form == fresh_form(p)
            for _ in range(10):
                tok = rng.choice(tokens)
                p = act_word(p, (f"SH({rng.randint(-9, 9)})" if tok == "SH" else tok,))
                assert p.form == fresh_form(p)
    if field is QQ:
        assert min(dens) < 0 < max(dens)


def oracle_image_columns(p, tok):
    """The columns of tok(p) from p's scalars: rotated for a shift, and
    by `oracle_replacement` (intersect, then wedge_normalize) in each
    replaced column of the token's layout."""
    shifts = {"A": 1, "A2": 2, "B": 1}
    if tok in shifts or tok.startswith("SH("):
        j = shifts.get(tok) or int(tok[3:-1])
        j %= p.family.n_columns
        columns = p.columns[j:] + p.columns[:j]
        if tok != "B":
            return columns
        p, tok = ModuliPoint.from_columns(T36, p.field, columns), "S1"
    windows, layout = LOOP_WINDOWS[tok]
    u = {label: oracle_replacement(p, pair, other) for label, pair, other in windows}
    return tuple(u[s] if isinstance(s, str) else p.col(s) for s in layout)


@pytest.mark.parametrize(
    "field", [PrimeField(3), PrimeField(5), FP, QQ], ids=["F3", "F5", "Fp", "Q"],
)
def test_images_build_the_oracle_columns_when_read(field):
    # An image is its int form alone; the columns it builds when first
    # read are the subspace route's, survive a JSON round trip, and a
    # point built from those scalars is == to it, with the same hash.
    rng = Random(59)
    for family, tokens in _FORM_TOKENS.items():
        points = [random_point(family, field, seed) for seed in range(3)]
        if field is QQ:
            points += [fractional_point(family, rng) for _ in range(2)]
        for p in points:
            for _ in range(4):
                images = []
                for tok in tokens:
                    tok = f"SH({rng.randint(-9, 9)})" if tok == "SH" else tok
                    image = act_word(p, (tok,))
                    assert "columns" not in vars(image)
                    expect = oracle_image_columns(p, tok)
                    assert image.columns == expect
                    assert point_loads(point_dumps(image)).columns == expect
                    built = ModuliPoint.from_columns(family, field, expect)
                    assert built == image and hash(built) == hash(image)
                    images.append(image)
                p = rng.choice(images)


@pytest.mark.parametrize("prime", [2, 3, 5, DEFAULT_PRIME])
def test_loop_maps_keep_points_valid(prime):
    # The CLI rejects invalid points before acting, and the reports
    # neither skip nor resample; both rest on this invariant, which makes
    # every word defined on a valid point.  Over F_2 about one draw in
    # 450 is valid, so it gets fewer seeds to keep sampling cheap.
    field = PrimeField(prime)
    for seed in range(25 if prime == 2 else 100):
        images = [act_sigma1(random_point(T36, field, seed))]
        q = random_point(T44, field, seed)
        images += [act_xi(q, i) for i in (1, 2, 3)]
        for image in images:
            assert validate_point(image) is True


def test_sigma1_family_check():
    with pytest.raises(ValueError):
        act_sigma1(random_point(T44, FP, 1))
    with pytest.raises(ValueError):
        act_xi(random_point(T36, FP, 1), 1)
    with pytest.raises(ValueError):
        act_xi(random_point(T44, FP, 1), 4)
    # An index equal to 1 but not an int would key `_blocks` like 1.
    for i in (1.0, True):
        with pytest.raises(ValueError, match=f"xi index must be 1, 2 or 3, got {i}"):
            act_xi(random_point(T44, FP, 1), i)


def doctored_t36(v3, v4):
    base = random_point(T36, QQ, 11)
    cols = list(base.columns)
    cols[0], cols[1], cols[2], cols[3] = qv(1, 0, 0), qv(0, 1, 0), v3, v4
    return ModuliPoint.from_columns(T36, QQ, tuple(cols))


def test_sigma1_degenerate_intersection():
    # <v1,v2> equals <v3,v4>: the meet is a plane, not a line
    p = doctored_t36(qv(1, 1, 0), qv(1, -1, 0))
    with pytest.raises(DegenerateIntersection) as err:
        act_sigma1(p)
    assert err.value.label == "u1"
    assert err.value.pair == (1, 2) and err.value.other == (3, 4)
    assert str(err.value) == (
        "u1 (pair (1, 2), T = columns (3, 4)): det(v1, T) = det(v2, T) = 0"
    )


def test_sigma1_degenerate_normalization():
    # meet line is <v2> itself: v2 wedge (c v2) = 0 can never equal v1 wedge v2
    p = doctored_t36(qv(0, 1, 0), qv(0, 0, 1))
    with pytest.raises(DegenerateNormalization) as err:
        act_sigma1(p)
    assert "u1" in str(err.value)


XI_EXAMPLE_COLUMNS = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (1, 1, 1, 1),
    (-2, -1, -2, -2),
    (-2, -2, -1, -2),
    (1, 2, -1, 3),
)


def test_xi1_frozen_example():
    # (v1..v5) = (e1,e2,e3,e4,e1+e2+e3+e4): the meet of <v1,v2> and
    # <v3,v4,v5> is the line through e1+e2, and e2 wedge (c(e1+e2))
    # matches e1 wedge e2 only for c = -1.
    p = ModuliPoint.from_columns(
        T44, QQ, tuple(tuple(Fraction(x) for x in c) for c in XI_EXAMPLE_COLUMNS))
    out = act_xi(p, 1)
    assert out.columns[1] == qv(-1, -1, 0, 0)
    assert out.columns[5] == qv("-5/7", "-6/7", "-5/7", "-5/7")
    assert out.columns[0] == p.col(2)
    assert out.columns[2] == p.col(3)
    assert out.columns[3] == p.col(4)
    assert out.columns[4] == p.col(6)
    assert out.columns[6] == p.col(7)
    assert out.columns[7] == p.col(8)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_xi_postconditions(i):
    from legmon.moduli import validate_point

    for p in fp_points(T44, 10):
        out = act_xi(p, i)
        assert validate_point(out) is True
        for _, pair, other, dst in window_slots(f"X{i}"):
            u = out.columns[dst - 1]
            va, vb = p.col(pair[0]), p.col(pair[1])
            plane = Subspace.span([va, vb], 4, FP)
            target = Subspace.span([p.col(t) for t in other], 4, FP)
            assert plane.contains(u) and target.contains(u)
            assert wedge(va, vb) == wedge(vb, u)


def test_xi_degenerate_containment():
    # <v1,v2> inside <v3,v4,v5> makes the meet 2-dimensional
    cols = (
        qv(1, 0, 0, 0), qv(0, 1, 0, 0), qv(1, 0, 1, 0), qv(0, 1, 1, 0),
        qv(0, 0, 1, 0), qv(-2, -1, -2, -2), qv(-2, -2, -1, -2), qv(1, 2, -1, 3),
    )
    p = ModuliPoint.from_columns(T44, QQ, cols)
    with pytest.raises(DegenerateIntersection) as err:
        act_xi(p, 1)
    assert err.value.label == "u1"
    assert err.value.pair == (1, 2) and err.value.other == (3, 4, 5)


def test_act_word_parsing_and_composition():
    assert parse_group_word("A A2 B S1 SH(3) X1 X2 X3") == (
        "A", "A2", "B", "S1", "SH(3)", "X1", "X2", "X3",
    )
    assert parse_group_word("") == ()
    with pytest.raises(ValueError):
        parse_group_word("A C")
    with pytest.raises(ValueError):
        parse_group_word("SH(x)")
    p = random_point(T36, FP, 3)
    # A tuple word skips parse_group_word; the token table refuses C itself.
    with pytest.raises(ValueError, match="unknown generator token 'C'"):
        act_word(p, ("A", "C"))
    assert act_word(p, "") == p
    assert act_word(p, "A A") == act_word(p, ("A2",))
    assert act_word(p, "SH(9)") == p
    assert act_word(p, "B") == act_sigma1(act_shift(p, 1))


def test_act_word_family_mismatch():
    p = random_point(T36, FP, 3)
    with pytest.raises(ValueError) as err:
        act_word(p, "A X1")
    assert "X1" in str(err.value) and "T44" in str(err.value)


def test_act_word_reports_failing_prefix():
    p = doctored_t36(qv(1, 1, 0), qv(1, -1, 0))
    with pytest.raises(DegenerateIntersection) as err:
        act_word(p, "SH(9) S1")
    assert str(err.value).startswith("token 2 (S1):")


def test_sigma1_window_equivariance():
    for p in fp_points(T36, 8):
        assert act_sigma1(act_shift(p, 3)) == act_shift(act_sigma1(p), 3)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_xi_window_equivariance(i):
    for p in fp_points(T44, 8):
        assert act_xi(act_shift(p, 4), i) == act_shift(act_xi(p, i), 4)


def test_sigma1_homogeneity():
    lam = Fraction(3, 7)
    for seed in range(4):
        p = random_point(T36, QQ, seed)
        scaled = ModuliPoint.from_columns(
            T36, QQ, tuple(tuple(lam * x for x in c) for c in p.columns))
        expect = act_sigma1(p)
        got = act_sigma1(scaled)
        assert got.columns == tuple(tuple(lam * x for x in c) for c in expect.columns)


def test_b_squared_structure():
    # B^2 fixes no column of p: it equals A^3, the shift by three, on
    # columns 1, 3, 4, 6, 7, 9 and is a nonzero multiple of A^3 on
    # columns 2, 5, 8, rescaled by ratios of consecutive-window minors.
    # So it is not the identity point map even though P_147 pulls back
    # to itself.
    for p in fp_points(T36, 6):
        out = act_word(p, "B B")
        for dst, src in ((1, 4), (3, 6), (4, 7), (6, 9), (7, 1), (9, 3)):
            assert out.columns[dst - 1] == p.col(src)
        c1 = pluecker(p, (2, 3, 4)) / pluecker(p, (3, 4, 5))
        c2 = pluecker(p, (5, 6, 7)) / pluecker(p, (6, 7, 8))
        c3 = pluecker(p, (1, 8, 9)) / pluecker(p, (1, 2, 9))
        assert out.columns[1] == tuple(c1 * x for x in p.col(5))
        assert out.columns[4] == tuple(c2 * x for x in p.col(8))
        assert out.columns[7] == tuple(c3 * x for x in p.col(2))
