"""Loop point maps: shift, sigma1, xi, group words, pullback identities."""

from fractions import Fraction

import pytest

from legmon.fields import DEFAULT_PRIME, QQ, PrimeField
from legmon.linalg import (
    DegenerateNormalization,
    Subspace,
    intersect,
    wedge,
    wedge_normalize,
)
from legmon.moduli import (
    ModuliPoint, T36, T44, pluecker, random_point, validate_point,
)
from legmon.monodromy import (
    _SIGMA1_WINDOWS,
    _XI_TABLE,
    DegenerateIntersection,
    _replacement_vector,
    act_shift,
    act_sigma1,
    act_word,
    act_xi,
    parse_group_word,
)

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
    windows = [("u1", (1, 2), (3, 4), 2), ("u2", (4, 5), (6, 7), 5), ("u3", (7, 8), (9, 1), 8)]
    for p in fp_points(T36, 10):
        out = act_sigma1(p)
        kept = {1: 2, 3: 3, 4: 5, 6: 6, 7: 8, 9: 9}
        for dst, src in kept.items():
            assert out.columns[dst - 1] == p.col(src)
        for _, pair, other, dst in windows:
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
            for label, pair, other in _SIGMA1_WINDOWS
        ]
    return [spec for specs, _ in _XI_TABLE.values() for spec in specs]


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
            assert _replacement_vector(p, label, pair, other) == oracle_replacement(p, pair, other)


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
            assert _replacement_vector(q, label, pair, other) == oracle_replacement(q, pair, other)
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
            assert validate_point(image).is_valid


def test_sigma1_family_check():
    with pytest.raises(ValueError):
        act_sigma1(random_point(T44, FP, 1))
    with pytest.raises(ValueError):
        act_xi(random_point(T36, FP, 1), 1)
    with pytest.raises(ValueError):
        act_xi(random_point(T44, FP, 1), 4)


def doctored_t36(v3, v4):
    base = random_point(T36, QQ, 11)
    cols = list(base.columns)
    cols[0], cols[1], cols[2], cols[3] = qv(1, 0, 0), qv(0, 1, 0), v3, v4
    return ModuliPoint(T36, QQ, tuple(cols))


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
    p = ModuliPoint(T44, QQ, tuple(tuple(Fraction(x) for x in c) for c in XI_EXAMPLE_COLUMNS))
    out = act_xi(p, 1)
    assert out.columns[1] == qv(-1, -1, 0, 0)
    assert out.columns[5] == qv("-5/7", "-6/7", "-5/7", "-5/7")
    assert out.columns[0] == p.col(2)
    assert out.columns[2] == p.col(3)
    assert out.columns[3] == p.col(4)
    assert out.columns[4] == p.col(6)
    assert out.columns[6] == p.col(7)
    assert out.columns[7] == p.col(8)


XI_WINDOWS = {
    1: [("u1", (1, 2), (3, 4, 5), 2), ("u2", (5, 6), (7, 8, 1), 6)],
    2: [("u1", (2, 3), (4, 5, 6), 3), ("u2", (6, 7), (8, 1, 2), 7)],
    3: [("u1", (3, 4), (5, 6, 7), 4), ("u2", (7, 8), (1, 2, 3), 8)],
}


@pytest.mark.parametrize("i", [1, 2, 3])
def test_xi_postconditions(i):
    from legmon.moduli import validate_point

    for p in fp_points(T44, 10):
        out = act_xi(p, i)
        assert validate_point(out).is_valid
        for _, pair, other, dst in XI_WINDOWS[i]:
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
    p = ModuliPoint(T44, QQ, cols)
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
        scaled = ModuliPoint(T36, QQ, tuple(tuple(lam * x for x in c) for c in p.columns))
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
