"""Moduli points: validity, Plücker minors, serialization, flags."""

import json
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
import sympy

from legmon.braids import BraidWord
from legmon.fields import (
    DEFAULT_PRIME, QQ, FieldMismatch, ModP, PrimeField, RationalField, format_scalar,
)
from legmon.linalg import Matrix, Subspace, determinant
from legmon.moduli import (
    FAMILIES,
    RETRY_BOUND,
    FlagTuple,
    InvalidPoint,
    ModuliPoint,
    SamplingExhausted,
    T36,
    T44,
    flags_from_point,
    get_family,
    minors,
    pluecker,
    point_dumps,
    point_loads,
    random_point,
    require_valid,
    validate_bott_samelson,
    validate_point,
)
from oracles import (
    SpanFlagTuple, random_scalar, span_flags_from_point, span_validate_bott_samelson,
)

FP = PrimeField(DEFAULT_PRIME)

E1 = (Fraction(1), Fraction(0), Fraction(0))
E2 = (Fraction(0), Fraction(1), Fraction(0))
E3 = (Fraction(0), Fraction(0), Fraction(1))


def qvec(*xs):
    return tuple(Fraction(x) for x in xs)


def qpoint(family, columns):
    return ModuliPoint.from_columns(
        family, QQ, tuple(tuple(Fraction(x) for x in c) for c in columns))


# Nine rational columns whose cyclic windows are all nonsingular even
# though some non-consecutive minors (e.g. P_147) vanish.
SAMPLE_COLUMNS = (
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 0),
    (0, 1, 1),
    (1, 1, 1),
    (1, -1, 0),
    (0, 1, -1),
    (1, 0, 1),
)


def sample_point():
    return qpoint(T36, SAMPLE_COLUMNS)


def test_families():
    assert get_family("T36") is T36
    assert T36.k == 3 and T36.n_columns == 9 and T36.torus == (3, 6)
    assert T44.k == 4 and T44.n_columns == 8 and T44.torus == (4, 4)
    assert T36.base_word().letters == (1, 2) * 9
    assert T44.base_word().letters == (1, 2, 3) * 8
    assert set(FAMILIES) == {"T36", "T44"}
    with pytest.raises(ValueError):
        get_family("T45")


def test_point_shape_validation():
    with pytest.raises(ValueError):
        qpoint(T36, SAMPLE_COLUMNS[:8])
    with pytest.raises(ValueError):
        qpoint(T36, ((1, 0),) * 9)
    p = sample_point()
    assert p.col(1) == E1
    assert p.col(10) == E1  # cyclic
    assert p.col(0) == p.col(9)


def test_validity_repeated_column():
    columns = (E1, E1) + tuple(qvec(*c) for c in SAMPLE_COLUMNS[2:])
    p = ModuliPoint.from_columns(T36, QQ, columns)
    assert validate_point(p) is False
    assert next(minors(p, [(1, 2, 3)])) == 0
    with pytest.raises(InvalidPoint, match=re.escape("at [(1, 2, 3), (9, 1, 2)]")):
        require_valid(p)


def test_validity_stops_at_the_first_vanishing_minor(monkeypatch):
    # Window (1, 2, 3) vanishes, so the predicate takes one determinant;
    # a valid point takes all N of them.
    import legmon.moduli as moduli

    dets = []
    det = moduli._det_closed
    monkeypatch.setattr(moduli, "_det_closed", lambda rows: dets.append(rows) or det(rows))
    columns = (E1, E1) + tuple(qvec(*c) for c in SAMPLE_COLUMNS[2:])
    assert validate_point(ModuliPoint.from_columns(T36, QQ, columns)) is False
    assert len(dets) == 1
    dets.clear()
    assert validate_point(sample_point()) is True
    assert len(dets) == T36.n_columns


def test_validity_against_sympy_minors():
    p = sample_point()
    cyclic = cyclic_windows(T36)
    m = sympy.Matrix([[sympy.Rational(c[r]) for c in SAMPLE_COLUMNS] for r in range(3)])
    for window, value in zip(cyclic, minors(p, cyclic), strict=True):
        expected = m[:, [i - 1 for i in window]].det()
        assert Fraction(expected.p, expected.q) == value
    assert validate_point(p) == all(
        m[:, [(s + t) % 9 for t in range(3)]].det() != 0 for s in range(9)
    )
    assert validate_point(p) is True


def test_random_points_are_valid():
    for family in (T36, T44):
        for field in (FP, QQ):
            p = random_point(family, field, 1)
            assert validate_point(p) is True
            assert p.field == field


def test_random_point_deterministic():
    a = random_point(T36, FP, 1)
    b = random_point(T36, FP, 1)
    assert a == b
    assert random_point(T36, FP, 2) != a
    assert random_point(T44, FP, 2).family is T44


def cyclic_windows(family):
    k, n = family.k, family.n_columns
    return [tuple((s + t) % n + 1 for t in range(k)) for s in range(n)]


def matrix_minors(p, windows):
    """Each minor through the `Matrix`/`determinant` oracle."""
    return [determinant(Matrix.from_columns([p.col(i) for i in w], p.field)) for w in windows]


def reference_random_point(family, field, seed):
    """`random_point` with every cyclic minor of every draw taken by the
    `Matrix`/`determinant` oracle."""
    rng = Random(seed)
    for _ in range(RETRY_BOUND):
        columns = tuple(
            tuple(random_scalar(field, rng) for _ in range(family.k))
            for _ in range(family.n_columns)
        )
        p = ModuliPoint.from_columns(family, field, columns)
        if all(matrix_minors(p, cyclic_windows(family))):
            return p
    raise SamplingExhausted(family, seed, RETRY_BOUND)


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), FP, QQ], ids=str)
def test_random_point_matches_full_validation_sampler(field):
    # Rejecting at the first vanishing minor draws the same scalars and
    # accepts the same draw as validating every minor.
    for family in (T36, T44):
        for seed in range(20):
            assert random_point(family, field, seed) == reference_random_point(family, field, seed)


def sympy_minor(p, window):
    """The minor from sympy's determinant over ℚ, reduced mod p over F_p."""
    rational = p.field == QQ
    m = sympy.Matrix([
        [sympy.Rational(x.numerator, x.denominator) if rational else x.value
         for x in p.col(i)]
        for i in window
    ])
    d = m.det()
    return Fraction(d.p, d.q) if rational else p.field.scalar(int(d))


def random_columns(family, field, rng):
    def draw():
        if field == QQ:  # fractional entries with mixed denominators
            return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        return random_scalar(field, rng)

    return tuple(tuple(draw() for _ in range(family.k)) for _ in range(family.n_columns))


@pytest.mark.parametrize("field", [PrimeField(3), FP, QQ], ids=str)
def test_minors_match_determinant_and_sympy(field):
    rng = Random(41)
    vanished = 0
    for family in (T36, T44):
        # Every increasing window, the wrap-around cyclic windows, two
        # out-of-order windows (odd and even permutations) and a window
        # with a repeated column.
        windows = list(combinations(range(1, family.n_columns + 1), family.k))
        windows += cyclic_windows(family) + [(2, 1, *range(3, family.k + 1))]
        windows += [tuple(range(family.k, 0, -1)), (1, 1, *range(2, family.k))]
        for _ in range(4):
            p = ModuliPoint.from_columns(family, field, random_columns(family, field, rng))
            got = list(minors(p, windows))
            assert got == matrix_minors(p, windows)
            assert got[::7] == [sympy_minor(p, w) for w in windows[::7]]
            assert all(isinstance(x, type(field.zero())) for x in got)
            cyclic = cyclic_windows(family)
            assert validate_point(p) is all(matrix_minors(p, cyclic))
            vanished += not all(matrix_minors(p, cyclic))
    # Over F_3 some sampled cyclic minors vanish, so zeros are covered too.
    assert vanished > 0 if field == PrimeField(3) else vanished == 0


def test_points_convert_once_and_images_never(monkeypatch):
    # Over Q the int form costs an lcm per column.  A point built from
    # scalars converts its N columns in one call; the minors, the checks
    # and every loop-map image then read the carried form and convert
    # nothing, at any depth.
    from legmon.explorer import PLUECKER_SET, xi_structural_ok
    from legmon.monodromy import act_word, act_xi

    words = {
        T36: "A B S1 A2 B SH(4) B A S1 B A2 B SH(-2) S1 A B B A2 S1 B",
        T44: "X1 X2 X3 SH(1) X2 X1 X2 X3 X3 SH(-3) X1 X2 X1 X3 X2 SH(2) X1 X3 X2 X1",
    }
    samples = {family: random_point(family, QQ, 2).columns for family in words}
    sizes = []
    form = RationalField.form

    def counting(self, vectors):
        sizes.append(len(vectors))
        return form(self, vectors)

    monkeypatch.setattr(RationalField, "form", counting)
    for family, word in words.items():
        assert len(word.split()) == 20
        sizes.clear()
        p = ModuliPoint.from_columns(family, QQ, samples[family])
        assert sizes == [family.n_columns]
        sizes.clear()
        assert point_loads(point_dumps(p)) == p
        assert sizes == [family.n_columns]
        sizes.clear()
        image = act_word(p, word)
        for q in (p, image):
            validate_point(q)
            pluecker(q, range(1, family.k + 1))
            tuple(minors(q, cyclic_windows(family)))
        if family is T44:
            tuple(minors(image, PLUECKER_SET))
            for i in (1, 2, 3):
                assert xi_structural_ok(image, i, act_xi(image, i))
        assert sizes == []


def test_points_refuse_scalars_of_another_field():
    # Mod-11 residues in an F_7 point would take their minors mod 7, and a
    # residue in a Q point has no denominator: both are refused when the
    # point is built, naming the column and the entry.
    f7 = PrimeField(7)
    for field, j, t, stranger in (
        (f7, 2, 1, ModP(3, 11)),
        (f7, 9, 3, Fraction(1, 2)),
        (QQ, 5, 3, ModP(1, 7)),
        (QQ, 1, 2, 4),
    ):
        cols = [list(c) for c in random_point(T36, field, 1).columns]
        cols[j - 1][t - 1] = stranger
        with pytest.raises(FieldMismatch, match=rf"^column {j} entry {t}: {re.escape(repr(stranger))} "):
            ModuliPoint.from_columns(T36, field, tuple(map(tuple, cols)))


def test_small_field_sampling_is_bounded():
    # Over F2 the contract is only boundedness: a valid point or a
    # SamplingExhausted carrying the retry bound.
    f2 = PrimeField(2)
    for family in (T36, T44):
        try:
            p = random_point(family, f2, 5)
        except SamplingExhausted as err:
            assert err.attempts == RETRY_BOUND
            assert err.family is family
        else:
            assert validate_point(p) is True


def test_pluecker_examples():
    p = qpoint(T36, (E1, E2, E3, E2, E3, E1, E3, E1, E2))
    assert pluecker(p, (1, 4, 7)) == 1
    assert pluecker(p, (1, 6, 8)) == 0  # two equal columns
    sample = sample_point()
    assert pluecker(sample, (1, 4, 7)) == 0  # valid points may kill non-window minors
    assert pluecker(sample, (1, 2, 3)) == 1


@pytest.mark.parametrize("idx", [(1, 1, 7), (7, 4, 1), (0, 4, 7), (1, 4, 10), (1, 4)])
def test_pluecker_index_errors(idx):
    with pytest.raises(ValueError):
        pluecker(sample_point(), idx)


def test_pluecker_rejects_bool_indices_and_matches_column_determinant():
    from itertools import combinations

    from legmon.linalg import Matrix, determinant

    p = random_point(T36, PrimeField(7), 5)
    for idx in ((True, 4, 7), (1, 4, False), (1, True, 7)):
        with pytest.raises(ValueError, match="out of range"):
            pluecker(p, idx)
    rng = Random(17)
    for family in (T36, T44):
        columns = tuple(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(family.k))
            for _ in range(family.n_columns)
        )
        q = ModuliPoint.from_columns(family, QQ, columns)
        assert len({x.denominator for c in columns for x in c}) > 1
        for idx in combinations(range(1, family.n_columns + 1), family.k):
            by_columns = Matrix.from_columns([columns[i - 1] for i in idx], QQ)
            assert pluecker(q, idx) == determinant(by_columns)


def test_pluecker_alternating_on_determinant_substrate():
    from legmon.linalg import Matrix, determinant

    p = random_point(T36, FP, 3)
    idx = (2, 5, 9)
    swapped = (5, 2, 9)
    direct = determinant(Matrix.from_columns([p.columns[i - 1] for i in swapped], FP))
    assert direct == -pluecker(p, idx)


def test_json_round_trip():
    for p in (sample_point(), random_point(T36, FP, 4), random_point(T44, QQ, 4)):
        text = point_dumps(p)
        again = point_loads(text)
        assert again == p
        assert point_dumps(again) == text  # byte-stable
        assert text.endswith("\n")


def test_json_parse_errors():
    with pytest.raises(ValueError):
        point_loads("[]")
    with pytest.raises(ValueError):
        point_loads('{"family": "T36", "field": {"kind": "q"}}')
    good = point_dumps(sample_point())
    with pytest.raises(ValueError):
        point_loads(good.replace('"T36"', '"T99"'))
    with pytest.raises(ValueError):
        point_loads(good.replace("1/1", "1.5"))
    data = json.loads(good)
    data["columns"][1][2] = 7
    with pytest.raises(ValueError, match="column 2 entry 3"):
        point_loads(json.dumps(data))
    for family in (["T36"], {"name": "T36"}, None):
        data = json.loads(good)
        data["family"] = family
        with pytest.raises(ValueError, match="family must be a string"):
            point_loads(json.dumps(data))


def window_spans(flags, p):
    """Each flag of a window chain as the `Subspace` spans of its windows."""
    k = flags.ambient
    return tuple(
        tuple(Subspace.span([p.col(j + 1 + t) for t in range(d)], k, p.field)
              for d, j in enumerate(flag, start=1))
        for flag in flags.flags
    )


def test_flags_structure_on_sample_point():
    p = sample_point()
    flags = flags_from_point(p)
    assert isinstance(flags, FlagTuple)
    assert len(flags) == 18 and flags.ambient == 3 and flags.n_columns == 9
    assert flags.flags[1] == (0, 0)  # flag 2: first full window at v1
    assert flags.flags[0] == (0, 8)  # flag 1 wraps cyclically: its 2-plane is <v9, v1>
    spans = window_spans(flags, p)
    assert spans == span_flags_from_point(p).flags
    assert spans[1] == (Subspace.span([E1], 3, QQ), Subspace.span([E1, E2], 3, QQ))
    assert spans[0] == (Subspace.span([E1], 3, QQ), Subspace.span([qvec(1, 0, 1), E1], 3, QQ))
    assert validate_bott_samelson(flags, T36.base_word())


def test_flags_round_trip_random():
    for family in (T36, T44):
        for field in (FP, QQ):
            p = random_point(family, field, 6)
            assert validate_bott_samelson(flags_from_point(p), family.base_word())


@pytest.mark.parametrize("field", [PrimeField(3), FP], ids=str)
@pytest.mark.parametrize("family", [T36, T44], ids=lambda f: f.name)
def test_flags_match_fresh_span_chain(family, field):
    for seed in range(50):
        p = random_point(family, field, seed)
        flags = flags_from_point(p)
        assert (flags.ambient, flags.n_columns) == (family.k, family.n_columns)
        assert window_spans(flags, p) == span_flags_from_point(p).flags


def chain_variants(chain):
    """The chain, its reversal, and for every m the swap of flags m and
    m+1, flag m replaced by a copy of flag m-1, and the rotation by m
    (indices cyclic)."""
    yield chain
    yield chain[::-1]
    for m in range(len(chain)):
        swapped = list(chain)
        nxt = (m + 1) % len(chain)
        swapped[m], swapped[nxt] = chain[nxt], chain[m]
        yield tuple(swapped)
        yield chain[:m] + (chain[m - 1],) + chain[m + 1:]
        yield chain[m:] + chain[:m]


def nudged_chains(flags):
    """Window chains with one level moved by one column, in one flag or
    in every flag (which keeps each adjacent step and breaks nesting)."""
    n = flags.n_columns

    def nudge(flag, d, step):
        return flag[:d] + ((flag[d] + step) % n,) + flag[d + 1:]

    for d in range(flags.ambient - 1):
        for step in (1, -1):
            yield replace(flags, flags=tuple(nudge(flag, d, step) for flag in flags.flags))
            for m, flag in enumerate(flags.flags):
                moved = flags.flags[:m] + (nudge(flag, d, step),) + flags.flags[m + 1:]
                yield replace(flags, flags=moved)


@pytest.mark.parametrize("field", [FP, PrimeField(3), PrimeField(5), QQ], ids=str)
@pytest.mark.parametrize("family", [T36, T44], ids=lambda f: f.name)
def test_window_validator_matches_span_oracle(family, field):
    """The window validator and the `Subspace` validator agree on valid
    chains, every adjacent swap, every duplicated flag, every rotation
    and the reversal, against each rotation of the base word, and on
    every one-column level nudge, in one flag or in all, against the
    base word."""
    k, letters = family.k, family.base_letters
    words = [BraidWord(k, letters[r:] + letters[:r]) for r in range(k - 1)]
    verdicts = set()

    def check(f, oracle, word):
        verdict = validate_bott_samelson(f, word)
        assert verdict == span_validate_bott_samelson(oracle, word)
        verdicts.add(verdict)

    for seed in range(2):
        p = random_point(family, field, seed)
        flags, spans = flags_from_point(p), span_flags_from_point(p)
        for chain, span_chain in zip(chain_variants(flags.flags), chain_variants(spans.flags)):
            for word in words:
                check(replace(flags, flags=chain), SpanFlagTuple(k, span_chain), word)
        span_of = {(d, j): span for flag, span_flag in zip(flags.flags, spans.flags)
                   for d, (j, span) in enumerate(zip(flag, span_flag), start=1)}
        for f in nudged_chains(flags):
            oracle = tuple(tuple(span_of[d, j] for d, j in enumerate(flag, start=1))
                           for flag in f.flags)
            check(f, SpanFlagTuple(k, oracle), words[0])
    assert verdicts == {True, False}


@pytest.mark.parametrize("family", [T36, T44], ids=lambda f: f.name)
def test_bott_samelson_rejects_swapped_adjacent_flags(family):
    for seed in range(3):
        flags = flags_from_point(random_point(family, FP, seed))
        chain = flags.flags
        for m in range(len(chain)):
            swapped = list(chain)
            nxt = (m + 1) % len(chain)
            swapped[m], swapped[nxt] = chain[nxt], chain[m]
            assert not validate_bott_samelson(replace(flags, flags=tuple(swapped)), family.base_word())


def test_flags_invalid_point():
    columns = (E1, E1) + tuple(qvec(*c) for c in SAMPLE_COLUMNS[2:])
    with pytest.raises(InvalidPoint) as err:
        flags_from_point(ModuliPoint.from_columns(T36, QQ, columns))
    assert "(1, 2, 3)" in str(err.value)


def test_bott_samelson_rejects_fat_diagonal():
    flags = flags_from_point(sample_point())
    doctored = replace(flags, flags=(flags.flags[0],) * 2 + flags.flags[2:])
    assert not validate_bott_samelson(doctored, T36.base_word())


def test_bott_samelson_rejects_wrong_level():
    # Rotating the chain misaligns every step with the base word, so a
    # sigma1-step appears to change the 2-plane instead of the line.
    flags = flags_from_point(sample_point())
    rotated = replace(flags, flags=flags.flags[1:] + flags.flags[:1])
    assert not validate_bott_samelson(rotated, T36.base_word())


def test_bott_samelson_rejects_wide_level_change():
    # From flag 2 to flag 3 the word moves the line, and here it moves
    # two columns on instead of one.
    flags = flags_from_point(sample_point())
    assert flags.flags[1:3] == ((0, 0), (1, 0))
    doctored = replace(flags, flags=flags.flags[:2] + ((2, 0),) + flags.flags[3:])
    assert not validate_bott_samelson(doctored, T36.base_word())
    # With one level there is no nesting to catch it: lines two columns
    # apart are rejected, one column apart (either way) accepted.
    word = BraidWord(2, (1,) * 5)
    assert not validate_bott_samelson(FlagTuple(2, 5, ((0,), (2,), (4,), (1,), (3,))), word)
    assert validate_bott_samelson(FlagTuple(2, 5, ((0,), (1,), (2,), (3,), (4,))), word)
    assert validate_bott_samelson(FlagTuple(2, 5, ((4,), (3,), (2,), (1,), (0,))), word)


def test_bott_samelson_length_mismatch():
    flags = flags_from_point(sample_point())
    with pytest.raises(ValueError, match="length mismatch"):
        validate_bott_samelson(flags, T44.base_word())


def test_bott_samelson_strand_mismatch():
    # 18 letters on 4 strands against the 18 flags of F^3.
    flags = flags_from_point(sample_point())
    with pytest.raises(ValueError, match="strand mismatch"):
        validate_bott_samelson(flags, BraidWord(4, (1, 2, 3) * 6))


def rescale_column(p, i, c):
    columns = list(p.columns)
    columns[i] = tuple(c * x for x in columns[i])
    return ModuliPoint.from_columns(p.family, p.field, tuple(columns))


def left_multiply(p, g):
    k = p.family.k
    columns = tuple(
        tuple(sum((g[r][t] * col[t] for t in range(k)), p.field.zero()) for r in range(k))
        for col in p.columns
    )
    return ModuliPoint.from_columns(p.family, p.field, columns)


def test_validity_invariance():
    rng = Random(9)
    g = [
        [Fraction(1), Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(3)],
        [Fraction(1), Fraction(0), Fraction(1)],
    ]  # det = 7
    for p in (sample_point(), random_point(T36, QQ, 7)):
        base = validate_point(p)
        for _ in range(10):
            i = rng.randrange(9)
            c = Fraction(rng.choice([1, -1, 2, 5]), rng.choice([1, 3]))
            assert validate_point(rescale_column(p, i, c)) == base
        assert validate_point(left_multiply(p, g)) == base
    bad = ModuliPoint.from_columns(T36, QQ, (E1, E1) + tuple(qvec(*c) for c in SAMPLE_COLUMNS[2:]))
    assert validate_point(rescale_column(bad, 3, Fraction(5))) is False
    assert validate_point(left_multiply(bad, g)) is False


def test_validity_cyclically_symmetric():
    for seed in range(3):
        p = random_point(T36, FP, seed)
        shifted = ModuliPoint.from_columns(T36, FP, p.columns[1:] + p.columns[:1])
        assert validate_point(p) == validate_point(shifted)
        # the window minors are the same multiset, relabeled
        cyclic = cyclic_windows(T36)
        assert sorted(map(format_scalar, minors(p, cyclic))) == sorted(
            map(format_scalar, minors(shifted, cyclic))
        )
