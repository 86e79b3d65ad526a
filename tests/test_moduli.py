"""Moduli points: validity, Plücker minors, serialization, flags."""

import json
import re
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from legmon.braids import BraidWord, base_word, builtin_script
from legmon.explorer import (
    faithfulness_sweep, report_dumps, verify_relations, xi_pluecker_report,
)
from legmon.fields import (
    DEFAULT_PRIME, QQ, ModP, PrimeField, RationalField, format_scalar,
)
from legmon.linalg import Matrix, Subspace, determinant
from legmon.moduli import (
    FAMILIES,
    RETRY_BOUND,
    Family,
    FlagTuple,
    InvalidPoint,
    SamplingExhausted,
    T36,
    T44,
    _det_closed,
    cofactors,
    flags_from_point,
    get_family,
    json_dumps,
    minors,
    pluecker,
    point_dumps,
    point_loads,
    point_to_json,
    random_point,
    require_valid,
    validate_bott_samelson,
    validate_point,
)
from oracles import (
    SpanFlagTuple, point_of, random_scalar, span_flags_from_point, span_validate_bott_samelson,
)

FP = PrimeField(DEFAULT_PRIME)

E1 = (Fraction(1), Fraction(0), Fraction(0))
E2 = (Fraction(0), Fraction(1), Fraction(0))
E3 = (Fraction(0), Fraction(0), Fraction(1))


def qvec(*xs):
    return tuple(Fraction(x) for x in xs)


def qpoint(family, columns):
    return point_of(family, QQ, tuple(tuple(Fraction(x) for x in c) for c in columns))


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
    assert T36.k == 3 and T36.n_columns == 9 and T36.name == "T36"
    assert T44.k == 4 and T44.n_columns == 8 and T44.name == "T44"
    assert base_word(T36.k, T36.s).letters == (1, 2) * 9
    assert base_word(T44.k, T44.s).letters == (1, 2, 3) * 8
    assert set(FAMILIES) == {"T36", "T44"}
    with pytest.raises(ValueError):
        get_family("T45")


def test_a_family_is_two_integers():
    # (k, s) is the torus link T(k, ks) on Gr(k, k(s+1)); N and the name follow.
    assert repr(Family(3, 2)) == "Family(k=3, s=2)"
    assert T36 == Family(3, 2) and T44 == Family(4, 1)
    assert FAMILIES == {"T36": Family(3, 2), "T44": Family(4, 1)}
    for (k, s), name, n in (((3, 1), "T33", 6), ((2, 3), "T26", 8), ((4, 3), "T412", 16)):
        assert (Family(k, s).name, Family(k, s).n_columns) == (name, n)
    with pytest.raises(AttributeError):
        T36.k = 4
    assert T36.k == 3


@pytest.mark.parametrize("name, k, s", [
    *(("sigma1", 3, s) for s in range(1, 5)),
    *((f"xi{i}", 4, s) for i in (1, 2, 3) for s in range(1, 4)),
    *(("delta_power", k, s) for k in range(2, 6) for s in range(1, 4)),
])
def test_builtin_loops_start_at_their_family_base_word(name, k, s):
    # One base-word rule: the built-in loop on k strands with window
    # parameter s starts at the base word (1..k-1)^N of Family(k, s).
    k_for_delta = k if name == "delta_power" else None
    assert builtin_script(name, s, k_for_delta)[0] == BraidWord(
        k, tuple(range(1, k)) * Family(k, s).n_columns)


def test_point_shape_validation():
    data = point_to_json(sample_point())
    for columns, message in ((data["columns"][:8], "T36 needs 9 columns, got 8"),
                             ([c[:2] for c in data["columns"]], "T36 columns must have length 3")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            point_loads(json.dumps({**data, "columns": columns}))
    p = sample_point()
    assert len(p.columns) == 9 and p.columns[0] == E1
    assert p.columns[-1] == qvec(*SAMPLE_COLUMNS[8])


def test_validity_repeated_column():
    columns = (E1, E1) + tuple(qvec(*c) for c in SAMPLE_COLUMNS[2:])
    p = point_of(T36, QQ, columns)
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
    assert validate_point(point_of(T36, QQ, columns)) is False
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
    return [determinant(Matrix.from_columns([p.columns[i - 1] for i in w], p.field))
            for w in windows]


def reference_random_point(family, field, seed):
    """`random_point` with every cyclic minor of every draw taken by the
    `Matrix`/`determinant` oracle."""
    rng = Random(seed)
    for _ in range(RETRY_BOUND):
        columns = tuple(
            tuple(random_scalar(field, rng) for _ in range(family.k))
            for _ in range(family.n_columns)
        )
        p = point_of(family, field, columns)
        if all(matrix_minors(p, cyclic_windows(family))):
            return p
    raise SamplingExhausted(
        f"no valid {family.name} point found in {RETRY_BOUND} attempts (seed {seed})"
    )


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
         for x in p.columns[i - 1]]
        for i in window
    ])
    d = m.det()
    return Fraction(d.p, d.q) if rational else p.field.scalar(int(d))


def _cofactor_entries(kind, rng):
    """A draw of `kind`: small, negative and 40-digit ints, fractions or
    scalars mod 7."""
    if kind == "int":
        return rng.choice([rng.randint(-3, 3), rng.randint(-10**40, 10**40)])
    if kind == "fraction":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return ModP(rng.randint(0, 6), 7)


@pytest.mark.parametrize("kind", ["int", "fraction", "modp"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_cofactors_dot_x_is_the_determinant(k, kind):
    rng = Random(k * 31 + len(kind))
    for _ in range(200):
        x, *t = [[_cofactor_entries(kind, rng) for _ in range(k)] for _ in range(k)]
        c = cofactors(t)
        assert len(c) == k
        assert sum(a * b for a, b in zip(x, c)) == _det_closed([x, *t])


def test_cofactors_symbolic_row_k4():
    x = sympy.symbols("x0:4")
    t = [list(sympy.symbols(f"t{r}_0:4")) for r in range(3)]
    expected = sympy.Matrix([list(x), *t]).det()
    got = sum(a * b for a, b in zip(x, cofactors(t)))
    assert sympy.expand(got - expected) == 0
    # each entry is the signed 3x3 minor of t without that column
    for j, c in enumerate(cofactors(t)):
        minor = sympy.Matrix([row[:j] + row[j + 1:] for row in t]).det()
        assert sympy.expand(c - (-1) ** j * minor) == 0


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
            p = point_of(family, field, random_columns(family, field, rng))
            got = list(minors(p, windows))
            assert got == matrix_minors(p, windows)
            assert got[::7] == [sympy_minor(p, w) for w in windows[::7]]
            assert all(isinstance(x, type(field.scalar(0))) for x in got)
            cyclic = cyclic_windows(family)
            assert validate_point(p) is all(matrix_minors(p, cyclic))
            vanished += not all(matrix_minors(p, cyclic))
    # Over F_3 some sampled cyclic minors vanish, so zeros are covered too.
    assert vanished > 0 if field == PrimeField(3) else vanished == 0


def test_points_convert_once_and_images_never(monkeypatch):
    # Over Q the int form costs an lcm per column.  A point built from
    # scalars converts its N columns in one call; the JSON round trip
    # writes and reads the form, the minors, the checks and every
    # loop-map image read the carried form, and none of them converts
    # scalars, at any depth.
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
        p = point_of(family, QQ, samples[family])
        assert sizes == [family.n_columns]
        sizes.clear()
        assert point_loads(point_dumps(p)) == p
        assert sizes == []
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


def test_small_field_sampling_is_bounded():
    # Over F2 the contract is only boundedness: a valid point or a
    # SamplingExhausted naming the family and the retry bound.
    f2 = PrimeField(2)
    for family in (T36, T44):
        try:
            p = random_point(family, f2, 5)
        except SamplingExhausted as err:
            assert str(err).startswith(f"no valid {family.name} point found in {RETRY_BOUND} ")
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
        q = point_of(family, QQ, columns)
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
        tuple(Subspace.span([p.columns[(j + t) % p.family.n_columns] for t in range(d)], k,
                            p.field)
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
    assert validate_bott_samelson(flags, base_word(T36.k, T36.s))


def test_flags_round_trip_random():
    for family in (T36, T44):
        for field in (FP, QQ):
            p = random_point(family, field, 6)
            assert validate_bott_samelson(flags_from_point(p), base_word(family.k, family.s))


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
            yield FlagTuple(flags.ambient, n, tuple(nudge(flag, d, step) for flag in flags.flags))
            for m, flag in enumerate(flags.flags):
                moved = flags.flags[:m] + (nudge(flag, d, step),) + flags.flags[m + 1:]
                yield FlagTuple(flags.ambient, n, moved)


@pytest.mark.parametrize("field", [FP, PrimeField(3), PrimeField(5), QQ], ids=str)
@pytest.mark.parametrize("family", [T36, T44], ids=lambda f: f.name)
def test_window_validator_matches_span_oracle(family, field):
    """The window validator and the `Subspace` validator agree on valid
    chains, every adjacent swap, every duplicated flag, every rotation
    and the reversal, against each rotation of the base word, and on
    every one-column level nudge, in one flag or in all, against the
    base word."""
    k, letters = family.k, base_word(family.k, family.s).letters
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
                check(FlagTuple(k, flags.n_columns, chain), SpanFlagTuple(k, span_chain), word)
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
            doctored = FlagTuple(flags.ambient, flags.n_columns, tuple(swapped))
            assert not validate_bott_samelson(doctored, base_word(family.k, family.s))


def test_flags_invalid_point():
    columns = (E1, E1) + tuple(qvec(*c) for c in SAMPLE_COLUMNS[2:])
    with pytest.raises(InvalidPoint) as err:
        flags_from_point(point_of(T36, QQ, columns))
    assert "(1, 2, 3)" in str(err.value)


def test_bott_samelson_rejects_fat_diagonal():
    flags = flags_from_point(sample_point())
    doctored = FlagTuple(flags.ambient, flags.n_columns, (flags.flags[0],) * 2 + flags.flags[2:])
    assert not validate_bott_samelson(doctored, base_word(T36.k, T36.s))


def test_bott_samelson_rejects_wrong_level():
    # Rotating the chain misaligns every step with the base word, so a
    # sigma1-step appears to change the 2-plane instead of the line.
    flags = flags_from_point(sample_point())
    rotated = FlagTuple(flags.ambient, flags.n_columns, flags.flags[1:] + flags.flags[:1])
    assert not validate_bott_samelson(rotated, base_word(T36.k, T36.s))


def test_bott_samelson_rejects_wide_level_change():
    # From flag 2 to flag 3 the word moves the line, and here it moves
    # two columns on instead of one.
    flags = flags_from_point(sample_point())
    assert flags.flags[1:3] == ((0, 0), (1, 0))
    doctored = FlagTuple(flags.ambient, flags.n_columns,
                         flags.flags[:2] + ((2, 0),) + flags.flags[3:])
    assert not validate_bott_samelson(doctored, base_word(T36.k, T36.s))
    # With one level there is no nesting to catch it: lines two columns
    # apart are rejected, one column apart (either way) accepted.
    word = BraidWord(2, (1,) * 5)
    assert not validate_bott_samelson(FlagTuple(2, 5, ((0,), (2,), (4,), (1,), (3,))), word)
    assert validate_bott_samelson(FlagTuple(2, 5, ((0,), (1,), (2,), (3,), (4,))), word)
    assert validate_bott_samelson(FlagTuple(2, 5, ((4,), (3,), (2,), (1,), (0,))), word)


def test_bott_samelson_length_mismatch():
    flags = flags_from_point(sample_point())
    with pytest.raises(ValueError, match="length mismatch"):
        validate_bott_samelson(flags, base_word(T44.k, T44.s))


def test_bott_samelson_strand_mismatch():
    # 18 letters on 4 strands against the 18 flags of F^3.
    flags = flags_from_point(sample_point())
    with pytest.raises(ValueError, match="strand mismatch"):
        validate_bott_samelson(flags, BraidWord(4, (1, 2, 3) * 6))


def rescale_column(p, i, c):
    columns = list(p.columns)
    columns[i] = tuple(c * x for x in columns[i])
    return point_of(p.family, p.field, tuple(columns))


def left_multiply(p, g):
    k = p.family.k
    columns = tuple(
        tuple(sum((g[r][t] * col[t] for t in range(k)), p.field.scalar(0)) for r in range(k))
        for col in p.columns
    )
    return point_of(p.family, p.field, columns)


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
    bad = point_of(T36, QQ, (E1, E1) + tuple(qvec(*c) for c in SAMPLE_COLUMNS[2:]))
    assert validate_point(rescale_column(bad, 3, Fraction(5))) is False
    assert validate_point(left_multiply(bad, g)) is False


def test_validity_cyclically_symmetric():
    for seed in range(3):
        p = random_point(T36, FP, seed)
        shifted = point_of(T36, FP, p.columns[1:] + p.columns[:1])
        assert validate_point(p) == validate_point(shifted)
        # the window minors are the same multiset, relabeled
        cyclic = cyclic_windows(T36)
        assert sorted(map(format_scalar, minors(p, cyclic))) == sorted(
            map(format_scalar, minors(shifted, cyclic))
        )


# Strings with non-ASCII, control, quote and backslash characters,
# lone surrogates included.
JSON_TEXT = st.text(
    st.characters(exclude_categories=()) | st.sampled_from('"\\/\x00\x1f\x7f\n\té☃𝟙'),
    max_size=6,
)
JSON_LEAVES = (st.none() | st.booleans() | st.integers()
               | st.integers(-10**40, 10**40) | JSON_TEXT
               | st.builds(list) | st.builds(dict))
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(JSON_TEXT, kids, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(tree=JSON_TREES)
def test_json_dumps_matches_stdlib(tree):
    assert json_dumps(tree) == json.dumps(tree, indent=2)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(shared=JSON_TREES, other=JSON_TREES)
def test_json_dumps_shared_containers_match_stdlib(shared, other):
    # One object at several depths and twice at one depth, as the sweep
    # shares a witness point's dict among its entries.
    tree = {"a": shared, "b": [shared, other, [shared]], "c": {"d": [shared, shared]}}
    assert json_dumps(tree) == json.dumps(tree, indent=2)


def test_json_dumps_indents_a_shared_list_per_depth():
    shared = [1, {}]
    text = json_dumps([shared, [shared]])
    assert text == json.dumps([shared, [shared]], indent=2)
    assert "\n    1,\n    {}\n  ]" in text and "\n      1,\n      {}\n    ]" in text


@pytest.mark.parametrize("value", [1.5, (1, 2), ModP(3, 7), {"a": [0.0]}, [[(1,)]], {1: 2}])
def test_json_dumps_refuses_other_types(value):
    with pytest.raises(TypeError):
        json_dumps(value)


@pytest.mark.parametrize("report", [
    lambda: verify_relations(n_points=4),
    lambda: verify_relations(n_points=3, field=QQ, probe_budget=3),
    lambda: faithfulness_sweep(max_syllables=4, probe_budget=2, n_points=8),
    lambda: faithfulness_sweep(max_syllables=4, probe_budget=0, n_points=8),
    lambda: faithfulness_sweep(max_syllables=2, n_points=4, field=QQ),
    lambda: xi_pluecker_report(n_points=4),
    lambda: xi_pluecker_report(n_points=2, field=QQ),
], ids=["relations-fp", "relations-q", "faithful", "faithful-unseparated",
        "faithful-q", "xi-fp", "xi-q"])
def test_report_text_is_stdlib_text(report):
    r = report()
    assert report_dumps(r) == json.dumps(r.json, indent=2) + "\n"


@pytest.mark.parametrize("family", [T36, T44], ids=lambda f: f.name)
@pytest.mark.parametrize("field", [FP, PrimeField(7), QQ], ids=str)
def test_point_text_is_stdlib_text(family, field):
    for seed in range(3):
        p = random_point(family, field, seed)
        assert point_dumps(p) == json.dumps(point_to_json(p), indent=2) + "\n"
