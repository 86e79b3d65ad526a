"""Points written, read and validated on the int form, against the scalar
oracles of `tests/oracles.py`.

`point_to_json` writes each entry from the form with
`Field.format_column`, `point_from_json` reads each column with
`Field.parse_column`, and `validate_point` decides each cyclic minor on
the form's ints: each must give the text, the point, the refusal
message or the verdict of the route through `ModP`/`Fraction` scalars.
"""

import contextlib
import gc
import io
import json
import sys
from fractions import Fraction
from random import Random

import pytest

from legmon import cli
from legmon.explorer import report_dumps, xi_pluecker_report
from legmon.fields import DEFAULT_PRIME, QQ, PrimeField
from legmon.moduli import (
    InvalidPoint, ModuliPoint, T36, T44, minors, point_dumps, point_from_json, point_loads,
    point_to_json, random_point, require_valid, validate_point,
)
from oracles import point_of, scalar_point_from_json, scalar_point_to_json

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(DEFAULT_PRIME), QQ]


def cyclic_windows(family):
    k, n = family.k, family.n_columns
    return [tuple((s + t) % n + 1 for t in range(k)) for s in range(n)]


def draw(family, field, rng, span=9):
    """An unchecked point: F_p entries uniform, ℚ entries with numerators
    in [-span, span] over denominators 1..12, so zero, negative and
    unit-denominator entries all occur."""
    if field == QQ:
        columns = [[Fraction(rng.randint(-span, span), rng.randint(1, 12))
                    for _ in range(family.k)] for _ in range(family.n_columns)]
        return point_of(family, field, columns)
    form = tuple((tuple(field.random_int(rng) for _ in range(family.k)), 1)
                 for _ in range(family.n_columns))
    return ModuliPoint(family, field, form)


def outcome(read, data):
    """The point `read` returns for `data`, or its refusal's type and message."""
    try:
        return read(data)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def respell(text, field, rng):
    """Another spelling of the entry `text` in `field`'s grammar: over ℚ
    not in lowest terms, without its unit denominator, or spaced out;
    over F_p unreduced, without its modulus, or spaced out."""
    if field == QQ:
        a, b = map(int, text.split("/"))
        m = rng.randint(2, 6)
        return rng.choice([f"{a * m}/{b * m}", f" {a}\t/ {b} ", f"{a}" if b == 1 else text,
                           f"{a * m}/{b * m}\n"])
    v, p = int(text.split()[0]), field.p
    return rng.choice([f"{v + p * rng.randint(1, 3)} mod {p}", f"{v - p}", f"{v}",
                       f"  {v}  mod\t{p} ", f"{v}mod {p}", f"0{v} mod 0{p}"])


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("family", [T36, T44], ids=lambda f: f.name)
def test_point_json_matches_scalar_oracle(family, field):
    rng = Random(f"{family.name} {field}")
    for _ in range(20):
        p = draw(family, field, rng)
        data = point_to_json(p)
        assert data == scalar_point_to_json(p)
        assert point_from_json(data) == scalar_point_from_json(data) == p
        assert point_loads(point_dumps(p)) == p
        for t, column in enumerate(data["columns"]):
            data["columns"][t] = [respell(x, field, rng) for x in column]
        assert point_from_json(data) == scalar_point_from_json(data) == p


def test_rational_texts_are_in_lowest_terms():
    p = point_of(T36, QQ, [
        [Fraction(a, b) for a, b in c]
        for c in [((1, 2), (1, 3), (-5, 6))] + [((2, 4), (0, 7), (-3, 1))] * 8
    ])
    assert p.form[0] == ((3, 2, -5), 6)
    assert point_to_json(p)["columns"][:2] == [["1/2", "1/3", "-5/6"], ["1/2", "0/1", "-3/1"]]


def _with_entry(data, j, t, entry):
    data = json.loads(json.dumps(data))
    data["columns"][j][t] = entry
    return data


def _malformed(field):
    """Refused and accepted point data around one valid T36 point."""
    good = point_to_json(draw(T36, field, Random(5)))
    entries = [
        # The five entries the CLI refuses as usage errors.
        "3 mod 5", "x mod 7", "1.5", "-5/0", "1/2",
        # Whitespace and sign variants, accepted or not.
        "+3", "- 3", "3 mod -7", "3 mod 7 x", "٣ mod 7", "", " ", "3mod 7",
        "+1/2", "1/-2", "1 / 2 ", " -0/7", "1//2", "\n1/2", "1/2\n", "1/2\n\n", "-0", "3 mod 07",
        # ASCII whitespace only: not the separators, NEL, NBSP or U+3000.
        "\u001c3 mod 7\u3000", "3 mod\u00a07", "\u00851/2", "1\u001f/2", "\r\f1/2\v", "3\tmod\v7",
        # Non-string entries.
        7, None, 1.5, ["1/2"],
    ]
    cases = [_with_entry(good, 4, 1, e) for e in entries]
    columns, bad_first = good["columns"], _with_entry(good, 0, 0, "1.5")
    cases += [
        {**good, "columns": columns[:-1]},
        {**good, "columns": columns + [columns[0]]},
        {**good, "columns": [columns[0][:2]] + columns[1:]},
        {**good, "columns": [columns[0] + ["1"]] + columns[1:]},
        # A bad entry comes before a count error, a non-string before both.
        {**bad_first, "columns": bad_first["columns"][:-1]},
        {**good, "columns": [["1.5", "2"], [7]] + columns},
        {**good, "columns": []},
        {**good, "columns": "1/2"},
        {**good, "columns": [columns[0], "1/2"]},
        {**good, "family": "T99"}, {**good, "family": ["T36"]},
        {**good, "field": {"kind": "fp", "p": 4}}, {**good, "field": {"kind": "fp", "p": True}},
        {**good, "field": {"kind": "r"}}, {**good, "field": "q"},
        {"family": "T36", "field": good["field"]}, [], "T36",
    ]
    return cases


@pytest.mark.parametrize("field", [PrimeField(7), QQ], ids=str)
def test_point_reader_refuses_as_oracle(field):
    refused = 0
    for data in _malformed(field):
        got = outcome(point_from_json, data)
        assert got == outcome(scalar_point_from_json, data), data
        refused += isinstance(got, tuple)
    assert refused > 30


# `\s` without `re.ASCII` matches these as whitespace too.
UNICODE_SPACES = "\u001c\u001d\u001e\u001f\u0085\u00a0\u3000"


def spaced(entry, space):
    """`entry` with `space` before it, after it, and before its "/" or
    after its "mod"."""
    inner = entry.replace("/", space + "/") if "/" in entry else entry.replace("mod ", "mod" + space)
    return [space + entry, entry + space, inner]


@pytest.mark.parametrize("field", [PrimeField(7), QQ], ids=str)
def test_point_entries_take_ascii_whitespace_only(field):
    p = random_point(T36, field, 1)
    data = point_to_json(p)
    kind = "rational" if field == QQ else "residue"
    for space in UNICODE_SPACES:
        for text in spaced(data["columns"][4][1], space):
            with pytest.raises(ValueError) as err:
                point_loads(json.dumps(_with_entry(data, 4, 1, text)))
            assert str(err.value) == f"not a {kind} scalar: {text!r}"
    for space in " \t\n\r\f\v":
        for text in spaced(data["columns"][4][1], space):
            assert point_loads(json.dumps(_with_entry(data, 4, 1, text))) == p
    if field != QQ:
        with pytest.raises(ValueError, match="not a residue scalar"):
            point_loads(json.dumps(_with_entry(data, 4, 1, "\u001c3 mod 7\u3000")))


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), QQ], ids=str)
@pytest.mark.parametrize("family", [T36, T44], ids=lambda f: f.name)
def test_int_validity_matches_minors_predicate(family, field):
    # Small fields and small ℚ numerators make vanishing minors common;
    # sampled points add valid ones where draws are rarely valid (T36 over F_2).
    rng = Random(f"valid {family.name} {field}")
    cyclic = cyclic_windows(family)
    verdicts, widest = set(), 0
    points = [draw(family, field, rng, span=2) for _ in range(300)]
    for p in points + [random_point(family, field, seed) for seed in range(5)]:
        values = list(minors(p, cyclic))
        assert validate_point(p) is all(values)
        verdicts.add(all(values))
        bad = [w for w, value in zip(cyclic, values) if not value]
        if bad:
            with pytest.raises(InvalidPoint) as err:
                require_valid(p)
            assert str(err.value) == f"vanishing cyclic minors at {bad}"
        else:
            require_valid(p)
        widest = max(widest, len(bad))
    assert verdicts == {True, False} and widest >= 2


def _run(argv, stdin=""):
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
    finally:
        sys.stdin = saved
    return out.getvalue()


def test_calls_leave_no_reference_cycles():
    # Without the cyclic collector nothing of a call is left behind: the
    # JSON writer passes its state down instead of closing over it.
    report = xi_pluecker_report(n_points=2)
    gc.collect()
    gc.disable()
    try:
        point = _run(["random-point", "--family", "T36", "--seed", "4"])
        _run(["flags"], point)
        report_dumps(report)
        assert gc.collect() == 0
    finally:
        gc.enable()
