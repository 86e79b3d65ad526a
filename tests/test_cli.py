"""End-to-end CLI behavior: exit codes, piping, determinism, and
fuzzing of the point loader and the move-script DSL."""

import argparse
import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from legmon import cli, explorer, moduli
from legmon.braids import (
    BUILTIN_NAMES,
    BraidWord,
    IllegalMove,
    Move,
    apply_move,
    builtin_script,
    parse_script,
)
from oracles import legal_moves, moved_letters, point_of, replay_witness_json, script_text
from legmon.cli import main
from legmon.fields import DEFAULT_PRIME, PrimeField, QQ
from legmon.linalg import Subspace
from legmon.moduli import (
    T36,
    T44,
    point_dumps,
    point_loads,
    point_to_json,
    random_point,
)
from legmon.monodromy import DegeneracyError, act_shift


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def qv(*xs):
    return tuple(Fraction(x) for x in xs)


def degenerate_point():
    base = random_point(T36, QQ, 11)
    cols = list(base.columns)
    cols[0], cols[1], cols[2], cols[3] = qv(1, 0, 0), qv(0, 1, 0), qv(1, 1, 0), qv(1, -1, 0)
    return point_of(T36, QQ, tuple(cols))


def invalid_point():
    base = random_point(T36, QQ, 11)
    cols = list(base.columns)
    cols[1] = cols[0]
    return point_of(T36, QQ, tuple(cols))


def test_verify_loop_builtin(capsys):
    code, out, _ = run(capsys, "verify-loop", "--builtin", "sigma1", "--s", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("base: 1 2 1 2")
    assert lines[-1] == "loop: true"
    assert len(lines) == 9  # base + one line per move + verdict


def test_verify_loop_builtin_delta(capsys):
    code, out, _ = run(capsys, "verify-loop", "--builtin", "delta_power",
                       "--s", "1", "--k", "4")
    assert code == 0 and out.strip().endswith("loop: true")


def test_verify_loop_script_file(tmp_path, capsys):
    script = tmp_path / "loop.moves"
    script.write_text("shift\nshift\n")
    code, out, _ = run(capsys, "verify-loop", "--script", str(script),
                       "--base", "1,2,1,2,1,2,1,2,1,2,1,2,1,2,1,2,1,2",
                       "--strands", "3")
    assert code == 0
    assert out.strip().endswith("loop: true")


def test_verify_loop_not_a_loop(tmp_path, capsys):
    script = tmp_path / "open.moves"
    script.write_text("shift\n")
    code, out, _ = run(capsys, "verify-loop", "--script", str(script),
                       "--base", "1 2 1 2", "--strands", "3")
    assert code == 1
    assert out.strip().endswith("loop: false")


def test_verify_loop_illegal_move_prints_trace(tmp_path, capsys):
    script = tmp_path / "bad.moves"
    script.write_text("shift\nr3a 1\n")
    code, out, _ = run(capsys, "verify-loop", "--script", str(script),
                       "--base", "1 2 1 2", "--strands", "3")
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0] == "1 2 1 2"  # trace starts at the base word
    assert lines[-1].startswith("illegal move")


def naive_verify_loop_stdout(base, moves):
    """verify-loop's stdout, replayed move by move with the oracle's scan
    and list surgery and rendered letter by letter with str(): the
    reference for the in-place replay and its string of fixed-width
    letter slots.  `apply_move` only supplies the illegal step's message."""

    def text(letters):
        return " ".join(str(x) for x in letters)

    words = [base.letters]
    for step, move in enumerate(moves, start=1):
        if move not in legal_moves(words[-1]):
            with pytest.raises(IllegalMove) as err:
                apply_move(list(words[-1]), move)
            return "".join(text(word) + "\n" for word in words) + f"illegal move: step {step}: {err.value}\n"
        words.append(moved_letters(words[-1], move))
    lines = ["base: " + text(words[0])]
    lines += [f"{move!s:10s} -> {text(word)}" for move, word in zip(moves, words[1:])]
    lines.append(f"loop: {'true' if words[-1] == base.letters else 'false'}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_verify_loop_stdout_matches_naive_renderer(capsys, name, s):
    code, out, _ = run(capsys, "verify-loop", "--builtin", name, "--s", str(s))
    assert code == 0
    assert out == naive_verify_loop_stdout(*builtin_script(name, s))


# (id, base, moves, exit code) of each --script case.
SCRIPT_CASES = [
    ("open-path", "10,11,10,1,11,3", "r3a 1\ncomm 4\nr3d 1\ncomm 4\nshift\n", 1),
    ("loop", "10,11,10,1,11,3", "r3a 1\nr3d 1\n", 0),
    # IllegalMove: (11, 10) do not commute
    ("illegal", "10,11,10,1,11,3", "r3a 1\ncomm 2\n", 1),
    # (9, 10, 9) <-> (10, 9, 10) widens and narrows the window text;
    # the comm windows after it lie right of it, then left of it.
    ("window-width-changes", "1,9,10,9,3,11",
     "r3a 2\ncomm 5\nr3d 2\ncomm 1\ncomm 1\ncomm 5\n", 0),
    ("shift-two-digit-head", "11,3,10,1", "shift\ncomm 3\nshift\nr3a 1\n", 1),
    ("shift-empty-base", "", "shift\n", 0),
    ("shift-one-letter-base", "10", "shift\nshift\n", 0),
    ("one-digit-loop", "1,2,1,8,9,3", "r3a 1\ncomm 3\ncomm 3\nr3d 1\n" + "shift\n" * 6, 0),
    # Letters of one, two and three digits, in slots three wide.
    ("three-digit-width", "998,999,998,5,10", "r3a 1\ncomm 3\ncomm 4\nshift\nr3d 4\n", 1),
]


# Twelve strands, so the letters run to two digits, under the cases' own
# ids; then, wherever the letters fit, on 10, 11 and 1000 strands: the
# slot width follows the letters, not the strand count.
@pytest.mark.parametrize("strands,base,moves,expected_code", [
    pytest.param(strands, base, moves, code,
                 id=name if strands == 12 else f"{strands}-{name}")
    for strands in (12, 10, 11, 1000) for name, base, moves, code in SCRIPT_CASES
    if all(int(x) < strands for x in base.split(",") if x)
])
def test_verify_loop_script_stdout_matches_naive_renderer(
        tmp_path, capsys, strands, base, moves, expected_code):
    path = tmp_path / "case.moves"
    path.write_text(moves)
    code, out, _ = run(capsys, "verify-loop", "--script", str(path),
                       "--base", base, "--strands", str(strands))
    assert code == expected_code
    letters = tuple(int(x) for x in base.replace(",", " ").split())
    assert out == naive_verify_loop_stdout(BraidWord(strands, letters), parse_script(moves))


def test_verify_loop_syntax_error(tmp_path, capsys):
    script = tmp_path / "bad.moves"
    script.write_text("r3x 2\n")
    code, _, err = run(capsys, "verify-loop", "--script", str(script),
                       "--base", "1 2", "--strands", "3")
    assert code == 2
    assert "syntax error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-loop",),
        ("verify-loop", "--script", "x", "--builtin", "sigma1"),
        ("verify-loop", "--script", "nope.moves"),
        ("verify-loop", "--builtin", "sigma1", "--s", "0"),
        ("verify-loop", "--builtin", "sigma1", "--k", "3"),
        ("verify-loop", "--script", "{tmp}/missing.moves", "--base", "1,2",
         "--strands", "3"),
        ("verify-loop", "--script", "{tmp}", "--base", "1,2", "--strands", "3"),
        # Flags that do not apply to the chosen source.
        ("verify-loop", "--builtin", "sigma1", "--base", "1,2", "--strands", "3"),
        ("verify-loop", "--builtin", "sigma1", "--strands", "3"),
        ("verify-loop", "--script", "{tmp}/f.moves", "--base", "1", "--strands", "3",
         "--k", "7"),
        ("verify-loop", "--script", "{tmp}/f.moves", "--base", "1", "--strands", "3",
         "--s", "5"),
        # Loops beyond the address space, refused when their base is asked for.
        ("verify-loop", "--builtin", "delta_power", "--k", "2", "--s", str(10**18)),
        ("verify-loop", "--builtin", "delta_power", "--k", str(10**19)),
        ("verify-loop", "--builtin", "xi1", "--s", str(10**19)),
    ],
)
def test_verify_loop_usage_errors(tmp_path, capsys, argv):
    (tmp_path / "f.moves").write_text("shift\n")
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2 and out == ""
    assert err


@pytest.mark.parametrize("builtin", ["sigma1", "xi1", "xi2", "xi3"])
def test_k_with_other_builtin_names_the_flag(capsys, builtin):
    code, out, err = run(capsys, "verify-loop", "--builtin", builtin, "--k", "3")
    assert (code, out, err) == (2, "", "error: --k applies only to --builtin delta_power\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("random-point", "--family", "T36", "--seed", "1"),
        ("act", "--point", "{tmp}/p.json", "--word", "A"),
        ("relations", "--points", "1"),
        ("faithful", "--max-syllables", "1", "--points", "1"),
        ("xi-report", "--points", "1"),
    ],
)
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    (tmp_path / "p.json").write_text(point_dumps(random_point(T36, QQ, 5)))
    out_path = str(tmp_path / "no" / "such" / "dir" / "x.json")
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv),
                         "--out", out_path)
    assert code == 2 and out == ""
    assert out_path in err


PSEUDOPRIME = "3317044064679887385961981"  # composite, passes Miller-Rabin to 2..41


@pytest.mark.parametrize(
    "argv",
    [
        ("random-point", "--family", "T36", "--seed", "1", "--prime", PSEUDOPRIME),
        ("faithful", "--max-syllables", "1", "--points", "1", "--prime", PSEUDOPRIME),
    ],
)
def test_modulus_above_primality_bound_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert PSEUDOPRIME in err and "too large" in err


def test_point_file_modulus_above_primality_bound(tmp_path, capsys):
    data = point_to_json(random_point(T36, PrimeField(7), 1))
    data["field"]["p"] = int(PSEUDOPRIME)
    data["columns"] = [[s.replace("mod 7", "mod " + PSEUDOPRIME) for s in col]
                       for col in data["columns"]]
    p_file = tmp_path / "p.json"
    p_file.write_text(json.dumps(data))
    for cmd in (("act", "--word", "A"), ("flags",), ("pluecker", "--idx", "1,2,3")):
        code, out, err = run(capsys, cmd[0], "--point", str(p_file), *cmd[1:])
        assert code == 2 and out == ""
        assert PSEUDOPRIME in err


@pytest.mark.parametrize("p", [True, False, 7.0, "7"], ids=repr)
def test_point_file_modulus_must_be_an_integer(tmp_path, capsys, p):
    # JSON true/false load as bool, an int subclass; they are not moduli.
    data = point_to_json(random_point(T36, PrimeField(7), 1))
    data["field"]["p"] = p
    p_file = tmp_path / "p.json"
    p_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "flags", "--point", str(p_file))
    assert code == 2 and out == ""
    assert "prime field descriptor needs an integer p" in err


@pytest.mark.parametrize(
    "raw,fragment",
    [("abc", "invalid literal"), ("91", "not prime"), (PSEUDOPRIME, "too large")],
)
def test_bad_legmon_prime_is_usage_error(monkeypatch, capsys, raw, fragment):
    monkeypatch.setenv("LEGMON_PRIME", raw)
    code, out, err = run(capsys, "random-point", "--family", "T36", "--seed", "1")
    assert code == 2 and out == ""
    assert f"LEGMON_PRIME='{raw}'" in err and fragment in err


@pytest.mark.parametrize(
    "argv",
    [
        ("random-point", "--family", "T36", "--seed", "1", "--field", "q",
         "--prime", "7"),
        ("relations", "--points", "1", "--field", "q", "--prime", "7"),
    ],
)
def test_prime_with_rational_field_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "--prime" in err


def test_random_point_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code1, _, _ = run(capsys, "random-point", "--family", "T36", "--seed", "1",
                      "--out", str(a))
    code2, _, _ = run(capsys, "random-point", "--family", "T36", "--seed", "1",
                      "--out", str(b))
    assert code1 == code2 == 0
    assert a.read_bytes() == b.read_bytes()
    point = point_loads(a.read_text())
    assert point.family is T36


def test_random_point_stdout_and_fields(capsys):
    code, out, _ = run(capsys, "random-point", "--family", "T44", "--seed", "3",
                       "--field", "q")
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "T44"
    assert data["field"] == {"kind": "q"}


def test_act_then_pluecker_pipeline(tmp_path, capsys):
    p_file = tmp_path / "p.json"
    q_file = tmp_path / "q.json"
    run(capsys, "random-point", "--family", "T36", "--seed", "5", "--out", str(p_file))
    code, _, _ = run(capsys, "act", "--point", str(p_file), "--word", "A",
                     "--out", str(q_file))
    assert code == 0
    code, shifted_147, _ = run(capsys, "pluecker", "--point", str(q_file),
                               "--idx", "1,4,7")
    assert code == 0
    code, original_258, _ = run(capsys, "pluecker", "--point", str(p_file),
                                "--idx", "2,5,8")
    assert code == 0
    assert shifted_147 == original_258
    point = point_loads(p_file.read_text())
    assert point_loads(q_file.read_text()) == act_shift(point, 1)


def test_act_reads_stdin(monkeypatch, capsys):
    point = random_point(T36, QQ, 8)
    monkeypatch.setattr(sys, "stdin", io.StringIO(point_dumps(point)))
    code, out, _ = run(capsys, "act", "--word", "SH(9)")
    assert code == 0
    assert point_loads(out) == point


def test_act_usage_errors(tmp_path, capsys):
    p_file = tmp_path / "p.json"
    run(capsys, "random-point", "--family", "T36", "--seed", "5", "--out", str(p_file))
    code, out, err = run(capsys, "act", "--point", str(p_file), "--word", "A C")
    assert (code, out, err) == (2, "", "error: unknown generator token 'C'\n")
    code, out, err = run(capsys, "act", "--point", str(p_file), "--word", "A X1")
    assert (code, out, err) == (2, "", "error: token X1 applies to T44, point is T36\n")
    code, _, err = run(capsys, "act", "--point", str(tmp_path / "missing.json"),
                       "--word", "A")
    assert code == 2 and "cannot read point file" in err
    int_file = tmp_path / "int.json"
    data = json.loads(p_file.read_text())
    data["columns"][0] = [1, 2, 3]
    int_file.write_text(json.dumps(data))
    for cmd in (("act", "--word", "A"), ("flags",)):
        code, _, err = run(capsys, cmd[0], "--point", str(int_file), *cmd[1:])
        assert code == 2 and "column 1 entry 1" in err
    list_family = tmp_path / "list_family.json"
    data = json.loads(p_file.read_text())
    data["family"] = ["T36"]
    list_family.write_text(json.dumps(data))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    arabic = tmp_path / "arabic.json"  # `int` would read ARABIC-INDIC DIGIT THREE
    data = json.loads(p_file.read_text())
    data["columns"][0][0] = "\u0663"
    arabic.write_text(json.dumps(data))
    for bad, message in ((list_family, "family must be a string"),
                         (deep, "cannot read point file"),
                         (arabic, "cannot read point file: not a residue scalar: '\u0663'")):
        for cmd in (("act", "--word", "A"), ("flags",), ("pluecker", "--idx", "1,4,7")):
            code, _, err = run(capsys, cmd[0], "--point", str(bad), *cmd[1:])
            assert code == 2 and message in err


def test_act_degeneracy_exit_code(tmp_path, capsys):
    p_file = tmp_path / "degenerate.json"
    p_file.write_text(point_dumps(degenerate_point()))
    code, _, err = run(capsys, "act", "--point", str(p_file), "--word", "S1")
    assert code == 3
    assert "vanishing cyclic minors" in err and "(1, 2, 3)" in err


@pytest.mark.parametrize("word", ["A", "S1", "SH(9)", ""])
def test_act_rejects_invalid_point(tmp_path, capsys, word):
    p_file = tmp_path / "invalid.json"
    p_file.write_text(point_dumps(invalid_point()))
    code, out, err = run(capsys, "act", "--point", str(p_file), "--word", word)
    assert code == 3 and out == ""
    assert "vanishing cyclic minors at [(1, 2, 3), (9, 1, 2)]" in err


def test_pluecker_bad_index(tmp_path, capsys):
    p_file = tmp_path / "p.json"
    run(capsys, "random-point", "--family", "T36", "--seed", "5", "--out", str(p_file))
    for idx, message in (("1,1,7", "indices must be strictly increasing: (1, 1, 7)"),
                         ("1,2", "need 3 indices for T36, got 2"),
                         ("1,4,x", "bad index list '1,4,x'")):
        code, out, err = run(capsys, "pluecker", "--point", str(p_file), "--idx", idx)
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("field, entry, message", [
    (PrimeField(7), "3 mod 5", "residue '3 mod 5' declares modulus 5, field has 7"),
    (PrimeField(7), "x mod 7", "not a residue scalar: 'x mod 7'"),
    (QQ, "1.5", "not a rational scalar: '1.5'"),
    (QQ, "-5/0", "zero denominator: '-5/0'"),
    (PrimeField(7), "1/2", "not a residue scalar: '1/2'"),  # a ℚ entry in an F_p file
], ids=["other-modulus", "bad-residue", "bad-rational", "zero-denominator", "q-entry-in-fp"])
@pytest.mark.parametrize("cmd", [
    ("act", "--word", "A"), ("flags",), ("pluecker", "--idx", "1,4,7"),
], ids=lambda cmd: cmd[0])
def test_refused_scalar_entry_is_usage_error(tmp_path, capsys, field, entry, message, cmd):
    # Each refusal is a plain ValueError whose message names the entry.
    data = point_to_json(random_point(T36, field, 1))
    data["columns"][4][1] = entry
    p_file = tmp_path / "p.json"
    p_file.write_text(json.dumps(data))
    code, out, err = run(capsys, cmd[0], "--point", str(p_file), *cmd[1:])
    assert (code, out, err) == (2, "", f"error: cannot read point file: {message}\n")


@pytest.mark.parametrize("field", [PrimeField(7), QQ], ids=str)
def test_flags_takes_ascii_whitespace_only_around_entries(tmp_path, capsys, field):
    # `\s` without `re.ASCII` takes the information separators, NEL, NBSP
    # and U+3000 as whitespace around an entry; tab and newline stay.
    data = point_to_json(random_point(T36, field, 1))
    entry, kind = data["columns"][4][1], "rational" if field == QQ else "residue"
    p_file = tmp_path / "p.json"

    def flags_with(text):
        data["columns"][4][1] = text
        p_file.write_text(json.dumps(data))
        return run(capsys, "flags", "--point", str(p_file))

    expect = flags_with(entry)
    assert expect[0] == 0
    for text in (f"\t{entry}\n", f"\n {entry}\t"):
        assert flags_with(text) == expect, text
    for text in [f"{space}{entry}" for space in "\u001c\u001f\u0085\u00a0\u3000"] + [
            f"{entry}\u3000", f"\u001d{entry}\u001e"]:
        msg = f"error: cannot read point file: not a {kind} scalar: {text!r}\n"
        assert flags_with(text) == (2, "", msg), text


def test_flags_validates_once(tmp_path, monkeypatch, capsys):
    p_file = tmp_path / "p.json"
    p_file.write_text(point_dumps(random_point(T36, QQ, 6)))
    calls = []
    validate = moduli.validate_point
    for module in (moduli, cli):
        monkeypatch.setattr(module, "validate_point",
                            lambda p: calls.append(p) or validate(p), raising=False)
    code, _, _ = run(capsys, "flags", "--point", str(p_file))
    assert code == 0 and len(calls) == 1


def test_flags_forms_no_subspace(tmp_path, monkeypatch, capsys):
    calls = []
    span, contains = Subspace.span.__func__, Subspace.contains
    monkeypatch.setattr(Subspace, "span", classmethod(
        lambda cls, *a: calls.append("span") or span(cls, *a)))
    monkeypatch.setattr(Subspace, "contains",
                        lambda self, v: calls.append("contains") or contains(self, v))
    for family in (T36, T44):
        p_file = tmp_path / f"{family.name}.json"
        p_file.write_text(point_dumps(random_point(family, QQ, 6)))
        code, _, _ = run(capsys, "flags", "--point", str(p_file))
        assert code == 0 and calls == []
    # The counters see a direct call, so the empty list above is no accident.
    assert Subspace.span([(QQ.scalar(1),)], 1, QQ).contains((QQ.scalar(1),))
    assert calls == ["span", "contains"]


def test_flags_valid_and_invalid(tmp_path, capsys):
    p_file = tmp_path / "p.json"
    run(capsys, "random-point", "--family", "T36", "--seed", "6", "--out", str(p_file))
    code, out, _ = run(capsys, "flags", "--point", str(p_file))
    assert code == 0
    data = json.loads(out)
    assert data == {
        "valid_point": True, "family": "T36", "flags": 18, "bott_samelson": True,
    }
    bad = tmp_path / "bad.json"
    bad.write_text(point_dumps(invalid_point()))
    code, out, _ = run(capsys, "flags", "--point", str(bad))
    assert code == 1
    assert json.loads(out) == {"valid_point": False, "bott_samelson": False}


@pytest.mark.parametrize("field", [PrimeField(DEFAULT_PRIME), QQ], ids=["Fp", "Q"])
@pytest.mark.parametrize("family", [T36, T44], ids=lambda f: f.name)
def test_flags_prints_the_same_bytes_for_every_valid_point(tmp_path, capsys, family, field):
    # The window starts come from (k, s) alone and the point is read only
    # through its validity, so distinct valid points print one report.
    points = [random_point(family, field, seed) for seed in range(1, 5)]
    assert len({p.form for p in points}) == len(points)
    outs = set()
    for seed, point in enumerate(points, start=1):
        p_file = tmp_path / f"p{seed}.json"
        p_file.write_text(point_dumps(point))
        code, out, _ = run(capsys, "flags", "--point", str(p_file))
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    assert json.loads(outs.pop()) == {"valid_point": True, "family": family.name,
                                      "flags": (family.k - 1) * family.n_columns,
                                      "bott_samelson": True}


def test_relations_default_is_honest_failure(tmp_path, capsys):
    out_file = tmp_path / "relations.json"
    code, _, _ = run(capsys, "relations", "--points", "8", "--seed", "3",
                     "--out", str(out_file))
    # the b^2 point map rescales three columns, so some probed checks
    # fail; the report says so and the exit code is honest about it
    assert code == 1
    data = json.loads(out_file.read_text())
    assert data["all_pass"] is False
    failing = [(c["relation"], c["probe"]) for c in data["checks"] if not c["all_pass"]]
    assert failing == [("b2", "a"), ("b2", "a2 b"), ("b2", "b a")]


def test_relations_probe_zero_passes(capsys):
    code, out, _ = run(capsys, "relations", "--points", "8", "--seed", "3",
                       "--probe-budget", "0")
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_relations_deterministic_output(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "relations", "--points", "4", "--seed", "9", "--out", str(a))
    run(capsys, "relations", "--points", "4", "--seed", "9", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_faithful_small_sweep(capsys):
    code, out, _ = run(capsys, "faithful", "--max-syllables", "2",
                       "--probe-budget", "2", "--points", "8", "--seed", "4")
    assert code == 0
    data = json.loads(out)
    assert data["fraction_separated"] == "7/7"
    assert data["all_separated"] is True
    assert all(w["q_reverify"]["ok"] for w in data["witnesses"])
    assert all(replay_witness_json(w) for w in data["witnesses"])


@pytest.mark.parametrize("cmd", ["relations", "faithful", "xi-report"])
@pytest.mark.parametrize("points", ["0", "-1"])
def test_point_count_must_be_positive(capsys, cmd, points):
    code, out, err = run(capsys, cmd, "--points", points)
    assert code == 2 and out == ""
    assert "n_points must be >= 1" in err


@pytest.mark.parametrize("cmd", ["relations", "faithful"])
def test_probe_budget_must_be_nonnegative(capsys, cmd):
    code, out, err = run(capsys, cmd, "--points", "2", "--probe-budget", "-1")
    assert code == 2 and out == ""
    assert "probe_budget must be >= 0" in err


REPORT_FUNCTIONS = {"relations": "verify_relations", "faithful": "faithfulness_sweep",
                    "xi-report": "xi_pluecker_report"}


@pytest.mark.parametrize(
    "argv,kwargs",
    [
        (("relations",), {}),
        (("relations", "--probe-budget", "0"), {"probe_budget": 0}),
        (("faithful",), {}),
        (("faithful", "--max-syllables", "2"), {"max_syllables": 2}),
        (("xi-report",), {}),
        (("xi-report", "--points", "4"), {"n_points": 4}),
    ],
    ids=["relations", "relations-budget0", "faithful", "faithful-2-syllables",
         "xi-report", "xi-report-4-points"],
)
def test_report_defaults_are_the_library_defaults(monkeypatch, capsys, argv, kwargs):
    # The CLI writes no report default: a flag left out is the explorer
    # function's own default, and the exit code is the report's verdict.
    monkeypatch.delenv("LEGMON_PRIME", raising=False)
    report = getattr(explorer, REPORT_FUNCTIONS[argv[0]])(**kwargs)
    code, out, _ = run(capsys, *argv)
    assert out == explorer.report_dumps(report)
    assert code == (0 if report.ok else 1)


def _fail_first_call(fn, calls):
    """fn, raising a `DegeneracyError` on its first call; `calls` records
    the arguments of every call."""

    def wrapped(*args):
        calls.append(args)
        if len(calls) == 1:
            raise DegeneracyError("injected")
        return fn(*args)

    return wrapped


@pytest.mark.parametrize(
    "target,argv",
    [
        # One-token words read Δ off the sampled point, applying no map.
        ("act_word", ("faithful", "--max-syllables", "2", "--points", "2")),
        ("act_word", ("relations", "--points", "2")),
        ("act_word", ("xi-report", "--points", "2")),
    ],
)
def test_report_degeneracy_exits_three(monkeypatch, capsys, target, argv):
    # A degeneracy inside a report is a bug in a loop map: it must reach
    # the caller, not be skipped or resampled away.
    calls = []
    monkeypatch.setattr(explorer, target, _fail_first_call(getattr(explorer, target), calls))
    code, out, err = run(capsys, *argv)
    assert calls, "the injected map was never called"
    assert code == 3 and out == ""
    assert err.startswith("degeneracy: injected")


def test_xi_report_cli(capsys):
    code, out, _ = run(capsys, "xi-report", "--points", "4", "--seed", "11")
    assert code == 0
    data = json.loads(out)
    assert data["structural_all_ok"] is True
    assert data["pluecker_set"][0] == "P1378"


def test_prime_selection(monkeypatch, capsys):
    code, out, _ = run(capsys, "random-point", "--family", "T36", "--seed", "1",
                       "--prime", "997")
    assert code == 0
    assert json.loads(out)["field"] == {"kind": "fp", "p": 997}
    monkeypatch.setenv("LEGMON_PRIME", "101")
    code, out, _ = run(capsys, "random-point", "--family", "T36", "--seed", "1")
    assert code == 0
    assert json.loads(out)["field"] == {"kind": "fp", "p": 101}
    code, _, err = run(capsys, "random-point", "--family", "T36", "--seed", "1",
                       "--prime", "91")
    assert code == 2 and "prime" in err


# `int` reads ARABIC-INDIC, FULLWIDTH and other scripts' digits as ASCII
# ones, and skips underscores and surrounding whitespace; every integer
# the CLI reads takes ASCII digits only, after an optional minus.
AR = "\u0663"  # ARABIC-INDIC DIGIT THREE
FW = "\uff17"  # FULLWIDTH DIGIT SEVEN
REFUSED_INTEGERS = {  # id: (argv, LEGMON_PRIME or None, last line of stderr)
    "random-point --seed": (
        ("random-point", "--family", "T36", "--seed", AR), None,
        f"legmon random-point: error: argument --seed: invalid int value: '{AR}'"),
    "random-point --prime": (
        ("random-point", "--family", "T36", "--seed", "1", "--prime", FW), None,
        f"legmon random-point: error: argument --prime: invalid int value: '{FW}'"),
    "LEGMON_PRIME": (
        ("random-point", "--family", "T36", "--seed", "1"), FW,
        f"error: LEGMON_PRIME='{FW}': not ASCII digits"),
    "verify-loop --s": (
        ("verify-loop", "--builtin", "sigma1", "--s", AR), None,
        f"legmon verify-loop: error: argument --s: invalid int value: '{AR}'"),
    "verify-loop --k": (
        ("verify-loop", "--builtin", "delta_power", "--k", AR), None,
        f"legmon verify-loop: error: argument --k: invalid int value: '{AR}'"),
    "verify-loop --strands": (
        ("verify-loop", "--script", "-", "--base", "1,2", "--strands", AR), None,
        f"legmon verify-loop: error: argument --strands: invalid int value: '{AR}'"),
    "verify-loop --base": (
        ("verify-loop", "--script", "-", "--base", f"1,{AR}", "--strands", "4"), None,
        f"error: bad base word: not ASCII: '1,{AR}'"),
    "act --word SH(j)": (
        ("act", "--point", "{point}", "--word", f"SH({AR})"), None,
        f"error: unknown generator token 'SH({AR})'"),
    "pluecker --idx": (
        ("pluecker", "--point", "{point}", "--idx", f"1,{AR},7"), None,
        f"error: bad index list '1,{AR},7'"),
    "relations --points": (
        ("relations", "--points", AR), None,
        f"legmon relations: error: argument --points: invalid int value: '{AR}'"),
    "faithful --max-syllables": (
        ("faithful", "--max-syllables", AR), None,
        f"legmon faithful: error: argument --max-syllables: invalid int value: '{AR}'"),
    "xi-report --seed": (
        ("xi-report", "--seed", FW), None,
        f"legmon xi-report: error: argument --seed: invalid int value: '{FW}'"),
    "random-point --seed 1_0": (
        ("random-point", "--family", "T36", "--seed", "1_0"), None,
        "legmon random-point: error: argument --seed: invalid int value: '1_0'"),
    "random-point --seed ' 10 '": (
        ("random-point", "--family", "T36", "--seed", " 10 "), None,
        "legmon random-point: error: argument --seed: invalid int value: ' 10 '"),
    "LEGMON_PRIME ' 7 '": (
        ("random-point", "--family", "T36", "--seed", "1"), " 7 ",
        "error: LEGMON_PRIME=' 7 ': invalid literal for int() with base 10: ' 7 '"),
    "verify-loop --base 1_1": (
        ("verify-loop", "--script", "-", "--base", "1_1 2", "--strands", "3"), None,
        "error: bad base word: invalid literal for int() with base 10: '1_1'"),
    "pluecker --idx 1_0": (
        ("pluecker", "--point", "{point}", "--idx", "1_0,4,7"), None,
        "error: bad index list '1_0,4,7'"),
    "pluecker --idx ' 1'": (
        ("pluecker", "--point", "{point}", "--idx", " 1,4,7"), None,
        "error: bad index list ' 1,4,7'"),
}


@pytest.mark.parametrize("argv, env, last_line", list(REFUSED_INTEGERS.values()),
                         ids=list(REFUSED_INTEGERS))
def test_integer_text_takes_ascii_digits_only(argv, env, last_line, tmp_path, monkeypatch,
                                              capsys):
    point = tmp_path / "p.json"
    point.write_text(point_dumps(random_point(T36, QQ, 5)))
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    if env is not None:
        monkeypatch.setenv("LEGMON_PRIME", env)
    try:
        code = main([a.format(point=point) for a in argv])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out, err.splitlines()[-1]) == (2, "", last_line)


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


COMMANDS = ["verify-loop", "act", "pluecker", "random-point", "flags",
            "relations", "faithful", "xi-report"]


def count_parsers(monkeypatch):
    """Record the prog of every argparse parser built from now on."""
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return progs


# The progs the full parser builds: `legmon`, then one per command.
FULL_PARSER = ["legmon", *(f"legmon {name}" for name in COMMANDS)]

# A valid call of each command that runs in milliseconds.
QUICK_CALLS = {
    "verify-loop": ("--builtin", "sigma1"),
    "act": ("--point", "{tmp}/p.json", "--word", "A"),
    "pluecker": ("--point", "{tmp}/p.json", "--idx", "1,2,3"),
    "random-point": ("--family", "T44", "--seed", "3"),
    "flags": ("--point", "{tmp}/p.json"),
    "relations": ("--points", "1", "--probe-budget", "0"),
    "faithful": ("--max-syllables", "1", "--points", "1"),
    "xi-report": ("--points", "1"),
}
# The same calls with each flag abbreviated.
ABBREVIATED_CALLS = {
    "verify-loop": ("--built", "sigma1"),
    "act": ("--po", "{tmp}/p.json", "--wo", "A"),
    "pluecker": ("--po", "{tmp}/p.json", "--id", "1,2,3"),
    "random-point": ("--fam", "T44", "--seed", "3"),
    "flags": ("--po", "{tmp}/p.json"),
    "relations": ("--poi", "1", "--pro", "0"),
    "faithful": ("--max", "1", "--poi", "1"),
    "xi-report": ("--poi", "1"),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_call_builds_one_parser(command, tmp_path, monkeypatch, capsys):
    # A spelled-out call builds no argparse parser at all; the same call
    # with abbreviated flags builds the full parser once and reads the
    # same namespace.
    (tmp_path / "p.json").write_text(point_dumps(random_point(T36, QQ, 5)))
    progs = count_parsers(monkeypatch)
    argv = [command, *(a.format(tmp=tmp_path) for a in QUICK_CALLS[command])]
    monkeypatch.setattr("sys.argv", ["legmon", *argv])
    assert main() == 0  # argv=None reads the command from sys.argv
    capsys.readouterr()
    spelled = parse_outcome(main, argv, monkeypatch, capsys)
    assert progs == [] and len(spelled[1]) == 1  # one handler ran
    abbreviated = [command, *(a.format(tmp=tmp_path) for a in ABBREVIATED_CALLS[command])]
    assert parse_outcome(main, abbreviated, monkeypatch, capsys) == spelled
    assert progs == FULL_PARSER


def test_top_level_help_lists_every_command(monkeypatch, capsys):
    progs = count_parsers(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and progs == FULL_PARSER
    out = capsys.readouterr().out
    assert all(name in out for name in COMMANDS)


# Per command, argv after the command name: valid and repeated flags,
# abbreviations (unique and ambiguous), a bad int, a bad choice and a
# missing required flag where the command has one.  Each command also
# runs bare and with `-h`, `--`, `-- x`, `extra` and `--bogus` after its
# first entry, whose flags are all spelled out.  The spelled-out
# entries probe where a table-driven parser could drift from argparse:
# negative numbers and `--flag=value`, empty and flag-like values, a flag
# spelled out twice, non-ASCII digits, bad choices and missing required
# flags, and `-h` after valid pairs.
PARSE_CORPUS = {
    "verify-loop": [("--builtin", "xi1", "--s", "2"),
                    ("--s", "1", "--builtin", "sigma1", "--s", "3"),
                    ("--built", "delta_power", "--k", "4"),
                    ("--sc", "f.moves", "--ba", "1,2", "--st", "3"),
                    ("--b", "1"), ("--k", "x"), ("--builtin", "xi9"),
                    ("--script", "f.moves", "--base", "1,2", "--strands", "3"),
                    ("--builtin", "delta_power", "--s", "2", "--k", "4"),
                    ("--builtin", "sigma1", "--s", "-3"), ("--builtin", "sigma1", "--s", AR),
                    ("--builtin", "sigma1", "--s", ""), ("--base", "-1,2"),
                    ("--builtin=sigma1",)],
    "act": [("--point", "p.json", "--word", "A B"), ("--word", "A", "--word", "B"),
            ("--po", "p.json", "--wo", "X1", "--o", "o.json"), ("--point", "p.json"),
            ("--point", "p.json", "--word", "A", "--out", "o.json"),
            ("--word", "A", "--out", ""), ("--word", "A", "--out", "--point"),
            ("--point", "-", "--word", "A"), ("--word", "A", "--point", "p.json", "-h")],
    "pluecker": [("--idx", "1,2,3"), ("--id", "1", "--idx", "4,5,6"),
                 ("--point", "p.json"), ("--point", "p.json", "--idx", "1,4,7"),
                 ("--idx", f"1,{AR},7"), ("--idx", "-1,2,3")],
    "random-point": [("--family", "T36", "--seed", "5"),
                     ("--fam", "T44", "--seed", "1", "--seed", "2"),
                     ("--family", "T36", "--seed", "1", "--fi", "q", "--pr", "7"),
                     ("--family", "T36", "--seed", "x"), ("--family", "T99", "--seed", "1"),
                     ("--seed", "1"), ("--family", "T36", "--field", "r", "--seed", "1"),
                     ("--family", "T44", "--seed", "1", "--field", "q", "--prime", "7",
                      "--out", "o.json"),
                     ("--seed", "2", "--family", "T44", "--prime", "11"),
                     ("--family", "T36", "--seed", "-3"), ("--family", "T36", "--seed=5"),
                     ("--family", "T36", "--seed", "1", "--seed", "2"),
                     ("--family", "T99", "--seed", "1", "--family", "T36"),
                     ("--family", "T36", "--seed", "x", "--seed", "1"),
                     ("--family", "T36", "--seed", AR), ("--family", "T36", "--seed", FW),
                     ("--family", "T36", "--seed", " 1"), ("--family", "T36", "--seed", ""),
                     ("--family", "t36", "--seed", "1"), ("--family", "T36"),
                     ("--family", "T36", "--seed", "1", "--prime", "-7"),
                     ("--family", "T36", "--seed", "1", "-h")],
    "flags": [("--point", "p.json"), ("--po", "a.json", "--point", "b.json"),
              ("--point", "a.json", "--point", "b.json"), ("--point", ""),
              ("--point", "-"), ("--point", "--point"), ("--point",)],
    "relations": [("--points", "2", "--probe-budget", "0", "--field", "q"),
                  ("--pro", "3", "--se", "4", "--points", "1", "--points", "5"),
                  ("--p", "3"), ("--points", "x"), ("--field", "r"),
                  ("--points", "2", "--seed", "4", "--probe-budget", "1", "--field", "fp",
                   "--prime", "7", "--out", "o.json"),
                  ("--points", "-2"), ("--seed", AR), ("--field", "Q"),
                  ("--points", "1", "--points", "2")],
    "faithful": [("--max-syllables", "4"), ("--max-syl", "2", "--max-syl", "3"),
                 ("--max-syllables", "x"), ("--field", "q"), ("--pri", "5", "--o", "-"),
                 ("--max-syllables", "3", "--probe-budget", "1", "--points", "2",
                  "--seed", "5", "--prime", "7", "--out", "o.json"),
                 ("--max-syllables", "-1"), ("--probe-budget=2",), ("--out", "-"),
                 ("--points", FW)],
    "xi-report": [("--points", "3", "--seed", "2"), ("--po", "3", "--pr", "5"),
                  ("--seed", "x"), ("--out", "o.json", "--out"),
                  ("--points", "3", "--seed", "2", "--prime", "7", "--out", "o.json"),
                  ("--seed", "-2"), ("--points", "1", "--points", "1"),
                  ("--max-syllables", "2"), ("--points", "2", "--help")],
}
PARSE_ARGV = [
    (command, *rest)
    for command, corpus in PARSE_CORPUS.items()
    for rest in [*corpus, (), *((*corpus[0], *tail) for tail in (
        ("-h",), ("--",), ("--", "x"), ("extra",), ("--bogus",)))]
]
HANDLERS = ["_cmd_verify_loop", "_cmd_act", "_cmd_pluecker", "_cmd_random_point",
            "_cmd_flags", "_cmd_report"]


def parse_outcome(call, argv, monkeypatch, capsys):
    """(exit or SystemExit code, [(handler, namespace without `command`)],
    stdout, stderr) of `call(argv)` with each handler a recorder."""
    seen = []

    def recorder(name):
        def handle(args):
            seen.append((name, {k: v for k, v in vars(args).items()
                                if k not in ("command", "func")}))
            return 0
        return handle

    for name in HANDLERS:
        monkeypatch.setattr(cli, name, recorder(name))
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = call(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, seen, captured.out, captured.err


def full_parser_call(argv):
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


@pytest.mark.parametrize("argv", PARSE_ARGV, ids=" ".join)
def test_parse_matches_full_parser(argv, monkeypatch, capsys):
    # The table's direct parser, and the full parser for every line it
    # leaves, parse and report exactly as the full parser alone does.
    expected = parse_outcome(full_parser_call, argv, monkeypatch, capsys)
    assert parse_outcome(main, argv, monkeypatch, capsys) == expected


def test_module_entry_point_subcommand_help():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "legmon.cli", "flags", "-h"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: legmon flags [-h] [--point POINT]")


# Command line -> the `legmon` modules a fresh process running it loads;
# `flags`, `act` and `pluecker` are piped a point.
REPORT_MODULES = {"cli", "explorer", "fields", "moduli", "monodromy"}
COMMAND_MODULES = [
    (("random-point", "--family", "T36", "--seed", "1"), {"cli", "fields", "moduli"}),
    (("flags",), {"braids", "cli", "fields", "moduli"}),
    (("act", "--word", "A"), {"cli", "fields", "moduli", "monodromy"}),
    (("pluecker", "--idx", "1,4,7"), {"cli", "fields", "moduli"}),
    (("verify-loop", "--builtin", "sigma1"), {"braids", "cli", "fields", "moduli"}),
    (("xi-report", "--points", "2"), REPORT_MODULES),
    (("relations", "--field", "q", "--points", "2"), REPORT_MODULES),
]
# Printed by a fresh process after `import legmon`, after `import
# legmon.cli`, and after `main(argv)`: the `legmon` modules loaded, then
# the standard modules of STDLIB loaded, and last the exit code.
IMPORT_PROBE = """
import os, sys
STDLIB = ("argparse", "gettext", "dataclasses", "inspect", "fractions")
def loaded():
    return (sorted(m[7:] for m in sys.modules if m.startswith("legmon.")),
            [m for m in STDLIB if m in sys.modules])
import legmon
print(loaded())
import legmon.cli
print(loaded())
sys.stdout = open(os.devnull, "w")
code = legmon.cli.main(sys.argv[1:])
print(loaded(), code, file=sys.__stdout__)
"""


def test_imports_load_only_what_they_need():
    # Each command runs in a fresh process: `import legmon.cli` loads
    # `fields` and `moduli`, and a command adds what it runs.  No call
    # loads `dataclasses` or `inspect`, a spelled-out call not `argparse`,
    # and only the call over Q loads `fractions`.
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("LEGMON_PRIME", None)
    piped = point_dumps(random_point(T36, PrimeField(DEFAULT_PRIME), 1))
    for argv, modules in COMMAND_MODULES:
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv], capture_output=True,
                              text=True, env=env, timeout=60,
                              input=piped if argv[0] in ("flags", "act", "pluecker") else "")
        assert proc.returncode == 0 and proc.stderr == "", argv
        package, imported, ran = proc.stdout.splitlines()
        assert package == "([], [])"
        assert imported == "(['cli', 'fields', 'moduli'], [])"
        rational = ["fractions"] if "q" in argv else []
        assert ran in (f"({sorted(modules)}, {rational}) {code}" for code in (0, 1)), argv


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
VALID_POINTS = [
    point_to_json(random_point(family, field, 1))
    for family in (T36, T44)
    for field in (QQ, PrimeField(11), PrimeField(DEFAULT_PRIME))
]
SCALARS = st.sampled_from(["0", "1/0", "-3/4", "5 mod 11", "5 mod 7", "2 mod",
                           "1e3", " 7 ", "9" * 40]) | st.text(max_size=6)


@st.composite
def mutated_points(draw):
    """A valid point dict with its family, field or columns perturbed."""
    data = copy.deepcopy(draw(st.sampled_from(VALID_POINTS)))
    target = draw(st.sampled_from(["family", "field", "p", "columns", "column",
                                   "entry", "drop"]))
    if target == "family":
        data["family"] = draw(st.sampled_from(["T36", "T44", "t36"]) | JSON_VALUES)
    elif target == "field":
        data["field"] = draw(JSON_VALUES)
    elif target == "p":
        data["field"] = {"kind": "fp", "p": draw(st.integers(-3, 10**6) | JSON_VALUES)}
    elif target == "columns":
        data["columns"] = draw(JSON_VALUES)
    elif target == "column":
        cols = data["columns"]
        j = draw(st.integers(0, len(cols)))
        cols[j:j + 1] = draw(st.lists(st.lists(SCALARS, max_size=5) | JSON_VALUES,
                                      max_size=2))
    elif target == "entry":
        col = data["columns"][draw(st.integers(0, len(data["columns"]) - 1))]
        col[draw(st.integers(0, len(col) - 1))] = draw(SCALARS | JSON_VALUES)
    else:
        del data[draw(st.sampled_from(sorted(data)))]
    return data


@pytest.mark.parametrize("argv", [("act", "--word", "A"), ("flags",)])
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(value=JSON_VALUES | mutated_points())
def test_point_loader_fuzz(argv, value):
    # Any JSON value on stdin ends in a documented exit code, never a
    # traceback out of main.
    stdin = io.StringIO(json.dumps(value))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        saved, sys.stdin = sys.stdin, stdin
        try:
            code = main(list(argv))
        finally:
            sys.stdin = saved
    assert code in (0, 1, 2, 3)


@st.composite
def walk_scripts(draw):
    """A random legal walk on a base of braided triples and single
    letters; about three in ten end in an illegal move."""
    strands = draw(st.sampled_from([3, 4, 11, 12, 102, 10**6]))
    letters = []
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(1, strands - 1))
        braid = i < strands - 1 and draw(st.booleans())
        letters += [i, i + 1, i] if braid else [i]
    base = BraidWord(strands, tuple(letters))
    moves = []
    for _ in range(draw(st.integers(0, 12))):
        by_kind = {}
        for m in legal_moves(letters):
            by_kind.setdefault(m.kind, []).append(m)
        move = draw(st.sampled_from(by_kind[draw(st.sampled_from(sorted(by_kind)))]))
        letters = list(moved_letters(letters, move))
        moves.append(move)
    if draw(st.randoms(use_true_random=True)).random() < 0.3:
        legal = legal_moves(letters)
        moves.append(draw(st.sampled_from([
            Move(kind, p) for kind in ("comm", "r3a", "r3d")
            for p in range(1, len(letters) + 2) if Move(kind, p) not in legal])))
    return base, tuple(moves)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(script=walk_scripts())
def test_verify_loop_walk_stdout_matches_naive_renderer(tmp_path_factory, script):
    base, moves = script
    path = tmp_path_factory.mktemp("walk") / "walk.moves"
    path.write_text(script_text(moves))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(["verify-loop", "--script", str(path), "--strands", str(base.strands),
              "--base", ",".join(map(str, base.letters))])
    assert out.getvalue() == naive_verify_loop_stdout(base, moves)


SCRIPT_LINES = st.sampled_from(
    ["shift", "comm 3", "r3a 1", "r3d 2", "# note", "", "comm", "r3a 0",
     "shift 2", "comm -1", "r3a 𝟙", "comm ²", "r3d 99", "r3x 2", "comm 1 2"]
) | st.text(max_size=12)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(lines=st.lists(SCRIPT_LINES, max_size=8))
def test_script_dsl_fuzz(tmp_path_factory, lines):
    # Any script text ends in 0, 1 or 2; a usage error says why on stderr.
    script = tmp_path_factory.mktemp("dsl") / "fuzz.moves"
    script.write_text("\n".join(lines), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify-loop", "--script", str(script),
                     "--base", "1,2,1,2,1,2", "--strands", "3"])
    assert code in (0, 1, 2)
    assert code != 2 or err.getvalue()
