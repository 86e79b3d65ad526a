"""Byte-identity guard: the SHA-256 of CLI stdout and the exit code of the
report subcommands, and of stdout and stderr for help and usage errors,
pinned so that any drift in their output fails here.

A change that means to alter a report's output must update its digest
here and say why."""

import hashlib
import io
import json

import pytest

from legmon.cli import main
from legmon.fields import PrimeField


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = {
    ("xi-report",): (
        0, "9675972e30acc32139e39aae9e9409c18c6098a21e042eadbc8b439ea93a1c3f"),
    ("xi-report", "--points", "64"): (
        0, "470491059dca52e65530d50c4165ed324ea89577a33755fd80abdfa5ab917ee2"),
    ("xi-report", "--prime", "3", "--points", "16"): (
        0, "f4adc4d245fb3b499f46ba93ed27545957956156f1b0942c4fa1cd73fe895ba1"),
    ("faithful",): (
        0, "33f9a9b2ba7187010afad7e371cc5be9ca89af97d3ad33f4d674e6b969554546"),
    ("relations",): (
        1, "6f925e17bc7ee6cde003807d7c82d3d015bfcd110d95189d6200e26f4167a688"),
    ("relations", "--field", "q", "--probe-budget", "3"): (
        1, "3d526d2b2d328a73ea8f6886d825cb8270cc1e8cf1a9d124fbb7eb591e35c8ca"),
    # Four words no empty probe separates: entries without a witness.
    ("faithful", "--max-syllables", "4", "--probe-budget", "0", "--points", "8"): (
        1, "f148b1bf65020ced1c154a1b656f06323a00a6c883bfd53cfdcd3573689b52d5"),
    # Every check passes: the report's `all_pass` is true.
    ("relations", "--probe-budget", "0", "--points", "4"): (
        0, "bdf48c05b71e6f58b27fe702c55f207acfd0622490a032abff08b0468dfeba32"),
    # The benchmark's sweep-fp argv, at its default seed and at seed 12.
    ("faithful", "--max-syllables", "8"): (
        0, "3630915ef6f3e68e793648f2d7cb7b7cd27eef299c0432cfd0bd2c28bb38f979"),
    ("faithful", "--max-syllables", "8", "--seed", "12"): (
        0, "03677b54d8a635357f8a1b4f09e84b97e9cbbd9fd81f72cdb379dde5c7deceb6"),
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_cli_stdout_digest(argv, capsys, monkeypatch):
    monkeypatch.delenv("LEGMON_PRIME", raising=False)
    code = main(list(argv))
    out = capsys.readouterr().out
    assert (code, _digest(out)) == GOLDEN[argv]


# `flags` on a sampled point of each family, as (exit code, stdout digest).
FLAGS_GOLDEN = {
    ("T36", "1"): (
        0, "c029f5d95f8add7fdd8f8e8f191b2e051747e116f60c4e9194dbe692497365ec"),
    ("T44", "2"): (
        0, "8cc9116be437afd837a75dd9cd64dd035f89a508518774480caa8448e94c091b"),
}


@pytest.mark.parametrize("family, seed", list(FLAGS_GOLDEN), ids="-".join)
def test_flags_stdout_digest(family, seed, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("LEGMON_PRIME", raising=False)
    point = tmp_path / "p.json"
    assert main(["random-point", "--family", family, "--seed", seed, "--out", str(point)]) == 0
    capsys.readouterr()
    code = main(["flags", "--point", str(point)])
    assert (code, _digest(capsys.readouterr().out)) == FLAGS_GOLDEN[family, seed]


# Help, usage errors and one full report, as (exit or SystemExit code,
# stdout digest, stderr digest) with help wrapped to 80 columns.
EMPTY = _digest("")
USAGE_GOLDEN = {
    ("--help",): (
        0, "d328f84e2f5dddd3283ac2dbe1ac6ebfdd7f5eb7b35ae36632aa5f55088d6397",
        EMPTY),
    (): (
        2, EMPTY,
        "7a59ece2d6d38e5e4918646206237083d78aac738a05b8b9c92d036ea2435b1a"),
    ("bogus",): (
        2, EMPTY,
        "af492e380a4f3671af874cda8132b5eb06518d2d08644959eaae408cd3b50cde"),
    ("--",): (
        2, EMPTY,
        "7a59ece2d6d38e5e4918646206237083d78aac738a05b8b9c92d036ea2435b1a"),
    ("verify-loop", "-h"): (
        0, "42b58adf011f8d632f0a60f1d5efa4fc7e1ad3979f75e9550a803c92bd0a009d",
        EMPTY),
    ("act", "-h"): (
        0, "6ef2bf17249bd79a1c25aa01c8f7e7878764e4e290da66ce7d52bc6a143efb04",
        EMPTY),
    ("pluecker", "-h"): (
        0, "44c209cf72bab0384611b70d67cabda4c5bfb58cc034d66ec6a516fa08336cd4",
        EMPTY),
    ("random-point", "-h"): (
        0, "c7a6c29a5dc16d9e5f65522151e026120234617e4678d5c82238d7b86c884685",
        EMPTY),
    ("flags", "-h"): (
        0, "2942b11a0fb25ed98f5e8410cacca78a43a6065850c99dc6e032155efa643db7",
        EMPTY),
    ("relations", "-h"): (
        0, "d6291fe174538e59b17989a327137bd4a702dc526f554954c53f892ab66e2526",
        EMPTY),
    ("faithful", "-h"): (
        0, "bd7c2c62112c8e86a730115ef4ee1b3d0f3424192fe292813d2410959fd5d76a",
        EMPTY),
    ("xi-report", "-h"): (
        0, "097799cf294f5d2af93def1983985257899ed3a158c66143f956a7fd770ef591",
        EMPTY),
    ("flags", "--bogus"): (
        2, EMPTY,
        "40741c28cdf2873b01a4973aec1185ca464a3807198eca41f143daa9302072bc"),
    ("flags", "extra"): (
        2, EMPTY,
        "51878f4375b72098f2846f41f215021af05d946b8fbf3a62bc030c3cfb2fbb6e"),
    ("random-point",): (
        2, EMPTY,
        "a507f4d7c3d3868becbedb27d6e5d2583d4044a49e41de4202a42795633d73c5"),
    ("random-point", "--family", "T99"): (
        2, EMPTY,
        "85064f26fac389c6da618050318b9011ef4645030ed007a44694d58f8eb971de"),
    ("random-point", "--family", "X"): (
        2, EMPTY,
        "5659d6b28592144edbcbc5f307ba8feb1665ba6764d4980409d23bbf42173fba"),
    ("random-point", "--help"): (
        0, "c7a6c29a5dc16d9e5f65522151e026120234617e4678d5c82238d7b86c884685",
        EMPTY),
    # A base word that is not ints, refused after parsing.
    ("verify-loop", "--script", "-", "--base", "1,x", "--strands", "3"): (
        2, EMPTY,
        "0c81b4a3abba5c99235010dd6022a961ee7e2e51fcf1244ab33c1a9b833eb7d3"),
    # Unrecognised arguments after a command, which the full parser
    # reports, and errors that the command's own parser reports.
    ("relations", "--bogus"): (
        2, EMPTY,
        "40741c28cdf2873b01a4973aec1185ca464a3807198eca41f143daa9302072bc"),
    ("xi-report", "--points", "x"): (
        2, EMPTY,
        "7ffd810f0d392e0b48f529c7367d5b8348b5fc97ec8ce4ba3e2d2fe1e3a279f5"),
    ("act",): (
        2, EMPTY,
        "7ffc96afa201585f1ac4a9810779c8a1a1e85b8fb4cf86f614f282998a0c3480"),
    ("flags", "--", "x"): (
        2, EMPTY,
        "6b9db55422a0cd0ec334826c762e5cc2159c6dcd50657a40d47ca921e012b1f1"),
    ("faithful", "--max-syl", "1", "--bogus"): (
        2, EMPTY,
        "40741c28cdf2873b01a4973aec1185ca464a3807198eca41f143daa9302072bc"),
    # Neither --script nor --builtin.
    ("verify-loop",): (
        2, EMPTY,
        "fdbfd8aeccad827f1c529c75932096ea9f5b38e1d1c2984b221dae2dba67137e"),
    ("verify-loop", "--builtin", "xi3", "--s", "80"): (
        0, "6eb9cbc4ffe93987950b1f2fadeabd7a72355f477fcba687ccce3b5cc21262fa",
        EMPTY),
    ("verify-loop", "--builtin", "sigma1", "--s", "80"): (
        0, "8f538c303fbe3d2c7ce1dca9d887f0ff4bbea118d126616d91f0c7ef8bed924b",
        EMPTY),
    ("verify-loop", "--builtin", "xi1", "--s", "80"): (
        0, "ac0c104afc5df7156dfabb826006469fc5b5024a2e453fc58711fdcd570eccde",
        EMPTY),
    ("verify-loop", "--builtin", "xi2", "--s", "80"): (
        0, "3ea138d02b0bbcc8a86278855524cbfbf085c734b993690e3a3de11242a6d155",
        EMPTY),
    ("verify-loop", "--builtin", "delta_power", "--s", "80"): (
        0, "2e97680bc2744957d709ce2561c2399894c4d094858b99e5750b809d0cd4d9e3",
        EMPTY),
    # Letters of one and two digits in one word.
    ("verify-loop", "--builtin", "delta_power", "--k", "11", "--s", "2"): (
        0, "0d55e6ccad484e724b20e629be041dad33e47407e497017afe9491f2d37dd9d8",
        EMPTY),
    ("verify-loop", "--builtin", "delta_power", "--k", "12", "--s", "3"): (
        0, "fd3a38c794dc742f45e0e28c5b4509807f5fd2fc91b2cdef5cb686d0aecd5ba8",
        EMPTY),
}


def usage_outcome(argv, capsys, monkeypatch):
    monkeypatch.delenv("LEGMON_PRIME", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, _digest(captured.out), _digest(captured.err)


@pytest.mark.parametrize(
    "argv", list(USAGE_GOLDEN), ids=lambda argv: " ".join(argv) or "(none)")
def test_cli_usage_digest(argv, capsys, monkeypatch):
    assert usage_outcome(argv, capsys, monkeypatch) == USAGE_GOLDEN[argv]


# Errors raised inside a command, as (exit code, stdout digest, stderr
# digest).  Each case's setup writes its input or patches the draws and
# returns the argv; the comment gives the stderr line.
def _zero_draws(tmp_path, monkeypatch):
    # sampling exhausted: no valid T36 point found in 10000 attempts (seed 1)
    monkeypatch.setattr(PrimeField, "random_int", lambda self, rng: 0)
    return ["random-point", "--family", "T36", "--seed", "1"]


def _position_zero(tmp_path, monkeypatch):
    # script syntax error: line 1, column 6: positions are 1-based (>= 1)
    path = tmp_path / "zero.moves"
    path.write_text("comm 0\n")
    return ["verify-loop", "--script", str(path), "--base", "1,2,1", "--strands", "3"]


def _shift_position(tmp_path, monkeypatch):
    # script syntax error: line 1, column 9: shift takes no position
    path = tmp_path / "shift.moves"
    path.write_text("shift   3\n")
    return ["verify-loop", "--script", str(path), "--base", "1,2,1", "--strands", "3"]


def _vanishing_minor(tmp_path, monkeypatch):
    # invalid point: vanishing cyclic minors at [(1, 2, 3), (8, 9, 1), (9, 1, 2)]
    e1, e2, e3 = ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"family": "T36", "field": {"kind": "q"},
                                "columns": [e1, e1, e2, e3, e1, e2, e3, e1, e2]}))
    return ["act", "--point", str(path), "--word", "A"]


ERROR_GOLDEN = {
    _zero_draws: (
        3, EMPTY,
        "52231778696a47eb93c44c0bc5b536b9b114aa149c2c599ac2f638064c073188"),
    _position_zero: (
        2, EMPTY,
        "0a6d78b568706f388c2f8895e0bb6946f26e62891f0e08de7a4c97e030459854"),
    _shift_position: (
        2, EMPTY,
        "75c6afca75eced6000aef48f7d5600aeaf63fb15b04f6cdaec58fa26ca0e1813"),
    _vanishing_minor: (
        3, EMPTY,
        "eac11922e5fbb4c92d2cd667094068f7f4b8ffdef33bd3872b108573b600b5c7"),
}


@pytest.mark.parametrize("setup", list(ERROR_GOLDEN), ids=lambda f: f.__name__[1:])
def test_cli_error_digest(setup, tmp_path, capsys, monkeypatch):
    argv = setup(tmp_path, monkeypatch)
    assert usage_outcome(argv, capsys, monkeypatch) == ERROR_GOLDEN[setup]


# `verify-loop --script` on twelve strands, so that letters run to two
# digits, as (exit code, stdout digest): a loop, an open path, and an
# illegal fourth move, whose output is the words so far and the error.
SCRIPT_BASE = "10,11,10,1,11,3"
SCRIPT_GOLDEN = {
    "loop": ("r3a 1\ncomm 4\nr3d 1\ncomm 4\n" + "shift\n" * 6, (
        0, "da427bbda6867e0022212840421847967d08fb894c58b91d32d669967d77d947")),
    "open": ("r3a 1\ncomm 4\nr3d 1\ncomm 4\nshift\n", (
        1, "9c3e4b7c8c16d34ebcb3bc1203457a16b8c6c56d198f6eddbcd7e054ae70d741")),
    "illegal": ("r3a 1\ncomm 4\nshift\ncomm 2\n", (
        1, "47d9f759cb54219f7508b25a83611693b0e14199cf547fee4ffe4bcd17aa5e37")),
}


@pytest.mark.parametrize("case", list(SCRIPT_GOLDEN))
def test_verify_loop_script_digest(case, tmp_path, capsys):
    moves, expected = SCRIPT_GOLDEN[case]
    path = tmp_path / "twelve.moves"
    path.write_text(moves)
    code = main(["verify-loop", "--script", str(path), "--base", SCRIPT_BASE,
                 "--strands", "12"])
    assert (code, _digest(capsys.readouterr().out)) == expected


# `random-point | act` for a word of every generator of each family, over
# the default prime, F_3 and ℚ, as (exit code, stdout digest).
ACT_WORDS = {"T36": "B S1 A2 B SH(-4) S1", "T44": "X1 X2 X3 X2 SH(5) X3"}
ACT_GOLDEN = {
    ("T36", ()): (
        0, "f07a48170552f550bf88cbf18852a8c124e40b8a08753003328feec203ff0560"),
    ("T36", ("--prime", "3")): (
        0, "80ba969758479503044ff80f15d127fd33ba2732e38dfb7b4d117a9b34f00352"),
    ("T36", ("--field", "q")): (
        0, "eda7041503808c6906d7b73dfa0ba837238e45c6a1c91725f7ca70a2fbde192a"),
    ("T44", ()): (
        0, "84322d42b8d992cace124fd2c18faa961657d4792ca414b8272fa28766106252"),
    ("T44", ("--prime", "3")): (
        0, "3ef309aa8d8dba97c010c410a308f21aa4498f553b657e39ed9862da7f1fb7b9"),
    ("T44", ("--field", "q")): (
        0, "2faea817ccae29c7a9dce27e75188cb23b155e68f43bcc89c18bfcdf11acc6b6"),
}


@pytest.mark.parametrize("family, field", list(ACT_GOLDEN),
                         ids=lambda x: " ".join(x) if isinstance(x, tuple) else x)
def test_act_stdout_digest(family, field, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("LEGMON_PRIME", raising=False)
    point = tmp_path / "p.json"
    assert main(["random-point", "--family", family, "--seed", "7", *field,
                 "--out", str(point)]) == 0
    capsys.readouterr()
    code = main(["act", "--point", str(point), "--word", ACT_WORDS[family]])
    assert (code, _digest(capsys.readouterr().out)) == ACT_GOLDEN[family, field]
