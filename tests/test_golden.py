"""Byte-identity guard: the SHA-256 of CLI stdout and the exit code of the
report subcommands, and of stdout and stderr for help and usage errors,
pinned so that any drift in their output fails here.

A change that means to alter a report's output must update its digest
here and say why."""

import hashlib
import io

import pytest

from legmon.cli import main


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
