"""Byte-identity guard: the SHA-256 of CLI stdout and the exit code of the
report subcommands, pinned so that any drift in their output fails here.

A change that means to alter a report's output must update its digest
here and say why."""

import hashlib

import pytest

from legmon.cli import main

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
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[argv]
