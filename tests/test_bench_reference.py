"""The benchmark's reference digests, replayed in tier 1.

`bench/reference.json` records the exit code and the stdout SHA-256 of
every op of benchmark seed 0, pass 0.  Each op of that pass runs here
through `cli.main`, a `flags` op reading the stdout of the
`random-point` op it pipes from, as the benchmark runs them, so a byte
change in any output fails this test.  The workload table is loaded
from `bench/workloads.py`, which imports nothing from legmon; nothing
under `bench/` is written.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from legmon import cli
from legmon.fields import ModP, PrimeField
from legmon.moduli import T36, ModuliPoint

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # `dataclass` looks its module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


WORKLOADS = _workloads()


def replay(workload: str):
    """(op, exit code, stdout) for each op of seed 0, pass 0 of `workload`."""
    ops = WORKLOADS.pass_ops(workload, 0, 0)
    piped = {op.pipe_from for op in ops}
    kept = {}
    for k, op in enumerate(ops):
        out, saved = io.StringIO(), sys.stdin
        sys.stdin = io.StringIO(kept.pop(op.pipe_from, ""))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(list(op.argv))
        finally:
            sys.stdin = saved
        if k in piped:
            kept[k] = out.getvalue()
        yield op, rc, out.getvalue()


def test_every_reference_digest_replays(monkeypatch):
    monkeypatch.delenv("LEGMON_PRIME", raising=False)
    digests = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))["digests"]
    got = {
        op.key: [rc, hashlib.sha256(out.encode("utf-8")).hexdigest()]
        for workload in WORKLOADS.WORKLOADS for op, rc, out in replay(workload)
        if op.key in digests
    }
    assert got == digests


@pytest.fixture
def scalar_builds(monkeypatch):
    """Counts of the point `columns` and `ModP` residues built while the
    test runs."""
    counts = {"columns": 0, "ModP": 0}
    build, init = ModuliPoint.columns.func, ModP.__init__

    def columns(self):
        counts["columns"] += 1
        return build(self)

    def modp(self, value, modulus):
        counts["ModP"] += 1
        init(self, value, modulus)

    monkeypatch.setattr(ModuliPoint.columns, "func", columns)
    monkeypatch.setattr(ModP, "__init__", modp)
    return counts


def test_certify_base_builds_no_scalar(monkeypatch, scalar_builds):
    # random-point, flags and verify-loop work on the int form: no
    # point's `columns` and no `ModP` in a whole pass.
    monkeypatch.delenv("LEGMON_PRIME", raising=False)
    commands = {op.argv[0] for op, rc, _ in replay("certify-base") if rc == 0}
    assert commands == {"random-point", "flags", "verify-loop"}
    assert scalar_builds == {"columns": 0, "ModP": 0}
    # The counters do count.
    assert ModuliPoint(T36, PrimeField(7), (((1, 2, 3), 1),) * 9).columns
    assert scalar_builds == {"columns": 1, "ModP": 27}
