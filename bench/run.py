"""legmon benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload sweep-fp --seed 0 --seconds 25 --trace 0

Run from the repository root.  The package is imported from `src/` in
that root (never from an installed copy) and driven in-process through
`legmon.cli.main(argv)` with stdout captured, so a timed op is what a
user's `legmon ...` call does after interpreter start.  Every op's exit
code and stdout are checked; see `workloads.py`.

--trace 0 reports the end-to-end metrics, medians over the run:
  wall_s       wall seconds per pass of the workload's ops
  cpu_s        process CPU seconds (user + sys) per pass
  setup_s      time from process start of a fresh interpreter until
               legmon is imported and the argv lists are built (one
               probe after each pass)
  peak_rss_mb  peak resident set size of the run
Each pass and probe is scaled to a reference machine speed measured by
`calibration.py` right after it; the raw medians go to stderr.
--trace 1 runs untraced and traced passes in pairs and reports the
per-layer table (see `layers.py`), the kernel rows, the tracing overhead
and the `src/legmon` line counts.  It also writes the last traced pass's
spans to bench/out/spans-<workload>.jsonl.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
progress and the line counts go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import calibration  # noqa: E402
import layers  # noqa: E402
from workloads import SEEDS_PER_RUN, WORKLOADS, pass_ops  # noqa: E402

MIN_SETUP_PROBES = 7
REFERENCE = BENCH_DIR / "reference.json"


def import_legmon():
    """Import legmon.cli from this checkout's src/, or exit with an error."""
    if not (SRC / "legmon" / "cli.py").is_file():
        sys.exit(f"bench: {SRC / 'legmon'} not found; run from the repository root")
    sys.path.insert(0, str(SRC))
    os.environ.pop("LEGMON_PRIME", None)  # reports must use the default prime
    from legmon import cli

    if Path(cli.__file__).resolve().parent != SRC / "legmon":
        sys.exit(f"bench: imported legmon from {cli.__file__}, not from {SRC}")
    return cli


def src_lines() -> dict[str, int]:
    """Line counts of src/legmon: one per module (0 once a module is
    gone) and the total over every file there."""
    counts = {
        path.stem: len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "legmon").glob("*.py"))
    }
    out = {f"src_lines.{m}": counts.get(m, 0) for m in layers.SRC_MODULES}
    out["src_lines.total"] = sum(counts.values())
    return out


class Runner:
    """Runs passes of ops through `cli.main` and checks every output."""

    def __init__(self, cli, workload: str, seed: int, reference: dict):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.bytes_out = 0
        self.first_failure: str | None = None

    def call(self, argv, stdin: str) -> tuple[int | None, str, str]:
        """One `legmon` call; returns (exit code or None if it raised,
        stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(argv))
        except (Exception, SystemExit) as exc:  # a crash is a failed op, not a crashed run
            rc = None
            err.write(f"{type(exc).__name__}: {exc}\n")
        finally:
            sys.stdin = saved
        return rc, out.getvalue(), err.getvalue()

    def ops_of_pass(self, i: int):
        """Run the ops of pass i in order, feeding an op the stdout of the op
        it pipes from.  Yields (op, exit code, stdout, stderr, wall s, CPU s)
        per op; an output is kept only until the op that reads it has run."""
        ops = pass_ops(self.workload, self.seed, i)
        read_later = {op.pipe_from for op in ops if op.pipe_from is not None}
        kept: dict[int, str] = {}
        for k, op in enumerate(ops):
            stdin = kept.pop(op.pipe_from) if op.pipe_from is not None else ""
            w0, c0 = time.perf_counter(), time.process_time()
            rc, out, err = self.call(op.argv, stdin)
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            if k in read_later:
                kept[k] = out
            yield op, rc, out, err, wall, cpu
            del out, err  # not held while the next op runs

    def run_pass(self, i: int) -> tuple[float, float]:
        """Run pass i and check every op; returns (wall s, CPU s) summed
        over the op calls."""
        wall = cpu = 0.0
        for op, rc, out, err, op_wall, op_cpu in self.ops_of_pass(i):
            wall += op_wall
            cpu += op_cpu
            data = out.encode("utf-8")
            self.attempted += 1
            self.bytes_out += len(data)
            if not self.passes_checks(op, rc, out, data):
                self.failed += 1
                if self.first_failure is None:
                    self.first_failure = f"{op.key} (exit {rc}) {err.strip()[-300:]}"
            del out, err, data  # not held while the next op runs
        return wall, cpu

    def passes_checks(self, op, rc, out: str, data: bytes) -> bool:
        if rc is None or not op.check(rc, out, self.reference):
            return False
        want = self.reference["digests"].get(op.key)
        if want is None:  # digests exist only for the recorded seeds
            return True
        return want == [rc, hashlib.sha256(data).hexdigest()]


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# What a fresh interpreter must do before the first op: import the CLI
# and build the argv lists.
SETUP_PROBE = """
import sys
sys.path[:0] = sys.argv[1:3]
import legmon.cli
from workloads import pass_ops
pass_ops(sys.argv[3], int(sys.argv[4]), 0)
"""


def setup_probe(workload: str, seed: int):
    """A function that times one fresh interpreter running SETUP_PROBE."""
    argv = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR), workload, str(seed)]

    def probe() -> float:
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True)
        return time.perf_counter() - t0

    return probe


def measure(runner: Runner, seconds: float) -> dict[str, list[float]]:
    """Run passes for `seconds`.  Calibrate before the first pass and after
    each one; a pass is scaled by the mean of the calibrations on either
    side of it, and the setup probe that follows it by the one just
    before the probe.  Returns raw and scaled samples."""
    probe = setup_probe(runner.workload, runner.seed)
    probe()  # unmeasured: the first interpreter may still compile or page in
    samples = {kind: [] for kind in ("wall", "cpu", "setup", "wall_s", "cpu_s", "setup_s")}
    before = calibration.scale()
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        wall, cpu = runner.run_pass(i)
        after = calibration.scale()
        setup = probe()
        for kind, value, scale in (("wall", wall, (before + after) / 2),
                                   ("cpu", cpu, (before + after) / 2),
                                   ("setup", setup, after)):
            samples[kind].append(value)
            samples[f"{kind}_s"].append(value * scale)
        before = after
        i += 1
    while len(samples["setup"]) < MIN_SETUP_PROBES:
        scale = calibration.scale()
        samples["setup"].append(probe())
        samples["setup_s"].append(samples["setup"][-1] * scale)
    return samples


def measure_traced(runner: Runner, seconds: float, spans_path: Path):
    """Alternate untraced and traced passes on the same inputs.  Returns
    the per-layer table (medians over the traced passes) and the median
    traced-minus-untraced wall time per pass."""
    tables, overheads = [], []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        plain, _ = runner.run_pass(i)
        tracer = layers.Tracer()
        patches = tracer.install()
        bytes_before = runner.bytes_out
        try:
            traced, _ = runner.run_pass(i)
        finally:
            tracer.uninstall(patches)
        table = tracer.table()
        table["cli.bytes_out"] = runner.bytes_out - bytes_before
        tables.append(table)
        overheads.append(traced - plain)
        i += 1
    print(f"bench: {i} untraced/traced pass pairs", file=sys.stderr)
    tracer.dump(spans_path)
    return (
        {name: statistics.median(t[name] for t in tables) for name in tables[0]},
        statistics.median(overheads),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_legmon()
    lines = src_lines()
    print(f"bench: {json.dumps(lines)}", file=sys.stderr)
    runner = Runner(cli, args.workload, args.seed, load_reference())
    if args.trace:
        table, overhead = measure_traced(
            runner, args.seconds, BENCH_DIR / "out" / f"spans-{args.workload}.jsonl"
        )
        values = {
            **table,
            "trace.overhead_s": overhead,
            **layers.kernel_rows(args.seed * SEEDS_PER_RUN),
            **lines,
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in layers.PER_LAYER_UNITS.items()
        }
    else:
        samples = measure(runner, args.seconds)
        med = {kind: statistics.median(v) for kind, v in samples.items()}
        print(f"bench: {len(samples['wall'])} passes, medians {json.dumps(med)}",
              file=sys.stderr)
        metrics = {
            name: {"value": med[name], "unit": "s"} for name in ("wall_s", "cpu_s", "setup_s")
        }
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        }

    if runner.first_failure:
        print(f"bench: {runner.failed} failed ops, first: {runner.first_failure}",
              file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
