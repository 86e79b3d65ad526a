"""Run the benchmark over several seeds and report each end-to-end
metric's median, quartiles and spread (quartile distance over median).

    python3 bench/spread.py --seeds 0-9 [--baseline bench/baseline.json]

Runs are sequential, one fresh process each, over every workload in
BENCHMARK.json and with its command and run length.  With --baseline it
also makes one traced run per workload (seed 0) and writes both tables
to that file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"spread: {workload} seed {seed} failed checks:\n{proc.stderr}")
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "n": len(values)}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--baseline", default=None, help="write the tables to this file")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)

    baseline = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in names:
        runs = [run_once(spec, workload, seed, 0)["metrics"] for seed in seeds]
        table = {m: summary([r[m]["value"] for r in runs]) for m in bounds}
        for metric, row in table.items():
            flag = "" if row["spread"] < bounds[metric] / 3 else "  <-- over a third of the bound"
            print(f"{workload:13s} {metric:12s} median {row['median']:.6g}  "
                  f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {row['spread']:.4f}  "
                  f"bound {bounds[metric]}{flag}", flush=True)
        entry = {"end_to_end": table}
        if args.baseline:
            traced = run_once(spec, workload, 0, 1)["metrics"]
            entry["per_layer"] = {m: v["value"] for m, v in traced.items()}
        baseline["workloads"][workload] = entry

    if args.baseline:
        Path(args.baseline).write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
