"""Run the benchmark over several seeds and record medians and spreads.

    python3 bench/baseline.py --seeds 1,2,3,4,5,6,7,8,9,10 --out bench/baseline.json

For each workload (default: all in BENCHMARK.json) it runs bench/run.py
once per seed, untraced, and with --traced-seeds also traced, then writes
every run's result plus, per metric, the median, the quartiles and the
spread: (Q3 - Q1) / median, the quartiles as statistics.quantiles(n=4)
gives them. Runs go one after another, never in parallel, so they do not
slow each other down.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    *_, detail, result = proc.stdout.splitlines()
    return {"seed": seed, "env": json.loads(detail)["env"], "result": json.loads(result)}


def summarize(runs):
    values = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    out = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        out[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
    return out


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--traced-seeds", default="")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    report = {"run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        entry = {}
        for key, trace, seeds in (("untraced", 0, args.seeds), ("traced", 1, args.traced_seeds)):
            runs = [run_once(workload, int(s), args.seconds, trace) for s in seeds.split(",") if s]
            if runs:
                entry[key] = {"summary": summarize(runs), "runs": runs}
                print(workload, key, json.dumps(entry[key]["summary"]), flush=True)
        report["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
