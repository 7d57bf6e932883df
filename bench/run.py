"""Benchmark for magh: four seeded workloads, timed end to end and per layer.

    python3 bench/run.py --workload compute-dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program under test is `src/magh`
of that checkout. The load is a closed loop with one client: each
repetition runs the workload's jobs once, in order, in a fresh single-
threaded interpreter (bench/worker.py), so the enumeration cache starts
cold as it does for a command-line user. Repetitions follow each other
until --seconds have passed, with at least MIN_REPS of them.

--trace 0 reports the end-to-end metrics as medians over repetitions:
wall_s (first job call to last checked result), setup_s (interpreter start
until the inputs are ready: importing magh and generating and validating
the inputs) and peak_rss_mb (ru_maxrss of the worker).

--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of bench/spans.py as medians over the traced ones, with
trace.overhead_s = traced wall_s - untraced wall_s.

Every time is reported at a fixed machine speed: the measured seconds
times the scale factor the worker gets from reference slices timed next to
the jobs (see worker.py). On a shared machine the raw times of one
workload drift by 30 % and more over minutes as other tenants come and
go; the scaled times drift far less. The raw times and the factors are
kept in the per-worker record.

A job that raises or gives a wrong output counts in `failed` and is named
on stderr. The line before the result holds the environment record and
the per-repetition values. The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Exit status 2 means the checkout holds no program to measure, 1 that a
worker crashed or timed out; neither prints a result.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
MIN_REPS = 3
WORKER_TIMEOUT_S = 150
BUDGET_S = 150  # a run must end within 180 s
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Layers a workload is built to leave alone; the traced run checks that
# they are not called at all.
BYPASSED = {
    "chains-deep": "algebra.snf_calls",
    "intervals": "chains.enumerate_calls",
}


class WorkerError(Exception):
    pass


def run_worker(args, trace, setup_only=False):
    """Start one worker, wait for it, and return its result plus setup_s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env.setdefault("PYTHONHASHSEED", "0")
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", "smoke" if args.smoke else "full",
        "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerError(f"worker timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    if setup_only:
        return None
    rep = json.loads(proc.stdout.splitlines()[-1])
    rep["raw_setup_s"] = rep.pop("setup_end") - started
    rep["raw_wall_s"] = rep["wall_s"]
    rep["setup_s"] = rep["raw_setup_s"] * rep["setup_scale"]
    rep["wall_s"] = rep["raw_wall_s"] * rep["scale"]
    for name, value in rep.get("layers", {}).items():
        if LAYER_UNITS[name] == "s":
            rep["layers"][name] = value * rep["scale"]
    return rep


def repetitions(args, start):
    """Closed loop: start another repetition while it is expected to finish in time.

    At least MIN_REPS run (one traced pair with --trace 1), unless that
    would take the whole run past BUDGET_S.
    """
    min_reps = 1 if args.trace else MIN_REPS
    reps = []
    while True:
        cycle_start = time.monotonic()
        if args.trace:
            reps.append((run_worker(args, 0), run_worker(args, 1)))
        else:
            reps.append(run_worker(args, 0))
        next_end = 2 * time.monotonic() - cycle_start
        if next_end > start + BUDGET_S or (
            len(reps) >= min_reps and next_end > start + args.seconds
        ):
            return reps


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def environment(args, reps):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    # identifies the code measured where the checkout is not a git repository
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "0"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "mode": "smoke" if args.smoke else "full",
        "reps": len(reps),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the benchmark's own test"
    )
    args = parser.parse_args()

    if not (ROOT / "src" / "magh" / "__init__.py").is_file():
        print(f"bench: no program at {ROOT / 'src' / 'magh'}", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src", quiet=1)
    start = time.monotonic()
    try:
        run_worker(args, 0, setup_only=True)
        reps = repetitions(args, start)
    except WorkerError as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    workers = [rep for pair in reps for rep in pair] if args.trace else reps
    attempted = sum(rep["jobs"] for rep in workers)
    failures = [f for rep in workers for f in rep["failures"]]
    for job, reason in failures:
        print(f"bench: {args.workload}: job {job} failed: {reason}", file=sys.stderr)
    correct = not failures

    if args.trace:
        values = {
            name: [traced["layers"][name] for _, traced in reps]
            for name in LAYER_UNITS
            if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = [traced["wall_s"] - plain["wall_s"] for plain, traced in reps]
        units = LAYER_UNITS
        bypassed = BYPASSED.get(args.workload)
        if bypassed and any(values[bypassed]):
            print(
                f"bench: {args.workload}: expected {bypassed} = 0, got {values[bypassed]}",
                file=sys.stderr,
            )
            correct = False
    else:
        values = {name: [rep[name] for rep in reps] for name in E2E_UNITS}
        units = E2E_UNITS
    raw = {
        name: [rep[name] for rep in workers]
        for name in ("raw_wall_s", "raw_setup_s", "scale", "setup_scale")
    }

    detail = {
        "env": environment(args, reps),
        "quartiles": {name: quartiles(v) for name, v in values.items()},
        "per_rep": values,
        "per_worker": raw,
    }
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": statistics.median(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
