"""One repetition of a workload in a fresh interpreter.

Started by run.py with `src` on PYTHONPATH. It imports magh, generates the
workload's inputs from the seed, runs every job once in order, checks each
output, and prints one JSON line:

    {"setup_end": ..., "wall_s": ..., "scale": ..., "setup_scale": ...,
     "peak_rss_mb": ..., "jobs": N, "failures": [[job, reason], ...],
     "layers": {...} (traced only)}

`setup_end` is time.monotonic() once the inputs are ready; run.py
subtracts the moment it started this process to get the set-up time.
`wall_s` is the time from the first job call to the last checked result,
less the reference slices described next.

Other tenants of a shared machine slow every process down by a factor that
drifts over minutes. To take that factor out, the jobs run in up to
SEGMENTS contiguous groups with a slice of a fixed reference computation
(`reference_s`) at every group boundary. Each group's time is multiplied
by the slice's nominal time over the mean measured time of the two slices
around it. `scale` is the scaled wall time over the raw one, and
`setup_scale` the same ratio from the first slice alone, which follows
set-up most closely.

With --setup-only the worker stops before the first job, which warms the
byte-code and page caches without timing anything.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
SEGMENTS = 4
# iterations of one reference slice, and its time on an idle machine
REFERENCE = {"full": (25_000, 0.05), "smoke": (1_000, 0.002)}


def reference_s(iterations):
    """Seconds taken by a fixed computation on the primitives magh spends
    its time in: Fraction arithmetic, tuple keys and dict stores."""
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(iterations):
        acc += Fraction(i % 7, 3)
        table[(i % 97, i % 13)] = acc
    return time.perf_counter() - start


def run_jobs(jobs, check, mode):
    """Run every job and `check` its output (None or a reason it is wrong).

    Returns (raw seconds, scaled seconds, setup scale, failures).
    """
    iterations, nominal_s = REFERENCE[mode]
    groups = min(SEGMENTS, len(jobs))
    bounds = [round(i * len(jobs) / groups) for i in range(groups + 1)]
    slices = [reference_s(iterations)]
    raw_s = scaled_s = 0.0
    failures = []
    for lo, hi in zip(bounds, bounds[1:]):
        start = time.monotonic()
        for job in jobs[lo:hi]:
            try:
                reason = check(job, job.run())
            except Exception as exc:  # a job that raises is a failed job, not a crash
                reason = f"{type(exc).__name__}: {exc}"
            if reason is not None:
                failures.append([job.name, reason])
        group_s = time.monotonic() - start
        slices.append(reference_s(iterations))
        raw_s += group_s
        scaled_s += group_s * nominal_s / ((slices[-2] + slices[-1]) / 2)
    return raw_s, scaled_s, nominal_s / slices[0], failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["full", "smoke"], default="full")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import magh

    if Path(magh.__file__).resolve().parent != SRC_DIR / "magh":
        sys.exit(f"imported magh from {magh.__file__}, not from {SRC_DIR}")
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    jobs = workloads.build(args.workload, args.seed, args.mode)
    golden = json.loads((BENCH_DIR / "golden.json").read_text())[args.mode].get(args.workload, {})
    if args.setup_only:
        return
    setup_end = time.monotonic()

    top_level_before = tracer.top_level_s if tracer else 0.0
    wall_s, scaled_s, setup_scale, failures = run_jobs(
        jobs, lambda job, text: workloads.check_job(job, text, golden), args.mode
    )
    result = {
        "setup_end": setup_end,
        "wall_s": wall_s,
        "scale": scaled_s / wall_s,
        "setup_scale": setup_scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": len(jobs),
        "failures": failures,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(wall_s, top_level_before)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
