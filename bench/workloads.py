"""Seeded inputs, jobs and output checks for each benchmark workload.

Every workload turns its seed into metric spaces, serializes them to JSON,
and hands magh only that JSON. The seed changes the inputs without changing
their answers, so one golden digest per job, recorded from the seed engine,
checks the output for any seed:

- `compute-dense`, `chains-deep` and `verify-suite` relabel the points of
  fixed base spaces by a permutation drawn from the seed. Homology tables,
  length spectra and passing verify reports are invariant under relabeling,
  so their output bytes are the same for every seed.
- `intervals` draws non-integer rational edge weights for a grid graph. Its
  metric is a weighted L1 metric, whose betweenness relation does not depend
  on the weights, so interval posets, certificates and frame homology are
  the same for every seed. m_X does depend on the weights and is checked
  against its closed form instead (see `_check_grid_m_x`).

Base spaces are built here from explicit matrices rather than through the
program's own generators, so a later change to those generators cannot
change the benchmark's inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import magh.cli
from magh import frames, metric, posets

# Input sizes per workload: the full benchmark and the seconds-sized smoke run.
SIZES = {
    "full": {
        "compute-dense": {"bases": [(7, 3), (7, 8)], "n_max": 3},
        "chains-deep": {"base": (7, 1), "n_max": 5},
        "verify-suite": {
            "cycles": [3, 4, 5, 6],
            "paths": [2, 3, 4],
            "completes": [3, 4, 5],
            "randoms": [(3, 1), (4, 2), (5, 3), (6, 5)],
            "n_max": 4,
        },
        "intervals": {"rows": 4, "cols": 5, "degrees": [2, 3, 4]},
    },
    "smoke": {
        "compute-dense": {"bases": [(5, 3)], "n_max": 2},
        "chains-deep": {"base": (5, 1), "n_max": 3},
        "verify-suite": {
            "cycles": [4],
            "paths": [3],
            "completes": [3],
            "randoms": [(4, 2)],
            "n_max": 2,
        },
        "intervals": {"rows": 2, "cols": 3, "degrees": [2, 3]},
    },
}


class JobFailed(Exception):
    """A job ran to completion but its output is wrong."""


@dataclass
class Job:
    """One call into magh and the check of its output.

    `space` is the JSON input magh receives. `run` returns the job's
    canonical output text. Its SHA-256 must equal the golden digest
    recorded for the job, unless `check` is given, which then decides
    instead and raises JobFailed on a wrong output.
    """

    name: str
    space: str
    run: Callable[[], str]
    check: Optional[Callable[[str], None]] = None


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_job(job, text, golden):
    """None when the output is right, else a one-line reason."""
    if job.check is not None:
        try:
            job.check(text)
        except JobFailed as exc:
            return str(exc)
        return None
    want = golden.get(job.name)
    if want is None:
        return "no golden digest recorded"
    got = digest(text)
    if got != want:
        return f"digest {got[:16]} != golden {want[:16]}"
    return None


# ---------------------------------------------------------------- inputs


def _random_graph_metric(n, seed, max_w=9):
    """Integer weights 1..max_w on K_n in row-major pair order, then closure."""
    rng = random.Random(seed)
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(rng.randint(1, max_w))
    return metric.metric_closure(d)


def _cycle_matrix(n):
    return [[Fraction(min(abs(i - j), n - abs(i - j))) for j in range(n)] for i in range(n)]


def _path_matrix(n):
    return [[Fraction(abs(i - j)) for j in range(n)] for i in range(n)]


def _complete_matrix(n):
    return [[Fraction(int(i != j)) for j in range(n)] for i in range(n)]


def _relabeled_json(matrix, rng):
    """Validate the matrix with its points permuted by rng; return its JSON."""
    n = len(matrix)
    perm = list(range(n))
    rng.shuffle(perm)
    permuted = [[matrix[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    return metric.validate_metric(permuted).to_json()


def _rng(workload, seed, part):
    # string seeds hash through SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{part}")


# ------------------------------------------------------------------ jobs


def call_cli(argv, stdin_text):
    """Run `magh <argv>` in this process with the given stdin; return stdout."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = magh.cli.main(argv)
    finally:
        sys.stdin = saved_stdin
    if code != 0:
        raise JobFailed(f"magh exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _cli_job(name, argv, space_json):
    return Job(name, space_json, lambda: call_cli(argv + ["--in", "-"], space_json))


def _verify_job(name, argv, space_json):
    """A verify job: every report must pass, and the output match its golden."""

    def run():
        text = call_cli(argv + ["--in", "-"], space_json)
        for line in text.splitlines():
            report = json.loads(line)
            if report["status"] != "pass":
                raise JobFailed(f"{report['check']} failed: {report['witness']}")
        return text

    return Job(name, space_json, run)


def _compute_dense(seed, size):
    jobs = []
    for i, (n, base_seed) in enumerate(size["bases"]):
        space = _relabeled_json(_random_graph_metric(n, base_seed), _rng("compute-dense", seed, i))
        argv = ["compute", "--n-max", str(size["n_max"]), "--format", "json"]
        jobs.append(_cli_job(f"compute:random({n},{base_seed})", argv, space))
    return jobs


def _chains_deep(seed, size):
    n, base_seed = size["base"]
    space = _relabeled_json(_random_graph_metric(n, base_seed), _rng("chains-deep", seed, 0))
    n_max = str(size["n_max"])
    return [
        _cli_job("spectrum", ["spectrum", "--n-max", n_max], space),
        _verify_job("d_squared", ["verify", "--check", "d_squared", "--n-max", n_max], space),
    ]


def _verify_suite(seed, size):
    bases = [(f"cycle({n})", _cycle_matrix(n)) for n in size["cycles"]]
    bases += [(f"path({n})", _path_matrix(n)) for n in size["paths"]]
    bases += [(f"complete({n})", _complete_matrix(n)) for n in size["completes"]]
    bases += [(f"random({n},{s})", _random_graph_metric(n, s)) for n, s in size["randoms"]]
    argv = ["verify", "--n-max", str(size["n_max"])]
    return [
        _verify_job(f"verify:{name}", argv, _relabeled_json(matrix, _rng("verify-suite", seed, i)))
        for i, (name, matrix) in enumerate(bases)
    ]


def _rational_weight(rng):
    """A positive non-integer rational with a small denominator."""
    while True:
        w = Fraction(rng.randint(1, 24), rng.randint(2, 7))
        if w.denominator > 1:
            return w


def _intervals(seed, size):
    """Grid graph with rational weights: frames and posets, no chain enumeration.

    Horizontal edges between columns c and c+1 weigh wx[c] in every row, and
    vertical edges between rows r and r+1 weigh wy[r] in every column, so the
    shortest-path metric is L1 on the coordinates (X[c], Y[r]).
    """
    rows, cols = size["rows"], size["cols"]
    rng = _rng("intervals", seed, 0)
    wx = [_rational_weight(rng) for _ in range(cols - 1)]
    wy = [_rational_weight(rng) for _ in range(rows - 1)]
    xs = [sum(wx[:c], Fraction(0)) for c in range(cols)]
    ys = [sum(wy[:r], Fraction(0)) for r in range(rows)]
    coords = [(xs[c], ys[r]) for r in range(rows) for c in range(cols)]
    n = len(coords)
    far = sum(wx) * rows + sum(wy) * cols + 1  # longer than any shortest path
    graph = [[Fraction(0) if i == j else far for j in range(n)] for i in range(n)]
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                graph[i][i + 1] = graph[i + 1][i] = wx[c]
            if r + 1 < rows:
                graph[i][i + cols] = graph[i + cols][i] = wy[r]
    closed = metric.metric_closure(graph)

    def l1(i, j):
        return abs(coords[i][0] - coords[j][0]) + abs(coords[i][1] - coords[j][1])

    for i in range(n):
        for j in range(n):
            if closed[i][j] != l1(i, j):
                raise ValueError(f"grid closure gives d({i},{j}) = {closed[i][j]}, not L1")
    labels = [f"r{r}c{c}" for r in range(rows) for c in range(cols)]
    space_json = metric.validate_metric(closed, labels=labels).to_json()
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]

    def load():
        return metric.FiniteMetricSpace.from_json(space_json)

    def run_m_x():
        return json.dumps(frames.m_x(load()).to_json_dict(), sort_keys=True)

    def check_m_x(text):
        _check_grid_m_x(json.loads(text), min(wx), min(wy), l1)

    def certificates(pairs):
        space = load()
        out = []
        for a, b in pairs:
            cert = posets.mh2_certificate(space, a, b)
            if cert.distance != l1(a, b):
                raise JobFailed(f"certificate {a},{b}: distance {cert.distance} != {l1(a, b)}")
            out.append(f"{a},{b}:{cert.components},{cert.mh2_lower_bound}")
        return "\n".join(out) + "\n"

    def frame_homology(pairs):
        space = load()
        out = []
        for a, b in pairs:
            groups = [posets.frame_homology_via_posets(space, (a, b), k) for k in size["degrees"]]
            out.append(f"{a},{b}:" + ";".join(str(g) for g in groups))
        return "\n".join(out) + "\n"

    # Pairs go in four jobs by first point, so the worker can time the
    # machine's speed between them (see worker.py).
    bounds = [round(i * n / 4) for i in range(5)]
    chunks = [
        (f"{lo}-{hi - 1}", [(a, b) for a, b in pairs if lo <= a < hi])
        for lo, hi in zip(bounds, bounds[1:])
    ]
    jobs = [Job("m_x", space_json, run_m_x, check_m_x)]
    for run, kind in ((certificates, "certificates"), (frame_homology, "frame_homology")):
        jobs += [
            Job(f"{kind}:{span}", space_json, lambda run=run, chunk=chunk: run(chunk))
            for span, chunk in chunks
        ]
    return jobs


def _check_grid_m_x(result, a, b, dist):
    """m_X of a weighted L1 grid is min(2a + b, a + 2b).

    a and b are the least horizontal and vertical steps. A four-cut turns
    back in one coordinate, paying at least two steps in it, and moves in
    the other, paying at least one; the unit square on the two least steps
    achieves the bound. The witness must be a four-cut of that length.
    """
    want = min(2 * a + b, a + 2 * b)
    if result["m_x"] == "inf" or Fraction(result["m_x"]) != want:
        raise JobFailed(f"m_x {result['m_x']} != {want}")
    x0, x1, x2, x3 = result["witness"]
    length = dist(x0, x1) + dist(x1, x2) + dist(x2, x3)
    if not (
        x0 != x1 != x2 != x3
        and length == want
        and dist(x0, x2) == dist(x0, x1) + dist(x1, x2)
        and dist(x1, x3) == dist(x1, x2) + dist(x2, x3)
        and dist(x0, x3) < length
    ):
        raise JobFailed(f"witness {result['witness']} is not a four-cut of length {want}")


BUILDERS = {
    "compute-dense": _compute_dense,
    "chains-deep": _chains_deep,
    "verify-suite": _verify_suite,
    "intervals": _intervals,
}


def build(workload, seed, mode="full"):
    """Generate and validate a workload's inputs; return its jobs in order."""
    return BUILDERS[workload](seed, SIZES[mode][workload])
