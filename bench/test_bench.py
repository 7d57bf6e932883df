"""Smoke test of the benchmark on tiny spaces; seconds, not minutes.

    python -m pytest bench/test_bench.py

Checks the result schema, metric names and units against BENCHMARK.json,
the golden and closed-form output checks, seeded inputs, and the refusal
to run without a program. The full benchmark is not run here.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
GOLDEN = json.loads((BENCH / "golden.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_schema(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)
    detail = json.loads(detail_line)
    env = detail["env"]
    assert {"python", "nproc", "cpu", "commit", "pythonhashseed", "seed", "reps"} <= set(env)
    assert env["seed"] == 5 and env["reps"] >= 1
    assert all(f > 0 for f in detail["per_worker"]["scale"] + detail["per_worker"]["setup_scale"])
    if trace and workload == "chains-deep":
        assert result["metrics"]["algebra.snf_calls"]["value"] == 0
    if trace and workload == "intervals":
        assert result["metrics"]["chains.enumerate_calls"]["value"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_golden_check_accepts_right_and_rejects_wrong_output(workload):
    golden = GOLDEN["smoke"][workload]
    for job in workloads.build(workload, 9, "smoke"):
        text = job.run()
        assert workloads.check_job(job, text, golden) is None, job.name
        if job.check is None:
            assert workloads.check_job(job, text + "\n", golden) is not None
            assert workloads.check_job(job, text, {}) == "no golden digest recorded"


def test_grid_m_x_closed_form_rejects_wrong_value():
    job = next(j for j in workloads.build("intervals", 9, "smoke") if j.name == "m_x")
    result = json.loads(job.run())
    result["m_x"] = str(Fraction(result["m_x"]) + 1)
    with pytest.raises(workloads.JobFailed):
        job.check(json.dumps(result))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_follow_the_seed(workload):
    def spaces(seed):
        return [job.space for job in workloads.build(workload, seed, "full")]

    assert spaces(1) == spaces(1)
    assert spaces(1) != spaces(2)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
