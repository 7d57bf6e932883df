"""Record the golden digest of every job from the current engine.

    PYTHONPATH=src python3 bench/golden.py [--seeds 0,1,2]

Runs every workload in both modes under each seed and writes golden.json.
The seeds give different inputs with the same answers, so each job must
give one digest under all of them; the script stops if it does not. Jobs
checked by a closed form instead of a digest get no entry. Record only
from an engine whose outputs are trusted: the digests define correct
output for the benchmark.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import workloads

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def record(seeds):
    golden = {}
    for mode in workloads.SIZES:
        golden[mode] = {}
        for workload in workloads.BUILDERS:
            digests = {}
            for seed in seeds:
                for job in workloads.build(workload, seed, mode):
                    text = job.run()
                    if job.check is not None:
                        job.check(text)
                        continue
                    got = workloads.digest(text)
                    if digests.setdefault(job.name, got) != got:
                        raise SystemExit(f"{mode}/{workload}/{job.name}: seed {seed} differs")
            golden[mode][workload] = digests
    return golden


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0,1,2")
    args = parser.parse_args()
    golden = record([int(s) for s in args.seeds.split(",")])
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
