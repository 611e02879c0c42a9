"""Run the benchmark over several seeds and record a trajectory point.

For every workload in BENCHMARK.json, runs ``run.py`` once per seed 1..10
(untraced) and once traced, then writes the median, quartiles and spread
(interquartile distance over the median) of every metric, with host and
provenance fields, to ``perfbench/baseline.json``. Run from the root of a
checkout:

    python3 perfbench/baseline.py
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_PATH = BENCH_DIR / "baseline.json"
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {done.stdout}")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def provenance(seeds: list[int], run_seconds: int) -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "seeds": seeds,
        "run_seconds": run_seconds,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {"provenance": provenance(SEEDS, spec["run_seconds"]), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        end_to_end = {name: summarize([r["metrics"][name]["value"] for r in runs])
                      for name in bounds}
        traced = run_once(workload, SEEDS[0], spec["run_seconds"], 1)
        point["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer_seed": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        for name, row in end_to_end.items():
            flag = "" if name == "setup_s" or row["spread"] < bounds[name] / 3 else "  WIDE"
            print(f"{workload:15s} {name:16s} median {row['median']:.5g} "
                  f"spread {row['spread']:.4f} bound {bounds[name]}{flag}", flush=True)
    OUT_PATH.write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
