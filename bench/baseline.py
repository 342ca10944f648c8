"""Record a baseline: repeated runs of every workload plus one traced run.

    python3 bench/baseline.py

Runs the benchmark command from BENCHMARK.json ten times per workload with
seeds 1..10, then once traced at the default seed, and writes
baseline.json: every run's end-to-end metrics, their median, quartiles and
spread (the distance between the quartiles as a share of the median, next
to the metric's bound), and the traced per-layer table.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10


def bench(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    meta = next(json.loads(line[5:]) for line in lines if line.startswith("meta "))
    return {"meta": meta, **json.loads(lines[-1])}


def summary(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "bound": bound}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for w in (entry["name"] for entry in spec["workloads"]):
        runs = [bench(spec, w, seed, 0) for seed in range(1, RUNS + 1)]
        traced = bench(spec, w, workloads.DEFAULT_SEED, 1)
        if not all(r["correct"] for r in runs + [traced]):
            raise RuntimeError(f"{w}: a run failed its checks")
        out["meta"] = {k: runs[0]["meta"][k] for k in
                       ("git_sha", "python", "numpy", "nproc", "blas_thread_cap")}
        out["workloads"][w] = {
            "end_to_end": {m["name"]: summary(
                [r["metrics"][m["name"]]["value"] for r in runs], m["bound"])
                for m in spec["end_to_end"]},
            "runs": [{"seed": r["meta"]["seed"],
                      **{k: v["value"] for k, v in r["metrics"].items()}}
                     for r in runs],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(w, json.dumps(out["workloads"][w]["end_to_end"]), flush=True)
    (BENCH / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
