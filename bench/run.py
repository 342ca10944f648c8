"""Benchmark of lefschetz-kit: CLI queries end to end, and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke
    python3 bench/run.py --record-digests

Load shape: one worker process, one client, a closed loop. The next query
starts only after the previous report is rendered. The worker is a fresh
interpreter, so the span-echelon cache starts cold as it does for every
CLI call, and BLAS/OpenMP are capped at one thread, so no thread runs
beside the main one. The program is imported from `src/` of the checkout
this file sits in; without it the run fails and prints no result.

`--trace 0` prints the end-to-end metrics:
  setup_s       median over several fresh interpreters of the time until
                `lefschetz_kit.cli` is imported and a query can be issued
  wall_s        the summed latency of the run's whole query list
  peak_rss_mb   peak resident set of the worker
and, ungated on the summary line, the median and 90th-percentile query
latency with the query count and the share of queries that failed. The
prime-inject and rational-certify lists hold about ten queries, so their
median is the latency of one or two queries and jumps by a third between
runs on a shared 2-core machine; a bound on it would reject the benchmark
more often than it would catch a regression.
`--trace 1` runs the same queries untraced and then traced, each in a
fresh worker, and prints the per-layer metrics of the traced run (see
spans.py), the overhead of tracing and a check that both runs rendered
byte-identical reports apart from `timing_ms`.

Every report passes the checks in checks.py. At the default seed each
report is also compared with the digest recorded in digests.json at the
commit that defined the benchmark, so a different answer fails even when
it passes the checks. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.

`--smoke` runs a cut-down query list of every workload, traced and
untraced, in seconds, and checks that every metric BENCHMARK.json names is
emitted with its unit (or marked absent) and that every report matches its
recorded digest. `--record-digests` rewrites digests.json from the program
in this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from worker import THREAD_VARS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"
SETUP_SAMPLES = 9
TIME_LIMIT_S = 170
THREAD_CAP = "1"


class BenchError(RuntimeError):
    """The run could not be measured; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: THREAD_CAP for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    return left


def measure_setup(samples: int, deadline: float) -> list[float]:
    """Seconds from process start until the program is importable and ready.

    One unmeasured start first, so every measured one finds the same
    bytecode cache."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--probe"]
    out = []
    for i in range(samples + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                env=_child_env())
        try:
            readable, _, _ = select.select([proc.stdout], [], [], _remaining(deadline))
            line = proc.stdout.readline() if readable else ""
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=_remaining(deadline))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"the program does not import:\n{err}")
        if i:
            out.append(elapsed)
    return out


def run_worker(workload: str, seed: int, seconds: float, traced: bool,
               smoke: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           str(seconds), "1" if traced else "0", "1" if smoke else "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=_child_env(), timeout=_remaining(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"the {workload} worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_digests() -> dict:
    try:
        return json.loads(DIGESTS.read_text())
    except FileNotFoundError:
        return {}


def failed_queries(runs: list[dict], seed: int) -> tuple[dict, int]:
    """Index -> reasons for every query that failed in any of the runs,
    and the number of queries compared with a recorded digest."""
    recorded = load_digests() if seed == workloads.DEFAULT_SEED else {}
    bad: dict[int, list[str]] = {}
    compared = 0
    first = runs[0]
    for i, query in enumerate(first["queries"]):
        reasons = [p for run in runs for p in run["problems"][i]]
        if any(run["digests"][i] != first["digests"][i] for run in runs):
            reasons.append("traced report differs from the untraced one")
        want = recorded.get(checks.query_key(query))
        if want is not None:
            compared += 1
            if want != first["digests"][i]:
                reasons.append("report differs from the recorded digest")
        if reasons:
            bad[i] = reasons
    return bad, compared


def end_to_end(run: dict, setup: list[float]) -> dict:
    lat = run["latencies_ns"]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": sum(lat) / 1e9, "unit": "s"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
    }


def measure(workload: str, seed: int, seconds: float, traced: bool,
            smoke: bool = False) -> dict:
    """One benchmark run; returns the result object and what to print."""
    deadline = time.monotonic() + TIME_LIMIT_S
    setup = [] if traced else measure_setup(SETUP_SAMPLES, deadline)
    runs = [run_worker(workload, seed, seconds, False, smoke, deadline)]
    if traced:
        runs.append(run_worker(workload, seed, seconds, True, smoke, deadline))
        metrics = dict(runs[1]["per_layer"])
        overhead = (sum(runs[1]["latencies_ns"]) - sum(runs[0]["latencies_ns"])) / 1e9
        metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = end_to_end(runs[0], setup)
    bad, compared = failed_queries(runs, seed)
    queries = runs[0]["queries"]
    lat = sorted(runs[0]["latencies_ns"])
    fields = {f for q in queries for f in q.split()
              if f in workloads.FIELD_PRIMES}
    meta = {
        "workload": workload, "seed": seed, "git_sha": git_sha(),
        **runs[0]["meta"],
        "primes": sorted(workloads.FIELD_PRIMES[f] for f in fields),
        "queries_per_run": len(queries),
        "passes": workloads.pass_count(workload, seconds, smoke),
        "digests_compared": compared,
        "failed_frac": len(bad) / len(queries),
        "query_p50_ms": statistics.median(lat) / 1e6,
        "query_p90_ms": statistics.quantiles(lat, n=10)[-1] / 1e6
        if len(lat) > 1 else lat[0] / 1e6,
        "absent_targets": runs[-1].get("absent_targets", []),
    }
    result = {"correct": not bad, "attempted": len(queries),
              "failed": len(bad), "metrics": metrics}
    return {"result": result, "meta": meta, "bad": bad, "queries": queries}


def report(out: dict) -> None:
    meta = out["meta"]
    print(f"# {meta['workload']} seed={meta['seed']} queries={meta['queries_per_run']} "
          f"passes={meta['passes']} failed_frac={meta['failed_frac']:.4f} ratio "
          f"query_p50_ms={meta['query_p50_ms']:.3f} ms "
          f"query_p90_ms={meta['query_p90_ms']:.3f} ms")
    for i, reasons in list(out["bad"].items())[:10]:
        print(f"# FAILED {out['queries'][i]}: {'; '.join(reasons[:3])}")
    for name, m in out["result"]["metrics"].items():
        flag = "  (absent)" if m.get("absent") else ""
        print(f"#   {name:36s} {m['value']:>14.6g} {m['unit']}{flag}")
    print("meta " + json.dumps(meta))


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layered = {m["name"]: m["unit"] for m in spec["per_layer"]}
    ok = True
    for workload in workloads.WORKLOADS:
        for traced, want in ((False, named), (True, layered)):
            out = measure(workload, workloads.DEFAULT_SEED, 1, traced, smoke=True)
            report(out)
            got = out["result"]["metrics"]
            missing = [n for n, unit in want.items()
                       if n not in got or got[n]["unit"] != unit]
            extra = sorted(set(got) - set(want))
            unchecked = out["meta"]["queries_per_run"] - out["meta"]["digests_compared"]
            good = (out["result"]["correct"] and not missing and not extra
                    and not unchecked)
            ok = ok and good
            print(f"smoke {workload} trace={int(traced)}: "
                  f"{'ok' if good else 'FAILED'} missing={missing} extra={extra} "
                  f"without_digest={unchecked}")
    return 0 if ok else 1


def record_digests() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    table = {}
    for workload in workloads.WORKLOADS:
        for small in (False, True):
            run = run_worker(workload, workloads.DEFAULT_SEED, seconds, False,
                             small, time.monotonic() + 600)
            if any(run["problems"]):
                raise BenchError(f"{workload} fails its checks; nothing recorded")
            for query, d in zip(run["queries"], run["digests"]):
                table[checks.query_key(query)] = d
    DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(table)} digests in {DIGESTS.name}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.record_digests:
            return record_digests()
        if args.workload is None:
            ap.error("--workload is required")
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    report(out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
