"""One measured run in a fresh interpreter.

Issues the run's queries in a closed loop, each as an argv list passed to
`lefschetz_kit.cli.main` in this process with stdout captured, so parsing,
dispatch and rendering all sit inside the timed call. Each report is
checked after its timer stops. Prints one JSON object on stdout.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE SMOKE
    python3 bench/worker.py --probe     (import the program, print "ready")
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def import_program():
    """Import the package from this checkout's src, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lefschetz_kit
    from lefschetz_kit import cli
    if not Path(lefschetz_kit.__file__).resolve().is_relative_to(src):
        raise ImportError(f"lefschetz_kit resolved outside {src}")
    return cli


def thread_cap() -> int:
    caps = {os.environ.get(v) for v in THREAD_VARS}
    if len(caps) != 1 or None in caps:
        raise RuntimeError(f"set {', '.join(THREAD_VARS)} to one value")
    cap = int(caps.pop())
    if not 1 <= cap <= len(os.sched_getaffinity(0)):
        raise RuntimeError(f"thread cap {cap} exceeds the cores available")
    return cap


def run(workload: str, seed: int, seconds: float, traced: bool,
        smoke: bool) -> dict:
    cap = thread_cap()
    cli = import_program()
    import numpy
    queries = workloads.queries(workload, seed, seconds, smoke)
    tracer = spans.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    latencies, digests, problems = [], [], []
    out_bytes = verdicts = records = 0
    clock = time.perf_counter_ns
    for i, argv in enumerate(queries):
        if tracer is not None:
            tracer.query = i
            tracer.prime_query = any(a.startswith("prime") for a in argv)
        buf = io.StringIO()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash fails this query, not the run
            code = f"crash: {exc!r}"
        latencies.append(clock() - t0)
        text = buf.getvalue()
        bad, v, r = checks.check(argv, code, text)
        verdicts += v
        records += r
        problems.append(bad)
        digests.append(checks.digest(text))
        out_bytes += len(checks.normalize(text).encode())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "queries": [" ".join(q) for q in queries],
        "latencies_ns": latencies,
        "digests": digests,
        "problems": problems,
        "peak_rss_mb": peak_kb / 1024,
        "meta": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_thread_cap": cap,
        },
    }
    if tracer is not None:
        result["per_layer"] = tracer.summarize(latencies, out_bytes, verdicts, records)
        result["absent_targets"] = tracer.absent
        tracer.write(ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.json")
    return result


def main(argv: list[str]) -> int:
    if argv == ["--probe"]:
        import_program()
        print("ready", flush=True)
        return 0
    workload, seed, seconds, traced, smoke = argv
    result = run(workload, int(seed), float(seconds), traced == "1", smoke == "1")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
