"""Query lists of the benchmark workloads.

A query is the argv list of one `lefschetz-kit` invocation. The workload
seed, together with the pass index, picks the `--seeds` values of every
query; the program sees only argv. The lists are fixed per (workload,
seed, pass count), so two commits measured with the same arguments do the
same work.

Why these workloads (sized on 2 cores, Python 3.11, numpy 2.4):

- prime-inject: injectivity cells over F_p. With p = 51999971 the numpy
  Gauss-Jordan on the residual matrix takes about three quarters of the
  time and `_mod_matmul` most of the rest; one cell with p = 2^61-1 runs
  the pure-Python elimination. No Fraction arithmetic runs, and both
  seeds of a cell share one cached span echelon. Mod-p kernel changes and
  seed short-circuiting show here; changes on the Q side should not.
- rational-certify: the same kind of questions over Q, where Fraction
  Gauss-Jordan dominates: the c10 `wlp` grid without its slowest cell, a
  cubes `inject` cell and three `witness` records, whose nonmembership
  check eliminates through `in_column_space`. Fraction-free elimination
  and witness deduplication show here; mod-p changes should not.
- small-queries: about 150 short queries over all eight subcommands with
  rotating output formats. The median query is mostly fixed cost:
  argument parsing (about two thirds of it), form construction, monomial
  enumeration, walk counting and rendering. The wall time still goes
  mostly to Fraction elimination in the few larger `initial`, `inject`
  and `wlp` queries. It touches more distinct span-echelon keys than the
  64-entry cache holds, and `initial` reads pivot columns, so it needs
  the full rref.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1
FAST_FIELD = "prime:51999971"
MERSENNE_FIELD = "prime"
FIELD_PRIMES = {FAST_FIELD: 51999971, MERSENNE_FIELD: 2**61 - 1}
FORMATS = ("json", "csv", "table")


class _Draw:
    """Seed values for the queries of one pass."""

    def __init__(self, workload: str, seed: int, pass_index: int):
        self._rng = random.Random(f"bench:{workload}:{seed}:{pass_index}")

    def seeds(self, k: int) -> str:
        return ",".join(str(self._rng.randint(1, 10**6)) for _ in range(k))


def _inject(a, d, lo, hi, seeds, field=None):
    argv = ["inject", "--a", str(a), "--d", str(d), "--n-range", f"{lo}..{hi}",
            "--seeds", seeds]
    return argv + (["--field", field] if field else [])


def _wlp(n, a, seeds, field=None):
    argv = ["wlp", "--n", str(n), "--a", str(a), "--seeds", seeds]
    return argv + (["--field", field] if field else [])


def _witness(n, d, seeds):
    return ["witness", "--n", str(n), "--d", str(d), "--seeds", seeds]


def _prime_inject(draw: _Draw, smoke: bool) -> list[list[str]]:
    if smoke:
        return [_inject(2, 5, 10, 10, draw.seeds(2), FAST_FIELD),
                _inject(3, 5, 5, 5, draw.seeds(2), FAST_FIELD),
                _inject(2, 4, 8, 8, draw.seeds(2), MERSENNE_FIELD)]
    out = [_inject(2, 5, n, n, draw.seeds(2), FAST_FIELD) for n in range(10, 15)]
    out += [_inject(3, 5, n, n, draw.seeds(2), FAST_FIELD) for n in range(5, 8)]
    out.append(_inject(2, 5, 10, 10, draw.seeds(2), MERSENNE_FIELD))
    return out


def _rational_certify(draw: _Draw, smoke: bool) -> list[list[str]]:
    if smoke:
        return [_wlp(4, 2, draw.seeds(1)), _inject(3, 4, 4, 5, draw.seeds(2)),
                _witness(6, 3, draw.seeds(1))]
    out = [_wlp(n, a, draw.seeds(1))
           for n, a in ((4, 2), (5, 2), (5, 3), (7, 2), (6, 2), (8, 2))]
    out.append(_inject(3, 5, 5, 6, draw.seeds(2)))
    out.append(_witness(12, 5, draw.seeds(1)))
    out.append(_witness(9, 4, draw.seeds(2)))
    return out


def _small_queries(draw: _Draw, smoke: bool) -> list[list[str]]:
    out = []
    out += [["initial", "--n", str(n), "--a", "2", "--d", str(d)]
            for n in range(1, 9) for d in range(1, 6)]
    out += [["initial", "--n", str(n), "--a", "3", "--d", str(d)]
            for n in range(1, 7) for d in range(1, 7) if (n, d) != (6, 6)]
    out += [["hilbert", "--n", str(n), "--a", str(a)]
            for n in range(1, 9) for a in range(2, 5)]
    out += [["froberg", "--n", str(n), "--a", "2", "--seeds", draw.seeds(1)]
            for n in range(5, 9)]
    out += [["froberg", "--n", str(n), "--a", "3", "--seeds", draw.seeds(1)]
            for n in (4, 5)]
    out += [["paths", "--n", str(n), "--d", str(d)]
            for n in range(1, 15) for d in range(2, n // 3 + 2)]
    out += [["paths", "--n", str(n), "--d", "3", "--seeds", draw.seeds(1)]
            for n in range(4, 10)]
    out += [_wlp(n, 2, draw.seeds(1)) for n in range(4, 8)]
    out.append(_wlp(6, 2, draw.seeds(2), MERSENNE_FIELD))
    out.append(["sweep", "--a", "2", "--n-range", "5..6", "--seeds", draw.seeds(1)])
    out.append(_inject(2, 3, 4, 8, draw.seeds(2)))
    out.append(_inject(2, 4, 6, 10, draw.seeds(2), FAST_FIELD))
    out.append(_witness(6, 3, draw.seeds(1)))
    out.append(_witness(8, 4, draw.seeds(1)))
    if smoke:
        # one query of each subcommand, the cheapest of each kind
        firsts: dict[str, list[str]] = {}
        for argv in out:
            firsts.setdefault(argv[0], argv)
        out = list(firsts.values())
    return [argv + ["--format", FORMATS[i % len(FORMATS)]]
            for i, argv in enumerate(out)]


_PASSES = {
    "prime-inject": _prime_inject,
    "rational-certify": _rational_certify,
    "small-queries": _small_queries,
}

# Seconds one pass takes at the commit that defined the benchmark. The
# pass count of a run follows from --seconds and these constants alone, so
# the work of a run never depends on how fast the program under test is.
NOMINAL_PASS_S = {
    "prime-inject": 25.0,
    "rational-certify": 23.0,
    "small-queries": 2.7,
}

WORKLOADS = tuple(_PASSES)


def pass_count(workload: str, seconds: float, smoke: bool = False) -> int:
    if smoke:
        return 1
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def queries(workload: str, seed: int, seconds: float,
            smoke: bool = False) -> list[list[str]]:
    """Every query of one run, in the order the closed loop issues them."""
    build = _PASSES[workload]
    out = []
    for k in range(pass_count(workload, seconds, smoke)):
        out += build(_Draw(workload, seed, k), smoke)
    return out
