"""Correctness gate: facts every report must satisfy, whatever the seed.

The reference values are computed here from closed forms with the
standard library only, never by calling the program under test, so a
wrong answer cannot vouch for itself and a traced run records no spans
for the checks.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from math import comb

# overall WLP verdicts of the c10 classification grid, keyed by (n, a)
WLP_CLASSIFICATION = {(4, 2): True, (5, 2): True, (5, 3): True, (7, 2): True,
                      (6, 2): False, (8, 2): False, (6, 3): False}

_TIMING = re.compile(r'"timing_ms": \d+')


def normalize(text: str) -> str:
    """Report text with the only nondeterministic field zeroed."""
    return _TIMING.sub('"timing_ms": 0', text)


def digest(text: str) -> str:
    return hashlib.sha256(normalize(text).encode()).hexdigest()[:16]


def query_key(query: str) -> str:
    """Digest-table key of a query given as its space-joined argv."""
    return hashlib.sha256(query.encode()).hexdigest()[:16]


def _power_coeffs(n: int, a: int) -> list[int]:
    """Coefficients of (1 + t + ... + t^(a-1))^n."""
    out = [1]
    for _ in range(n):
        out = [sum(out[i - j] for j in range(a) if 0 <= i - j < len(out))
               for i in range(len(out) + a - 1)]
    return out


def _coeff(coeffs: list[int], d: int) -> int:
    return coeffs[d] if 0 <= d < len(coeffs) else 0


def power_ci(n: int, a: int, d: int) -> int:
    return _coeff(_power_coeffs(n, a), d)


def aci(n: int, a: int, d: int) -> int:
    """Quotient dimension in degree d after the a-th power of the variable sum."""
    grown = _power_coeffs(n + 1, a)
    return max(_coeff(grown, d) - _coeff(grown, d - 1), 0)


def froberg_series(n: int, a: int, D: int) -> list[int]:
    """Coefficients of (1 - t^a)^(n+2) / (1 - t)^n through degree D, cut
    before the first non-positive one."""
    out = []
    for d in range(D + 1):
        c = sum((-1) ** k * comb(n + 2, k) * comb(n - 1 + d - a * k, n - 1)
                for k in range(d // a + 1))
        if c <= 0:
            break
        out.append(c)
    return out


def froberg_degree(n: int, a: int) -> int:
    if a == 2:
        return (n + 2) // 3
    if a == 3:
        return 2 * n // 3 + 1
    return (n * (a - 1) + 1) // 4


def closed_form_paths(n: int, d: int) -> int | None:
    if d > n // 3 + 1:
        return None

    def c(k):
        return comb(n, k) if k >= 0 else 0

    return c(d) - 2 * c(d - 2) + c(d - 4)


def injective_expected(a: int, d: int, n: int) -> bool:
    if a == 2:
        return n >= 3 * d - 2
    if a == 3:
        return n >= -(-(3 * d - 3) // 2)
    raise ValueError("no proven threshold for this exponent")


def _inequality_met(a: int, d: int, n: int) -> bool:
    # n >= ceil(2d/(a-1)) + (2d-1)/(a-1), compared in integers
    return (n - -(-2 * d // (a - 1))) * (a - 1) >= 2 * d - 1


def _cell(text: str):
    if text in ("", "None"):
        return None
    if text in ("True", "False"):
        return text == "True"
    try:
        return int(text)
    except ValueError:
        return text


def _table_rows(text: str) -> tuple[str, list[dict]]:
    lines = text.rstrip("\n").split("\n")
    query = lines[0].split()[1]
    header = lines[1]
    starts = [m.start() for m in re.finditer(r"\S+", header)]
    names = header.split()
    rows = []
    for line in lines[2:]:
        cells = [line[s:e].strip() for s, e in zip(starts, starts[1:] + [None])]
        rows.append({k: _cell(v) for k, v in zip(names, cells)})
    return query, rows


def _csv_rows(text: str) -> list[dict]:
    reader = csv.reader(io.StringIO(text))
    names = next(reader)
    return [{k: _cell(v) for k, v in zip(names, row)} for row in reader]


def _json_rows(report: dict) -> list[dict]:
    """The rows the tabular formats would print, read from a JSON report."""
    query, result = report["query"], report["result"]
    if query in ("hilbert", "inject"):
        return result["rows"]
    if query == "wlp":
        return result["degrees"]
    if query == "sweep":
        return [{"n": block["n"], **r} for block in result["rows"]
                for r in block["degrees"]]
    if query == "paths":
        row = {k: result[k] for k in ("a", "t", "closed_form_valid",
                                      "closed_form_value")}
        if "conjecture" in result:
            row["exact_dim"] = result["conjecture"]["exact_dim"]
            row["agrees"] = result["conjecture"]["agrees"]
        return [row]
    if query == "witness":
        return result["witnesses"]
    if query == "froberg":
        pred = result["predicted"]
        return [{"d": d, "predicted": pred[d] if d < len(pred) else None,
                 "exact": v} for d, v in enumerate(result["exact"])]
    if query == "initial":
        return [{"monomial": m} for m in result["monomials"]]
    raise ValueError(f"unknown query {query}")


def _args(argv) -> dict:
    out = {"subcommand": argv[0], "format": "json", "field": "rational",
           "seeds": ()}
    for flag, value in zip(argv[1::2], argv[2::2]):
        key = flag[2:].replace("-", "_")
        if key in ("n", "a", "d"):
            out[key] = int(value)
        elif key in ("n_range", "d_range"):
            lo, hi = value.split("..")
            out[key] = (int(lo), int(hi))
        elif key == "seeds":
            out[key] = tuple(int(s) for s in value.split(","))
        else:
            out[key] = value
    return out


class Gate:
    """Collects the failed facts of one report."""

    def __init__(self):
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def _monomial_degree(text: str) -> int:
    if text == "1":
        return 0
    return sum(int(e) if e else 1 for e in re.findall(r"x\d+(?:\^(\d+))?", text))


def _check_initial(g: Gate, q: dict, rows, report) -> None:
    n, a, d = q["n"], q["a"], q["d"]
    mons = [r["monomial"] for r in rows]
    g.expect(len(set(mons)) == len(mons), "initial monomials repeat")
    g.expect(all(_monomial_degree(str(m)) == d for m in mons),
             "initial monomial of the wrong degree")
    g.expect(len(mons) == comb(n + d - 1, d) - aci(n, a, d),
             "initial piece size disagrees with the quotient dimension")
    if report is not None:
        res = report["result"]
        g.expect(res["count"] == len(mons), "count disagrees with the list")
        g.expect(res["quotient_dim"] == aci(n, a, d), "quotient_dim != aci")
        g.expect(res["combinatorial_match"] is True, "combinatorial_match is not true")


def _check_hilbert(g: Gate, q: dict, rows, report) -> None:
    n, a = q["n"], q["a"]
    g.expect([r["d"] for r in rows] == list(range((a - 1) * n + 1)),
             "hilbert degree list")
    for r in rows:
        g.expect(r["power_ci"] == power_ci(n, a, r["d"]), f"power_ci at d={r['d']}")
        g.expect(r["aci"] == aci(n, a, r["d"]), f"aci at d={r['d']}")


def _check_froberg(g: Gate, q: dict, rows, report) -> None:
    n, a = q["n"], q["a"]
    D = froberg_degree(n, a)
    series = froberg_series(n, a, D)
    g.expect([r["d"] for r in rows] == list(range(D + 1)), "froberg degree list")
    g.expect([r["predicted"] for r in rows if r["predicted"] is not None] == series,
             "predicted series")
    upto = min(D, len(series) - 1)
    g.expect([r["exact"] for r in rows[:upto + 1]] == series[:upto + 1],
             "exact dimensions leave the predicted series")
    if report is not None:
        res = report["result"]
        g.expect(res["equal_within_guarantee"] is True, "equal_within_guarantee is not true")
        g.expect(res["guaranteed_degree"] == D, "guaranteed_degree")


def _check_degrees(g: Gate, n: int, a: int, rows, overall) -> None:
    top = 1
    while aci(n, a, top + 1) > 0:
        top += 1
    g.expect([r["d"] for r in rows] == list(range(1, top + 1)),
             f"wlp degree list at n={n}")
    for r in rows:
        below, at, rank = r["dim_below"], r["dim_at"], r["map_rank"]
        g.expect(below == aci(n, a, r["d"] - 1) and at == aci(n, a, r["d"]),
                 f"dimensions at n={n}, d={r['d']}")
        g.expect(rank <= min(below, at), f"rank above its bound at n={n}, d={r['d']}")
        g.expect(r["injective"] == (rank == below) and r["surjective"] == (rank == at)
                 and r["maximal_rank"] == (rank == min(below, at)),
                 f"inconsistent flags at n={n}, d={r['d']}")
    wlp = all(r["maximal_rank"] for r in rows)
    if overall is not None:
        g.expect(overall == wlp, f"overall_wlp disagrees with the degrees at n={n}")
    if (n, a) in WLP_CLASSIFICATION:
        g.expect(wlp == WLP_CLASSIFICATION[(n, a)], f"WLP classification at n={n}, a={a}")


def _check_wlp(g: Gate, q: dict, rows, report) -> None:
    overall = report["result"]["overall_wlp"] if report is not None else None
    _check_degrees(g, q["n"], q["a"], rows, overall)


def _check_sweep(g: Gate, q: dict, rows, report) -> None:
    lo, hi = q["n_range"]
    blocks = {b["n"]: b for b in report["result"]["rows"]} if report else {}
    g.expect(sorted({r["n"] for r in rows}) == list(range(lo, hi + 1)), "sweep n list")
    for n in range(lo, hi + 1):
        overall = blocks[n]["overall_wlp"] if n in blocks else None
        _check_degrees(g, n, q["a"], [r for r in rows if r["n"] == n], overall)


def _check_inject(g: Gate, q: dict, rows, report) -> None:
    a, d = q["a"], q["d"]
    lo, hi = q["n_range"]
    g.expect([r["n"] for r in rows] == list(range(lo, hi + 1)), "inject n list")
    for r in rows:
        n = r["n"]
        g.expect(r["dim_below"] == aci(n, a, d - 1) and r["dim_at"] == aci(n, a, d),
                 f"dimensions at n={n}")
        g.expect(r["rank"] <= min(r["dim_below"], r["dim_at"]), f"rank bound at n={n}")
        g.expect(r["injective"] == (r["rank"] == r["dim_below"]),
                 f"injective flag at n={n}")
        g.expect(r["injective"] == injective_expected(a, d, n),
                 f"injectivity threshold at n={n}")
        g.expect(r["inequality_met"] == _inequality_met(a, d, n),
                 f"inequality_met at n={n}")


def _check_witness(g: Gate, q: dict, rows, report) -> None:
    g.expect([r["seed"] for r in rows] == list(q["seeds"]), "one record per seed")
    for r in rows:
        g.expect(r["n"] == q["n"] and r["d"] == q["d"], "witness sizes")
        g.expect(r["congruence_ok"] is True, f"congruence_ok for seed {r['seed']}")
        g.expect(r["nonmembership_ok"] is True, f"nonmembership_ok for seed {r['seed']}")
        if report is not None:
            g.expect(len(r["a_values"]) == q["n"], "one weight per variable")
            g.expect(len(r["Q_terms"]) > 0, "empty Q")


def _check_paths(g: Gate, q: dict, rows, report) -> None:
    n, d = q["n"], q["d"]
    (r,) = rows
    cf = closed_form_paths(n, d)
    g.expect(r["closed_form_valid"] == (cf is not None), "closed_form_valid")
    if cf is not None:
        g.expect(r["closed_form_value"] == cf, "closed_form_value")
        g.expect(r["a"] == cf, "admissible count disagrees with the closed form")
    if q["seeds"]:
        g.expect(r["exact_dim"] <= r["a"], "exact_dim exceeds a_count")
        g.expect(r["agrees"] == (r["exact_dim"] == r["a"]), "agrees flag")


_CHECKS = {
    "initial": _check_initial, "hilbert": _check_hilbert,
    "froberg": _check_froberg, "wlp": _check_wlp, "sweep": _check_sweep,
    "inject": _check_inject, "witness": _check_witness, "paths": _check_paths,
}

# subcommands whose reports carry one yes/no verdict per row
_VERDICT_QUERIES = ("wlp", "sweep", "inject")


def check(argv, code: int, text: str) -> tuple[list[str], int, int]:
    """Check one report. Returns (problems, verdicts, witness records)."""
    q = _args(argv)
    g = Gate()
    g.expect(code == 0, f"exit code {code}, expected 0")
    if code != 0:
        return g.problems, 0, 0
    try:
        if q["format"] == "json":
            report = json.loads(text)
            rows = _json_rows(report)
            g.expect(report["query"] == q["subcommand"], "query name")
            g.expect(report["field"] == q["field"] or
                     report["field"].startswith("prime:") and q["field"] == "prime",
                     "field")
            g.expect(tuple(report["seeds"]) == q["seeds"], "seeds")
            g.expect("findings" not in report["result"], "unexpected findings")
        else:
            report = None
            if q["format"] == "csv":
                rows = _csv_rows(text)
            else:
                query, rows = _table_rows(text)
                g.expect(query == q["subcommand"], "query name")
        _CHECKS[q["subcommand"]](g, q, rows, report)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        g.problems.append(f"unreadable report: {exc!r}")
        return g.problems, 0, 0
    verdicts = len(rows) if q["subcommand"] in _VERDICT_QUERIES else 0
    records = len(rows) if q["subcommand"] == "witness" else 0
    return g.problems, verdicts, records
