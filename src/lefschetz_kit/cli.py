"""Command line interface: argument parsing, dispatch, serialization.

Exit codes: 0 for success, 1 when a computation contradicts a proven or
conjectured statement the tool checks, 2 for invalid input or an --out
path that cannot be written, 3 when a resource guard refuses the
computation, 4 when two independent internal routes disagree.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from dataclasses import dataclass

from . import hilbert, monomials, paths, quotient, witness
from .errors import GuardRefusal, InternalFault
from .linalg import DEFAULT_PRIME, RATIONALS, FieldTag, prime_field

SCHEMA = "lefschetz-kit/1"


@dataclass(frozen=True)
class RunConfig:
    """One parsed invocation."""

    subcommand: str
    n: int | None = None
    a: int | None = None
    d: int | None = None
    n_range: tuple[int, int] | None = None
    d_range: tuple[int, int] | None = None
    field: FieldTag = RATIONALS
    seeds: tuple[int, ...] = ()
    format: str = "json"
    output_path: str | None = None
    boundary: str = "strict"
    verify_rational: bool = False


def _need(cfg: RunConfig, *names: str) -> list[int]:
    out = []
    for name in names:
        val = getattr(cfg, name)
        if val is None:
            raise ValueError(f"{cfg.subcommand} needs --{name}")
        out.append(val)
    return out


def _need_seeds(cfg: RunConfig) -> None:
    if not cfg.seeds:
        raise ValueError(f"{cfg.subcommand} needs --seeds")


def _case_for(a: int) -> monomials.GeneratorCase:
    if a == 2:
        return monomials.SQUARES
    if a == 3:
        return monomials.CUBES
    return monomials.generic_power(a)


def _run_initial(cfg: RunConfig):
    n, a, d = _need(cfg, "n", "a", "d")
    spec = quotient.IdealSpec(n=n, a=a)
    exps, pivots = quotient._initial_exponents(spec, d, cfg.field)
    result = {
        "monomials": [monomials._exponent_str(e) for e in exps],
        "count": len(exps),
        "quotient_dim": quotient.graded_dimension(spec, d, cfg.field),
    }
    code = 0
    # the prediction is the paper's, over Q, so it is checked only where
    # the field's dimension is Q's; a small prime can leave more
    if a in (2, 3) and result["quotient_dim"] == hilbert.aci_hilbert(n, a, d):
        # both sides hold every monomial with an exponent of at least a, so
        # only the pivots, all capped, need to be the capped members of the
        # ideal: they miss the standard monomials and number the rest
        std = monomials._standard_exponents(_case_for(a), n, d)
        result["combinatorial_match"] = (
            pivots.isdisjoint(std)
            and len(pivots) + len(std) == hilbert.power_ci_hilbert(n, a, d))
        if not result["combinatorial_match"]:
            code = 1
            result["findings"] = [
                "echelon initial piece differs from the combinatorial prediction"]
    else:
        result["combinatorial_match"] = None
    return code, {"n": n, "a": a, "d": d}, result


def _run_hilbert(cfg: RunConfig):
    n, a = _need(cfg, "n", "a")
    # the default degree range is empty below these, so no row checks them
    if n < 1 or a < 2:
        raise ValueError("need n >= 1 and a >= 2")
    if cfg.d is not None:
        if cfg.d_range is not None:
            raise ValueError("hilbert takes --d or --d-range, not both")
        degrees = [cfg.d]
    elif cfg.d_range is not None:
        degrees = list(range(cfg.d_range[0], cfg.d_range[1] + 1))
    else:
        degrees = list(range((a - 1) * n + 1))
    rows = [{"d": d, "power_ci": hilbert.power_ci_hilbert(n, a, d),
             "aci": hilbert.aci_hilbert(n, a, d)} for d in degrees]
    return 0, {"n": n, "a": a}, {"rows": rows}


def _run_froberg(cfg: RunConfig):
    n, a = _need(cfg, "n", "a")
    _need_seeds(cfg)
    D = hilbert.froberg_corollary_degree(n, a, _case_for(a))
    pred = hilbert.froberg_truncation(n, [a] * (n + 2), D)
    exact = quotient.random_powers_dimensions(n, a, cfg.seeds, range(D + 1),
                                              cfg.field)
    retained = list(pred.coefficients)
    upto = min(D, pred.truncation_degree)
    equal = exact[:upto + 1] == retained[:upto + 1]
    result = {
        "guaranteed_degree": D,
        "truncation_degree": pred.truncation_degree,
        "predicted": retained,
        "exact": exact,
        "equal_within_guarantee": equal,
    }
    code = 0
    if not equal:
        code = 1
        result["findings"] = [
            "exact dimensions leave the predicted series inside the guaranteed range"]
    return code, {"n": n, "a": a}, result


def _wlp_payload(rep: quotient.WlpReport) -> dict:
    return {
        "overall_wlp": rep.overall_wlp,
        "degrees": [{"d": r.d, "dim_below": r.dim_below, "dim_at": r.dim_at,
                     "map_rank": r.map_rank, "injective": r.injective,
                     "surjective": r.surjective, "maximal_rank": r.maximal_rank}
                    for r in rep.records],
    }


def _run_wlp(cfg: RunConfig):
    n, a = _need(cfg, "n", "a")
    _need_seeds(cfg)
    rep = quotient.wlp_sweep(n, a, cfg.seeds, cfg.field)
    return 0, {"n": n, "a": a}, _wlp_payload(rep)


def _run_sweep(cfg: RunConfig):
    (a,) = _need(cfg, "a")
    _need_seeds(cfg)
    if cfg.n_range is None:
        raise ValueError("sweep needs --n-range A..B")
    reports = quotient._wlp_reports(range(cfg.n_range[0], cfg.n_range[1] + 1),
                                    a, cfg.seeds, cfg.field)
    rows = [{"n": rep.n, **_wlp_payload(rep)} for rep in reports]
    return 0, {"a": a, "n_range": list(cfg.n_range)}, {"rows": rows}


def _inject_findings(rows: list[dict], a: int, d: int) -> list[str]:
    """The rows that contradict the closed-form inequality or the paper's
    thresholds. Both are statements over Q, so a row is checked only where
    its dimensions are Q's, aci_hilbert in degrees d-1 and d, which a small
    prime can exceed."""
    out = []
    for r in rows:
        n = r["n"]
        if (r["dim_below"], r["dim_at"]) != (hilbert.aci_hilbert(n, a, d - 1),
                                             hilbert.aci_hilbert(n, a, d)):
            continue
        if r["inequality_met"] and not r["injective"]:
            out.append(f"n={n}: the closed-form inequality holds but the map "
                       "is not injective")
        if a == 2 and d >= 3:
            if n >= 3 * d - 2 and not r["injective"]:
                out.append(f"n={n}: above the proven squares threshold but "
                           "not injective")
            if 2 * d - 2 <= n < 3 * d - 2 and r["injective"]:
                out.append(f"n={n}: inside the proven squares kernel range "
                           "but injective")
        if a == 3 and n >= -(-(3 * d - 3) // 2) and not r["injective"]:
            out.append(f"n={n}: above the proven cubes threshold but not "
                       "injective")
    return out


def _run_inject(cfg: RunConfig):
    a, d = _need(cfg, "a", "d")
    _need_seeds(cfg)
    if cfg.n_range is None:
        raise ValueError("inject needs --n-range A..B")
    if cfg.verify_rational and cfg.field.is_rational:
        raise ValueError("inject --verify-rational needs a prime --field")
    ns = range(cfg.n_range[0], cfg.n_range[1] + 1)
    rows = quotient.injectivity_threshold_check(a, d, ns, cfg.seeds, cfg.field)
    result: dict = {}
    if cfg.verify_rational:
        rational = quotient.injectivity_threshold_check(a, d, ns, cfg.seeds,
                                                        RATIONALS)
        result["rational_confirmed"] = all(
            r["injective"] == rr["injective"] for r, rr in zip(rows, rational))
        rows = rational
    result["rows"] = rows
    findings = _inject_findings(rows, a, d)
    if findings:
        result["findings"] = findings
    params = {"a": a, "d": d, "n_range": list(cfg.n_range)}
    return (1 if findings else 0), params, result


def _run_witness(cfg: RunConfig):
    n, d = _need(cfg, "n", "d")
    _need_seeds(cfg)
    records = []
    ok = True
    for s in cfg.seeds:
        params = witness.random_witness_params(n, d, s)
        rec = {"seed": s, **witness.witness_record(params)}
        ok = ok and rec["congruence_ok"] and rec["nonmembership_ok"]
        records.append(rec)
    result: dict = {"witnesses": records}
    if not ok:
        result["findings"] = ["a witness pair failed verification"]
    return (0 if ok else 1), {"n": n, "d": d}, result


def _run_paths(cfg: RunConfig):
    n, d = _need(cfg, "n", "d")
    if cfg.seeds and cfg.boundary == "touch":
        # the conjecture compares the exact dimension with the strict count
        raise ValueError("paths --seeds compares the strict count and takes "
                         "no --boundary touch")
    conv = (paths.BoundaryConvention.CROSS_MEANS_TOUCH if cfg.boundary == "touch"
            else paths.BoundaryConvention.CROSS_MEANS_STRICTLY_BEYOND)
    pspec = paths.PathSpec(n=n, d=d, boundary_convention=conv)
    counts = paths.path_counts(pspec)
    result: dict = {
        "a": counts.a_count,
        "t": counts.t_count,
        "closed_form_valid": counts.closed_form_valid,
        "closed_form_value": counts.closed_form_value,
    }
    findings = []
    if (counts.closed_form_valid and cfg.boundary == "strict"
            and counts.a_count != counts.closed_form_value):
        findings.append("closed form disagrees with the admissible count")
    if cfg.seeds:
        conj = paths.conjecture_check(n, d, cfg.seeds)
        result["conjecture"] = conj
        if conj["exact_dim"] > conj["a_count"]:
            findings.append("exact dimension exceeds the admissible count")
    if findings:
        result["findings"] = findings
    params = {"n": n, "d": d, "boundary": cfg.boundary}
    return (1 if findings else 0), params, result


def dispatch(config: RunConfig) -> tuple[int, dict]:
    """Run one subcommand and return the exit code with the full report."""
    if config.subcommand not in _SUBCOMMANDS:
        raise ValueError(f"unknown subcommand: {config.subcommand}")
    t0 = time.monotonic()
    code, params, result = _SUBCOMMANDS[config.subcommand][2](config)
    report = {
        "schema": SCHEMA,
        "query": config.subcommand,
        "params": params,
        "result": result,
        "field": str(config.field),
        "seeds": list(config.seeds),
        "timing_ms": int((time.monotonic() - t0) * 1000),
    }
    return code, report


def _csv_rows(report: dict) -> tuple[list[str], list[list]]:
    query = report["query"]
    result = report["result"]
    if query == "hilbert":
        return (["d", "power_ci", "aci"],
                [[r["d"], r["power_ci"], r["aci"]] for r in result["rows"]])
    if query == "inject":
        cols = ["n", "dim_below", "dim_at", "rank", "injective", "inequality_met"]
        return cols, [[r[c] for c in cols] for r in result["rows"]]
    if query == "wlp":
        cols = ["d", "dim_below", "dim_at", "map_rank", "injective",
                "surjective", "maximal_rank"]
        return cols, [[r[c] for c in cols] for r in result["degrees"]]
    if query == "sweep":
        cols = ["n", "d", "dim_below", "dim_at", "map_rank", "injective",
                "surjective", "maximal_rank"]
        rows = []
        for block in result["rows"]:
            for r in block["degrees"]:
                rows.append([block["n"]] + [r[c] for c in cols[1:]])
        return cols, rows
    if query == "paths":
        cols = ["a", "t", "closed_form_valid", "closed_form_value"]
        row = [result[c] for c in cols]
        if "conjecture" in result:
            cols = cols + ["exact_dim", "agrees"]
            row = row + [result["conjecture"]["exact_dim"],
                         result["conjecture"]["agrees"]]
        return cols, [row]
    if query == "witness":
        cols = ["seed", "n", "d", "congruence_ok", "nonmembership_ok"]
        return cols, [[r[c] for c in cols] for r in result["witnesses"]]
    if query == "froberg":
        rows = []
        retained = result["predicted"]
        for d, dim in enumerate(result["exact"]):
            pred = retained[d] if d < len(retained) else ""
            rows.append([d, pred, dim])
        return ["d", "predicted", "exact"], rows
    if query == "initial":
        return ["monomial"], [[m] for m in result["monomials"]]
    raise ValueError(f"no tabular layout for query: {query}")


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    header, rows = _csv_rows(report)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    cells = [header] + [[str(x) for x in r] for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in cells]
    meta = (f"# {report['query']} field={report['field']} "
            f"seeds={','.join(str(s) for s in report['seeds'])}")
    return meta + "\n" + "\n".join(lines) + "\n"


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("expected a range of the form A..B")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("range bounds must be integers") from exc
    if hi_i < lo_i:
        raise argparse.ArgumentTypeError("range end is below its start")
    return lo_i, hi_i


def _parse_field(text: str) -> FieldTag:
    if text == "rational":
        return RATIONALS
    if text == "prime":
        return prime_field(DEFAULT_PRIME)
    if text.startswith("prime:"):
        try:
            p = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise argparse.ArgumentTypeError("prime:P needs an integer P") from exc
        try:
            return prime_field(p)
        except ValueError as exc:
            raise argparse.ArgumentTypeError("prime:P needs a prime P") from exc
    raise argparse.ArgumentTypeError("field must be rational, prime or prime:P")


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError("seeds must be comma-separated integers") from exc


# argparse keyword arguments of each flag, keyed by its RunConfig field;
# the flag itself is the field name with dashes, as in --n-range. No flag
# has a default here: RunConfig holds them all
_FLAGS = {
    "n": {"type": int},
    "a": {"type": int},
    "d": {"type": int},
    "n_range": {"type": _parse_range, "metavar": "A..B"},
    "d_range": {"type": _parse_range, "metavar": "A..B"},
    "field": {"type": _parse_field, "metavar": "{rational|prime|prime:P}"},
    "seeds": {"type": _parse_seeds, "metavar": "S1,S2,..."},
    "boundary": {"choices": ("strict", "touch")},
    "verify_rational": {"action": "store_true"},
}

# help text, the flags each subcommand reads and its handler; --format and
# --out go on all
_SUBCOMMANDS = {
    "initial": ("degree piece of the initial ideal, checked combinatorially",
                ("n", "a", "d", "field"), _run_initial),
    "hilbert": ("quotient dimension counts per degree",
                ("n", "a", "d", "d_range"), _run_hilbert),
    "froberg": ("predicted series against exact dimensions",
                ("n", "a", "seeds", "field"), _run_froberg),
    "wlp": ("maximal-rank sweep over degrees 1 to ceil(((a-1)n+a)/2)-1 "
            "for one n",
            ("n", "a", "seeds", "field"), _run_wlp),
    "inject": ("injectivity table over a range of n",
               ("a", "d", "n_range", "seeds", "field", "verify_rational"),
               _run_inject),
    "witness": ("kernel witness pairs with exact verification",
                ("n", "d", "seeds"), _run_witness),
    "paths": ("bounded walk counts and the dimension comparison",
              ("n", "d", "seeds", "boundary"), _run_paths),
    "sweep": ("maximal-rank sweeps over a range of n",
              ("a", "n_range", "seeds", "field"), _run_sweep),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lefschetz-kit",
        description="Exact computations around weak Lefschetz multiplication maps")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, flags, _) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text,
                            argument_default=argparse.SUPPRESS)
        for flag in flags:
            sp.add_argument("--" + flag.replace("_", "-"), **_FLAGS[flag])
        sp.add_argument("--format", choices=("json", "csv", "table"))
        sp.add_argument("--out", dest="output_path", metavar="PATH")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use; parsing keeps no
    state in it, and building it costs far more than a parse."""
    return build_parser()


def main(argv=None) -> int:
    # the parser sets only the flags given (argument_default=SUPPRESS), so
    # every other field takes its default from RunConfig, where each is
    # written once
    config = RunConfig(**vars(_parser().parse_args(argv)))
    try:
        code, report = dispatch(config)
        text = _render(report, config.format)
    except ValueError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2
    except GuardRefusal as exc:
        print(f"error: refusing an oversized computation: {exc}", file=sys.stderr)
        return 3
    except InternalFault as exc:
        print(f"error: independent checks disagree: {exc}", file=sys.stderr)
        return 4
    if config.output_path:
        try:
            with open(config.output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
