"""Spans around the calls into each module of the program, from outside it.

`Tracer.install` replaces module attributes of `lefschetz_kit` with timing
wrappers; no source file changes. A function is rebound under every
package module name that refers to it, because calls resolve through the
calling module's globals: `quotient._rref_fraction` and
`witness._reduce_spec` are the same objects as `linalg._rref_fraction` and
`quotient._reduce_spec`. Wrappers pass arguments, return values and
exceptions through unchanged. A target that no longer exists is skipped,
and every metric read from it is reported as absent.

Spans stay in memory as [name, start_ns, end_ns, parent index, query id]
and are summarized and written out when the run ends. The self time of a
span is its duration minus the durations of its child spans; the program
runs in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "lefschetz_kit"


def _elim_cells(tracer, args, kwargs):
    first = args[0]
    shape = getattr(first, "shape", None)
    rows, cols = shape if shape is not None else (len(first), args[1])
    tracer.counts["elim_cells"] += rows * cols


def _map_rank_field(tracer, args, kwargs):
    mode = kwargs.get("mode", args[3] if len(args) > 3 else None)
    if tracer.prime_query and (mode is None or mode.is_rational):
        tracer.counts["rational_escalations"] += 1


def _time_parse_args(tracer, parser):
    parser.parse_args = tracer.wrap("cli.parse", parser.parse_args)
    return parser


# (module, attribute, span name, hook before the call, hook on the result)
TARGETS = (
    ("linalg", "_rref_mod_numpy", "linalg.elim_modp_numpy", _elim_cells, None),
    ("linalg", "_rref_mod_python", "linalg.elim_modp_python", _elim_cells, None),
    ("linalg", "_rref_fraction", "linalg.elim_rational", _elim_cells, None),
    ("linalg", "_mod_matmul", "linalg.mod_matmul", None, None),
    ("linalg", "in_column_space", "linalg.column_space", None, None),
    ("quotient", "_reduce_spec", "quotient.span_echelon", None, None),
    ("quotient", "multiplication_map_rank", "quotient.map_rank", _map_rank_field, None),
    ("quotient", "wlp_sweep", "quotient.wlp_sweep", None, None),
    ("quotient", "injectivity_threshold_check", "quotient.inject", None, None),
    ("quotient", "initial_degree_piece", "quotient.initial", None, None),
    ("quotient", "graded_dimension", "quotient.graded_dimension", None, None),
    ("quotient", "form_power", "quotient.forms", None, None),
    ("quotient", "random_linear_form", "quotient.forms", None, None),
    ("witness", "build_Q", "witness.build", None, None),
    ("witness", "build_Qprime", "witness.build", None, None),
    ("witness", "verify_congruence", "witness.congruence", None, None),
    ("witness", "verify_nonmembership", "witness.nonmembership", None, None),
    ("witness", "witness_record", "witness.record", None, None),
    ("monomials", "initial_generators", "monomials", None, None),
    ("monomials", "enumerate_degree_piece", "monomials", None, None),
    ("monomials", "in_combinatorial_ideal", "monomials", None, None),
    ("hilbert", "power_ci_hilbert", "hilbert", None, None),
    ("hilbert", "aci_hilbert", "hilbert", None, None),
    ("hilbert", "froberg_truncation", "hilbert", None, None),
    ("hilbert", "froberg_corollary_degree", "hilbert", None, None),
    ("paths", "count_admissible_paths", "paths.walk", None, None),
    ("paths", "count_double_cross", "paths.walk", None, None),
    ("paths", "path_counts", "paths.counts", None, None),
    ("paths", "conjecture_check", "paths.conjecture", None, None),
    ("cli", "main", "cli.main", None, None),
    ("cli", "build_parser", "cli.parse", None, _time_parse_args),
    ("cli", "dispatch", "cli.dispatch", None, None),
    ("cli", "_render", "cli.render", None, None),
)

# layers whose self times, with the benchmark's glue, add up to wall time
LAYERS = ("cli", "quotient", "linalg", "witness", "monomials", "hilbert", "paths")

_MAP_RANK = ["quotient.multiplication_map_rank"]
_SPAN = ["quotient._reduce_spec"]
_BUILD = ["witness.build_Q", "witness.build_Qprime"]
_MONOMIALS = ["monomials.initial_generators", "monomials.enumerate_degree_piece",
              "monomials.in_combinatorial_ideal"]

# per-layer metric -> (unit, targets it is read from)
PER_LAYER = {
    "linalg.elim_modp_numpy_s": ("s", ["linalg._rref_mod_numpy"]),
    "linalg.elim_modp_numpy_calls": ("count", ["linalg._rref_mod_numpy"]),
    "linalg.elim_modp_python_s": ("s", ["linalg._rref_mod_python"]),
    "linalg.elim_modp_python_calls": ("count", ["linalg._rref_mod_python"]),
    "linalg.elim_rational_s": ("s", ["linalg._rref_fraction"]),
    "linalg.elim_rational_calls": ("count", ["linalg._rref_fraction"]),
    "linalg.elim_cells": ("count", ["linalg._rref_mod_numpy", "linalg._rref_mod_python",
                                    "linalg._rref_fraction"]),
    "linalg.mod_matmul_s": ("s", ["linalg._mod_matmul"]),
    "quotient.span_echelon_s": ("s", _SPAN),
    "quotient.span_cache_hits": ("count", _SPAN),
    "quotient.span_cache_misses": ("count", _SPAN),
    "quotient.span_cache_hit_ratio": ("ratio", _SPAN),
    "quotient.map_rank_self_s": ("s", _MAP_RANK),
    "quotient.map_rank_calls": ("count", _MAP_RANK),
    "quotient.map_rank_calls_per_verdict": ("ratio", _MAP_RANK),
    "quotient.rational_escalations": ("count", _MAP_RANK),
    "witness.build_s": ("s", _BUILD),
    "witness.build_calls_per_record": ("ratio", _BUILD),
    "witness.congruence_s": ("s", ["witness.verify_congruence"]),
    "witness.nonmembership_s": ("s", ["witness.verify_nonmembership"]),
    "monomials.s": ("s", _MONOMIALS),
    "monomials.calls": ("count", _MONOMIALS),
    "hilbert.s": ("s", ["hilbert.power_ci_hilbert", "hilbert.aci_hilbert",
                        "hilbert.froberg_truncation", "hilbert.froberg_corollary_degree"]),
    "paths.walk_s": ("s", ["paths.count_admissible_paths", "paths.count_double_cross"]),
    "paths.conjecture_self_s": ("s", ["paths.conjecture_check"]),
    "cli.parse_s": ("s", ["cli.build_parser"]),
    "cli.render_s": ("s", ["cli._render"]),
    "cli.dispatch_self_s": ("s", ["cli.dispatch"]),
    "cli.output_bytes": ("bytes", []),
    **{f"{layer}.self_s": ("s", []) for layer in LAYERS},
    "bench.glue_s": ("s", []),
    "traced_wall_s": ("s", []),
    "trace_overhead_s": ("s", []),
}


class Tracer:
    """Span recorder for one run; install it before the first query."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self.query = -1
        self.prime_query = False
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._originals: dict[str, object] = {}

    def wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            span = [name, 0, 0, stack[-1], self.query]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            return out if after is None else after(self, out)

        return timed

    def install(self) -> None:
        modules = {}
        for mod, *_ in TARGETS:
            if mod not in modules:
                try:
                    modules[mod] = importlib.import_module(f"{PACKAGE}.{mod}")
                except ImportError:
                    modules[mod] = None
        package = [m for m in modules.values() if m is not None]
        package.append(importlib.import_module(PACKAGE))
        for mod, attr, name, before, after in TARGETS:
            fn = getattr(modules[mod], attr, None)
            if fn is None or not callable(fn):
                self.absent.append(f"{mod}.{attr}")
                continue
            self._originals[f"{mod}.{attr}"] = fn
            timed = self.wrap(name, fn, before, after)
            for m in package:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, timed)

    def summarize(self, latencies_ns: list[int], output_bytes: int,
                  verdicts: int, records: int) -> dict:
        """Per-layer metrics of the run. Absent metrics carry value 0."""
        spans = self.spans
        child = [0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total = defaultdict(int)
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        roots = defaultdict(int)
        for i, (name, t0, t1, parent, query) in enumerate(spans):
            dur = t1 - t0
            self_ns[name] += dur - child[i]
            calls[name] += 1
            if parent < 0:
                roots[query] += dur
            # inclusive time counts a name once even when it nests in itself
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:
                total[name] += dur
        glue = sum(lat - roots.get(q, 0) for q, lat in enumerate(latencies_ns))
        wall = sum(latencies_ns)
        layer_self = {layer: sum(v for k, v in self_ns.items()
                                 if k.split(".")[0] == layer) for layer in LAYERS}
        unlayered = set(self_ns) - {k for k in self_ns if k.split(".")[0] in LAYERS}
        if unlayered or sum(layer_self.values()) + glue != wall:
            raise RuntimeError("span self times do not add up to the wall time")

        def s(ns):
            return ns / 1e9

        info = getattr(self._originals.get("quotient._reduce_spec"), "cache_info", None)
        hits, misses = (info().hits, info().misses) if info else (0, 0)
        builds = calls["witness.build"]
        values = {
            "linalg.elim_modp_numpy_s": s(total["linalg.elim_modp_numpy"]),
            "linalg.elim_modp_numpy_calls": calls["linalg.elim_modp_numpy"],
            "linalg.elim_modp_python_s": s(total["linalg.elim_modp_python"]),
            "linalg.elim_modp_python_calls": calls["linalg.elim_modp_python"],
            "linalg.elim_rational_s": s(total["linalg.elim_rational"]),
            "linalg.elim_rational_calls": calls["linalg.elim_rational"],
            "linalg.elim_cells": self.counts["elim_cells"],
            "linalg.mod_matmul_s": s(total["linalg.mod_matmul"]),
            "quotient.span_echelon_s": s(total["quotient.span_echelon"]),
            "quotient.span_cache_hits": hits,
            "quotient.span_cache_misses": misses,
            "quotient.span_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0,
            "quotient.map_rank_self_s": s(self_ns["quotient.map_rank"]),
            "quotient.map_rank_calls": calls["quotient.map_rank"],
            "quotient.map_rank_calls_per_verdict":
                calls["quotient.map_rank"] / verdicts if verdicts else 0,
            "quotient.rational_escalations": self.counts["rational_escalations"],
            "witness.build_s": s(total["witness.build"]),
            "witness.build_calls_per_record": builds / records if records else 0,
            "witness.congruence_s": s(total["witness.congruence"]),
            "witness.nonmembership_s": s(total["witness.nonmembership"]),
            "monomials.s": s(total["monomials"]),
            "monomials.calls": calls["monomials"],
            "hilbert.s": s(total["hilbert"]),
            "paths.walk_s": s(total["paths.walk"]),
            "paths.conjecture_self_s": s(self_ns["paths.conjecture"]),
            "cli.parse_s": s(total["cli.parse"]),
            "cli.render_s": s(total["cli.render"]),
            "cli.dispatch_self_s": s(self_ns["cli.dispatch"]),
            "cli.output_bytes": output_bytes,
            **{f"{layer}.self_s": s(v) for layer, v in layer_self.items()},
            "bench.glue_s": s(glue),
            "traced_wall_s": s(wall),
        }
        out = {}
        for metric, value in values.items():
            unit, sources = PER_LAYER[metric]
            entry = {"value": value, "unit": unit}
            if any(src in self.absent for src in sources):
                entry = {"value": 0, "unit": unit, "absent": True}
            out[metric] = entry
        return out

    def write(self, path: Path) -> None:
        """Write every span, times in microseconds from the first span."""
        names = sorted({sp[0] for sp in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0
        rows = [[index[n], (a - t0) // 1000, (b - t0) // 1000, p, q]
                for n, a, b, p, q in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "columns": ["name", "start_us", "end_us", "parent", "query"],
                       "spans": rows}, fh, separators=(",", ":"))
