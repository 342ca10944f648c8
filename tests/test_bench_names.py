"""The package names the benchmark's span tracer wraps still exist."""

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_benchmark_target_exists():
    # bench/spans.py skips a missing target and reports its metrics as
    # absent, so a renamed function would otherwise surface only after a
    # full benchmark run; it imports only the standard library, and is run
    # from its text so that nothing is written next to it
    spans = types.ModuleType("spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"),
         spans.__dict__)
    missing = [(module, attr) for module, attr, *_ in spans.TARGETS
               if not hasattr(importlib.import_module(
                   f"{spans.PACKAGE}.{module}"), attr)]
    assert spans.TARGETS and missing == []
