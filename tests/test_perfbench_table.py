"""The benchmark's tracer patches library functions by name; each name must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [(module, attr) for module, attr, _ in tracing.TRACED
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
