"""The benchmark's tracer wraps magtun functions by name, so each traced
name must still resolve in its module."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{attr}" for module, attr in spans.TRACED
               if not hasattr(importlib.import_module(f"magtun.{module}"),
                              attr)]
    assert spans.TRACED and not missing
