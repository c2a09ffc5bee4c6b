"""The benchmark's tracer names railcheck functions by string; each must
still exist, or the traced benchmark would fail only in its own run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).parent.parent / "bench" / "spans.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module, name in spans.TRACED:
        assert module in spans.MODULES
        assert callable(getattr(importlib.import_module("railcheck." + module), name, None)), (module, name)
