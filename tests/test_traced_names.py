"""Every function the benchmark's span tracer wraps is a package module attribute.

``benchmarks/spans.py`` looks each ``(module, function)`` pair of ``TRACED``
up with ``getattr`` when a traced run starts, so a renamed or deleted
function would otherwise surface only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _traced() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_every_traced_function_is_a_package_attribute():
    traced = _traced()
    assert traced  # the file defines pairs to check
    missing = [
        f"textkgc.{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"textkgc.{module}"), name, None))
    ]
    assert missing == []
