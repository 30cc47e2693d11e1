"""The benchmark's traced run wraps package functions by name.

perfbench/spans.py lists them in SPANS; a function renamed or removed in
the package would make the traced run and its selftest fail, so every
listed name must exist, as a function, in its module.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_names_a_package_function():
    spans = load_spans().SPANS
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"tquot.{layer}"), name, None))
    ]
    assert not missing
    assert "smith_normal_form" in spans["exactq"]
    assert "barycentric_pair" in spans["simplicial"]
    assert "in_cone" in spans["polytope"]
