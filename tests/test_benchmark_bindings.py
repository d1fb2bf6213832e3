"""The traced benchmark wraps fourcurv functions by their module bindings.

``perfbench/spans.py`` lists them in ``WRAPPED`` and looks each one up in its
owner's ``__dict__``.  A rename or a move in ``src/`` that breaks a lookup
fails here in milliseconds, instead of in the benchmark's own self-test.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_wrapped_binding_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    for name, module_path, attr_path in spans.WRAPPED:
        owner = importlib.import_module(module_path)
        *parents, attr = attr_path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        assert callable(owner.__dict__.get(attr)), f"{name}: {module_path}.{attr_path}"
