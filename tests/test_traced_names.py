"""The per-layer benchmark tracer patches functions and methods by name; a
rename in `signedwalk` would make it fail only when the benchmark runs.
This loads `perfbench/traced.py` by path and checks every name it patches."""

import importlib.util
from pathlib import Path

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    for module, name, _ in traced.FUNCTIONS:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    for module, cls, name in traced.METHODS:
        assert callable(getattr(cls, name, None)), f"{cls.__name__}.{name}"
        assert getattr(module, cls.__name__) is cls
