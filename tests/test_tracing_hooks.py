"""The per-layer benchmark wraps functions and methods by name.

bench/tracing.py lists them; if a refactor renames or removes one, the
traced run breaks. This test loads the tracer by path and checks that
every listed name still exists.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(tracing):
    for layer, names in tracing.FUNCTIONS.items():
        module = importlib.import_module(f"wittcurves.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"wittcurves.{layer}.{name}"


def test_traced_methods_exist(tracing):
    for layer, cls_name, method, _ in tracing.METHODS + tracing.COUNTED:
        cls = getattr(importlib.import_module(f"wittcurves.{layer}"), cls_name, None)
        assert cls is not None, f"wittcurves.{layer}.{cls_name}"
        assert callable(getattr(cls, method, None)), f"wittcurves.{layer}.{cls_name}.{method}"
