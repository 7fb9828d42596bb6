"""Every name the bench tracer wraps resolves in the package.

``bench/tracing.py`` looks its layers up by ``getattr`` when it installs, so
a renamed or deleted function would break the traced benchmark, not these
tests, unless they check it here.  Its top-level imports are stdlib only.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_layer_resolves(tracing):
    assert tracing.LAYERS
    for prefix, module, name in tracing.LAYERS:
        fn = getattr(importlib.import_module(f"perispec.{module}"), name, None)
        assert callable(fn), f"{prefix}: perispec.{module}.{name}"


def test_every_table_resolves(tracing):
    weights = importlib.import_module("perispec.weights")
    assert tracing.TABLES
    for name in tracing.TABLES:
        assert callable(getattr(weights, name, None)), f"perispec.weights.{name}"
