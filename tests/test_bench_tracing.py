"""Every name the bench tracer wraps resolves in the package, and every
result field its hooks read exists.

``bench/tracing.py`` looks its layers up by ``getattr`` when it installs, and
reads fields of their results after each call, so a renamed or deleted
function or field would break the traced benchmark, not these tests, unless
they check it here.  Its top-level imports are stdlib only.
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


def test_hooks_read_fields_the_results_have(tracing):
    # PeriodMap.n and .n_steps, SpectrumReport.iterations and
    # PeriodicOrbit.periods_used, read from real results
    from perispec import (Boundary, Nonlinearity, Problem, closed_form, find_periodic_solution,
                          period_map, principal_spectrum_point)

    assert {prefix for prefix, _, _ in tracing.LAYERS} >= set(tracing.AFTER)
    w = closed_form("cos(2*pi*x)*(1 + sin(2*pi*t/T)) - 0.2", 1.0)
    op = Problem(Boundary.DIRICHLET, (1.0,), "parabolic", 1.0, w).at(16)[0]
    pmap = period_map(op, w, 1.0, n_steps=64)
    point = principal_spectrum_point(op, w, 1.0)
    orbit = find_periodic_solution(op, w, Nonlinearity(), 4.0, check_uniqueness=False)
    tracer = tracing.Tracer("test")
    for prefix, result in (("evolution.period_map", pmap), ("spectrum.mu_eval", point),
                           ("kpp.orbit", orbit)):
        tracing.AFTER[prefix](tracer, (), {}, result)
    assert tracer.counts["evolution.rk_steps"] == 64
    assert tracer.counts["evolution.flop"] > 0
    assert tracer.counts["spectrum.power_iterations"] == point.iterations > 0
    assert tracer.counts["kpp.poincare_periods"] == orbit.periods_used > 0
