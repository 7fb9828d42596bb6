"""Threshold solver: existence classification and root-finding for mu(lam) = 0.

The dense-eigensolver bisection used below is an independent route to the
same discrete threshold: it never touches the time stepper or the power
iteration, so agreement is evidence that both halves are right.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import perispec
import perispec.spectrum
import perispec.weighted_solver
import perispec.weights
from perispec.geometry import Boundary, build_grid, make_kernel, wrap_kernel
from perispec.operator import assemble
from perispec.kpp import Nonlinearity, find_periodic_solution
from perispec.spectrum import SpectrumReport, check_S_conditions, principal_spectrum_point
from perispec.weighted_solver import (LambdaPResult, pe_sufficiency,
                                      solve_lambda_p, upper_bound_lambda_p)
from perispec.weights import closed_form, time_average

STANDARD_WEIGHT = "sin(2*pi*t/T) + cos(2*pi*x) - 0.2"


def make_op(boundary, n=32, r=1.0):
    grid = build_grid(boundary, (1.0,), n)
    kern = make_kernel("parabolic", r, 1)
    if boundary is Boundary.PERIODIC:
        kern = wrap_kernel(kern, (1.0,))
    return assemble(kern, grid)


def dense_mu(op, m_values, lam):
    """Top real eigenvalue of the frozen generator, by a dense eigensolver."""
    gen = op.K - np.diag(op.b) + lam * np.diag(m_values)
    return float(np.linalg.eigvals(gen).real.max())


def dense_bisection_root(op, m_values, tol=1e-12):
    """Positive root of the dense autonomous curve, found independently."""
    lo = None
    lam = 1e-3
    while lam < 1e4:
        val = dense_mu(op, m_values, lam)
        if val < -1e-12:
            lo = lam
        if val > 1e-12 and lo is not None:
            hi = lam
            break
        lam *= 2.0
    else:
        raise AssertionError("oracle found no bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dense_mu(op, m_values, mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * hi:
            break
    return 0.5 * (lo + hi)


# ------------------------------------------------------------ closed forms

def test_dirichlet_time_only_weight_closed_form():
    # for a purely time-dependent weight the curve is affine with slope equal
    # to the time mean, so the root has an exact expression
    op = make_op(Boundary.DIRICHLET)
    w = closed_form("0.6 + 0.4*sin(2*pi*t/T)", 1.0)
    mu0 = principal_spectrum_point(op, w, 0.0).mu_n
    assert mu0 < 0.0
    res = solve_lambda_p(op, w)
    assert res.status == "unique_root"
    predicted = -mu0 / 0.6
    assert abs(res.lambda_p - predicted) / predicted < 1e-6


def test_autonomous_root_matches_dense_bisection_oracle():
    op = make_op(Boundary.NEUMANN, n=16)
    m_values = np.cos(2 * np.pi * op.grid.nodes[:, 0]) - 0.2
    oracle = dense_bisection_root(op, m_values)
    res = solve_lambda_p(op, closed_form("cos(2*pi*x) - 0.2", 1.0))
    assert res.status == "unique_root"
    assert abs(res.lambda_p - oracle) / oracle < 1e-6


def test_autonomous_root_converges_under_refinement():
    # midpoint quadrature is second order, so the root drift per grid
    # doubling should shrink by about a factor of four
    w = closed_form("cos(2*pi*x) - 0.2", 1.0)
    roots = {n: solve_lambda_p(make_op(Boundary.NEUMANN, n=n), w).lambda_p
             for n in (16, 32, 64)}
    drift_coarse = abs(roots[32] - roots[16])
    drift_fine = abs(roots[64] - roots[32])
    assert drift_coarse < 1e-3
    assert drift_fine < 0.4 * drift_coarse


# --------------------------------------------------- existence iff statuses

IFF_WEIGHTS = {
    "holds": "cos(2*pi*x) - 0.2 + sin(2*pi*t/T)",
    "best_growth_fails": "-0.5 + 0.25*cos(2*pi*x)",
    "integral_fails": "cos(2*pi*x) + 0.2",
    "both_fail": "sin(2*pi*t/T)",
}
IFF_EXPECTED = {
    Boundary.DIRICHLET: {"holds": "unique_root",
                         "best_growth_fails": "no_positive_root",
                         # the hostile-exterior condition ignores the integral
                         "integral_fails": "unique_root",
                         "both_fail": "no_positive_root"},
    Boundary.NEUMANN: {"holds": "unique_root",
                       "best_growth_fails": "no_positive_root",
                       "integral_fails": "no_positive_root",
                       "both_fail": "all_positive_roots"},
    Boundary.PERIODIC: {"holds": "unique_root",
                        "best_growth_fails": "no_positive_root",
                        "integral_fails": "no_positive_root",
                        "both_fail": "all_positive_roots"},
}


@pytest.mark.parametrize("boundary", list(IFF_EXPECTED))
def test_iff_classification_suite(boundary):
    op = make_op(boundary)
    for name, expr in IFF_WEIGHTS.items():
        res = solve_lambda_p(op, closed_form(expr, 1.0))
        assert res.status == IFF_EXPECTED[boundary][name], \
            f"{boundary.name}/{name}: got {res.status}"


def test_pure_time_oscillation_is_degenerate_for_mass_conserving():
    res = solve_lambda_p(make_op(Boundary.NEUMANN), closed_form("sin(2*pi*t/T)", 1.0))
    assert res.status == "all_positive_roots"
    assert "every positive lam" in res.evidence


def test_constant_in_space_nonzero_mean_has_no_root_mass_conserving():
    res = solve_lambda_p(make_op(Boundary.PERIODIC), closed_form("0.3", 1.0))
    assert res.status == "no_positive_root"
    assert "one-signed" in res.evidence


def test_zero_integral_boundary_reports_marginal():
    # the existence condition requires a strictly negative space-time
    # integral; sitting exactly on zero is the undecided boundary
    for boundary in (Boundary.NEUMANN, Boundary.PERIODIC):
        res = solve_lambda_p(make_op(boundary), closed_form("cos(2*pi*x)", 1.0))
        assert res.status == "marginal"
        assert "boundary" in res.evidence
        assert len(res.curve) > 0


def test_failed_condition_still_samples_curve():
    res = solve_lambda_p(make_op(Boundary.DIRICHLET),
                         closed_form("-0.5 + 0.25*cos(2*pi*x)", 1.0))
    assert res.status == "no_positive_root"
    lams = [lam for lam, _ in res.curve]
    assert any(lam >= 1.0 for lam in lams)
    assert all(mu < 0 for _, mu in res.curve)


# ------------------------------------------------------------ invariants

def test_root_residual_and_bracket_signs():
    op = make_op(Boundary.DIRICHLET)
    res = solve_lambda_p(op, closed_form(STANDARD_WEIGHT, 1.0))
    assert res.status == "unique_root"
    assert res.lambda_p > 0.0
    assert abs(res.mu_at_root) < 1e-8
    lo, hi = res.bracket
    assert lo < res.lambda_p < hi
    curve = dict(res.curve)
    assert curve[lo] < -1e-8 or lo == 0.0
    assert curve[hi] > 1e-8


@pytest.mark.parametrize("boundary", list(Boundary))
def test_refinement_takes_few_points_inside_bracket(boundary):
    # Brent's method closes in on the root from both ends of the bracket, so
    # only a few curve points fall strictly inside it
    res = solve_lambda_p(make_op(boundary), closed_form(STANDARD_WEIGHT, 1.0))
    assert res.status == "unique_root"
    lo, hi = res.bracket
    inside = [lam for lam, _ in res.curve if lo < lam < hi]
    assert len(inside) <= 8


IMPORT_PROBE = """
import sys
import perispec
from perispec.geometry import Boundary, build_grid, make_kernel, wrap_kernel
from perispec.operator import assemble
from perispec.weighted_solver import solve_lambda_p, upper_bound_lambda_p
from perispec.weights import closed_form

def loaded():
    return sorted(m for m in ('scipy', 'scipy.optimize', 'scipy.sparse.linalg', 'scipy.linalg')
                  if m in sys.modules)

print(loaded())
wave = closed_form("cos(2*pi*(x - t/T)) - 0.2 + 0.5*sin(2*pi*t/T)", 1.0)
op = assemble(wrap_kernel(make_kernel("parabolic", 0.5, 1), (1.0,)),
              build_grid(Boundary.PERIODIC, (1.0,), 32))
assert solve_lambda_p(op, wave).status == "unique_root"
print(loaded())
w = closed_form("cos(2*pi*x)*(1 + sin(2*pi*t/T)) - 0.2 + 0.5*sin(2*pi*t/T)", 1.0)
op = assemble(make_kernel("parabolic", 1.0, 1), build_grid(Boundary.DIRICHLET, (1.0,), 16))
assert solve_lambda_p(op, w).status == "unique_root"
print('scipy.optimize' in sys.modules)
assert upper_bound_lambda_p(op, w).bound_holds
print('scipy.optimize' in sys.modules)
"""


def test_import_does_not_load_scipy_optimize():
    # the root refinement is the in-package Brent loop, and the frozen route
    # imports eigh and eigsh lazily, to keep start-up fast; the dispersal
    # factor needs no scipy.linalg.  The travelling wave's frozen solve takes
    # the constant start, so its root search loads no scipy module at all;
    # the Dirichlet weight's frozen eigh loads scipy.linalg, never scipy.optimize
    src = str(Path(perispec.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.split("\n")[:4] == ["[]", "[]", "False", "False"]


def brent_trace(solver, f, a, b, xtol, rtol):
    """``(root or exception type, evaluated points)`` of one Brent solve."""
    points = []

    def recorded(x):
        points.append(x)
        return f(x)
    try:
        root = solver(recorded, a, b, xtol=xtol, rtol=rtol)
    except (ValueError, RuntimeError) as exc:
        return type(exc), points
    return root.hex(), [x.hex() for x in points]


BRENT_FAMILIES = {
    "cubic": lambda r, k: lambda x: (x - r) ** 3 + k * (x - r),
    "exponential": lambda r, k: lambda x: math.exp(k * (x - r)) - 1.0,
    "tanh": lambda r, k: lambda x: math.tanh(k * (x - r)),
    # not monotone: the bracket may hold several roots
    "wiggly quadratic": lambda r, k: lambda x: (x - r) * (x + r + k) + 0.3 * math.sin(7.0 * x),
}
EPS = float(np.finfo(float).eps)
BRENT_TOLS = (perispec.weighted_solver.XTOL_REL, 2e-12, 1e-6, 4 * EPS)


@settings(max_examples=400, deadline=None)
@given(family=st.sampled_from(sorted(BRENT_FAMILIES)),
       r=st.floats(-5.0, 5.0), k=st.floats(0.1, 8.0),
       left=st.floats(1e-3, 6.0), right=st.floats(1e-3, 6.0), swap=st.booleans(),
       xtol=st.sampled_from(BRENT_TOLS), rtol=st.sampled_from(BRENT_TOLS))
def test_brent_loop_is_scipys_brentq(family, r, k, left, right, swap, xtol, rtol):
    # scipy's brentq is the reference here only: the package never imports it.
    # The functions stay far above the underflow range, where the sign tests
    # of scipy's releases (a product of two values in older ones, signbit in
    # newer ones) agree with each other
    from scipy.optimize import brentq

    f = BRENT_FAMILIES[family](r, k)
    a, b = r - left, r + right
    if swap:
        a, b = b, a
    assume((f(a) < 0) != (f(b) < 0) and f(a) != 0 and f(b) != 0)
    expected = brent_trace(brentq, f, a, b, xtol, rtol)
    assert brent_trace(perispec.weighted_solver._brentq, f, a, b, xtol, rtol) == expected


def test_brent_loop_bisects_past_an_underflowed_step():
    # at 1e-120 the extrapolation's denominator, a product of three values of
    # that size, underflows to 0: C's infinite step is rejected and bisects.
    # Products of two values stay normal, so older scipy releases agree too
    from scipy.optimize import brentq

    def f(x):
        return 1e-120 * math.expm1(2.0 * (x - 0.3))
    expected = brent_trace(brentq, f, -1.0, 2.0, 1e-10, 1e-10)
    assert brent_trace(perispec.weighted_solver._brentq, f, -1.0, 2.0, 1e-10, 1e-10) == expected


def test_brent_loop_returns_an_endpoint_root():
    brent = perispec.weighted_solver._brentq
    assert brent(lambda x: x - 1.0, 1.0, 3.0, 1e-10, 1e-10) == 1.0
    assert brent(lambda x: x - 3.0, 1.0, 3.0, 1e-10, 1e-10) == 3.0


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x * x + 1.0, -1.0, 2.0),                       # one sign at both ends
    (lambda x: math.nan if x < 0 else x, -1.0, 1.0),          # NaN at an endpoint
    (lambda x: x if abs(x) == 1.0 else math.nan, -1.0, 1.0),  # NaN inside
], ids=["same-sign", "nan-endpoint", "nan-inside"])
def test_brent_loop_refuses_a_bad_bracket(f, a, b):
    with pytest.raises(ValueError):
        perispec.weighted_solver._brentq(f, a, b, 1e-10, 1e-10)


def test_brent_loop_stops_after_100_iterations():
    # a step function keeps |f| equal at every point, so each step bisects,
    # and halving a 2e300 bracket to 4 eps takes over 1000 steps
    def step(x):
        return -1.0 if x < 1.0 / 3.0 else 1.0
    points = []
    with pytest.raises(RuntimeError):
        perispec.weighted_solver._brentq(lambda x: points.append(x) or step(x),
                                         -1e300, 1e300, 4 * EPS, 4 * EPS)
    assert len(points) == 102


@pytest.fixture
def lattice_calls(monkeypatch):
    """A list that grows by one entry per weight time lattice built."""
    calls = []
    original = perispec.weights._time_lattice

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(perispec.weights, "_time_lattice", counting)
    return calls


def test_upper_bound_reuses_the_weight_summary(lattice_calls):
    # one summary serves the condition report, both problems and all 8
    # mu evaluations of the time-dependent root search
    ub = upper_bound_lambda_p(make_op(Boundary.DIRICHLET), closed_form(STANDARD_WEIGHT, 1.0))
    assert ub.time_dependent.status == "unique_root"
    assert len(lattice_calls) == 1


@pytest.mark.parametrize("boundary", list(Boundary))
def test_solve_builds_one_weight_summary(lattice_calls, boundary):
    res = solve_lambda_p(make_op(boundary), closed_form(STANDARD_WEIGHT, 1.0))
    assert res.status == "unique_root"
    assert len(res.curve) > 5
    assert len(lattice_calls) == 1


def test_curve_has_single_sign_change():
    op = make_op(Boundary.NEUMANN)
    res = solve_lambda_p(op, closed_form(STANDARD_WEIGHT, 1.0))
    assert res.status == "unique_root"
    signs = [mu > 0 for lam, mu in res.curve if lam > 1e-3 and abs(mu) > 1e-8]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert flips == 1


def test_scale_covariance():
    # the generator depends on the product lam * m only, so scaling the
    # weight by c divides the root by c
    op = make_op(Boundary.DIRICHLET)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    base = solve_lambda_p(op, w)
    scaled = solve_lambda_p(op, w.scaled(2.0))
    assert abs(base.lambda_p - 2.0 * scaled.lambda_p) / base.lambda_p < 1e-8


def test_result_is_frozen_record():
    res = solve_lambda_p(make_op(Boundary.DIRICHLET), closed_form("0.5", 1.0))
    assert isinstance(res, LambdaPResult)
    with pytest.raises(AttributeError):
        res.status = "unique_root"


# -------------------------------------------------- time-averaged companion

def test_time_average_upper_bound_on_seeded_family():
    rng = np.random.default_rng(1234)
    boundaries = [Boundary.DIRICHLET, Boundary.NEUMANN, Boundary.PERIODIC]
    held = 0
    for i in range(10):
        c = rng.uniform(0.5, 1.0)
        d = rng.uniform(0.1, 0.4) * c
        e = rng.uniform(0.1, 0.9) * c
        expr = f"({c:.6f} + {e:.6f}*sin(2*pi*t/T))*cos(2*pi*x) - {d:.6f}"
        ub = upper_bound_lambda_p(make_op(boundaries[i % 3]),
                                  closed_form(expr, 1.0))
        assert ub.time_dependent.status == "unique_root"
        assert ub.averaged.status == "unique_root"
        assert ub.bound_holds
        assert ub.slack >= -1e-8
        held += 1
    assert held == 10


def test_autonomous_weight_equals_its_average():
    op = make_op(Boundary.NEUMANN)
    ub = upper_bound_lambda_p(op, closed_form("cos(2*pi*x) - 0.2", 1.0))
    assert ub.bound_holds
    rel = abs(ub.time_dependent.lambda_p - ub.averaged.lambda_p)
    assert rel / ub.averaged.lambda_p < 1e-6


def test_time_averaging_bound_is_an_equality_for_separable_weights(monkeypatch):
    # for m1(x) + m2(t) the period map is the frozen generator's flow times a
    # scalar, so lambda_p(m) = lambda_p(m_hat): both searches read the same
    # frozen generator, with no time stepping
    def forbidden(*args, **kwargs):
        raise AssertionError("a separable weight was stepped in time")
    monkeypatch.setattr(perispec.spectrum, "period_action", forbidden)
    op = make_op(Boundary.DIRICHLET, n=64)
    w = closed_form("cos(2*pi*x) - 0.2 + sin(2*pi*t/T + 0.7)", 1.0)
    ub = upper_bound_lambda_p(op, w)
    assert ub.bound_holds and ub.slack == 0.0


def test_no_sign_change_below_the_cap_is_no_root():
    # the quick-start problem's root, 1.11, lies above lam_cap
    op = make_op(Boundary.DIRICHLET, n=64)
    res = solve_lambda_p(op, closed_form(STANDARD_WEIGHT, 1.0), lam_cap=0.5)
    assert res.status == "no_positive_root"
    assert res.evidence == "no sign change found for lam up to 0.5"
    assert res.lambda_p is None and res.bracket is None


@pytest.mark.parametrize("lam_cap, status", [(0.5, "unique_root"), (0.2, "no_positive_root")])
def test_a_cap_below_the_ladders_start_is_searched(lam_cap, status):
    # the quick-start weight times 4 has its root at 0.27757, below the
    # ladder's usual start at lam = 1: the ladder starts at the cap instead
    op = make_op(Boundary.DIRICHLET, n=64)
    w = closed_form(f"4*({STANDARD_WEIGHT})", 1.0)
    res = solve_lambda_p(op, w, lam_cap=lam_cap)
    assert res.status == status
    if status == "unique_root":
        assert res.lambda_p == pytest.approx(0.27757, abs=1e-5)
        assert res.bracket[1] <= lam_cap
    else:
        assert res.lambda_p is None
        assert [lam for lam, _ in res.curve] == [0.0, lam_cap]
        assert res.curve[-1][1] < 0.0


def test_upper_bound_none_when_either_root_missing():
    ub = upper_bound_lambda_p(make_op(Boundary.NEUMANN),
                              closed_form("cos(2*pi*x) + 0.2", 1.0))
    assert ub.bound_holds is None
    assert ub.slack is None


# -------------------------------------------------------- eigenvalue basis

def test_pe_sufficiency_quadratic_max_via_contact_exponent():
    op = make_op(Boundary.DIRICHLET)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    res = solve_lambda_p(op, w)
    suff = pe_sufficiency(op, w, res)
    assert suff.is_principal_eigenvalue == "yes"
    assert suff.basis in ("S1", "S3", "gap")
    assert suff.report.lam == pytest.approx(res.lambda_p)


def test_pe_sufficiency_requires_unique_root():
    op = make_op(Boundary.NEUMANN)
    w = closed_form("sin(2*pi*t/T)", 1.0)
    res = solve_lambda_p(op, w)
    with pytest.raises(ValueError):
        pe_sufficiency(op, w, res)


def count_s_condition_fits(monkeypatch):
    """The ``lam`` of every ``check_S_conditions`` call from here on."""
    lams = []

    def counting(weight, op, lam):
        lams.append(lam)
        return check_S_conditions(weight, op, lam)
    for module in (perispec.spectrum, perispec.weighted_solver):
        monkeypatch.setattr(module, "check_S_conditions", counting)
    return lams


def test_pe_sufficiency_adds_only_the_s_conditions(monkeypatch):
    # a non-separable weight applies its map to vectors; the check at the root
    # reads the spectrum point the search computed there, at its step count,
    # and fits the S-conditions once, at the root
    op = make_op(Boundary.DIRICHLET)
    w = closed_form("cos(2*pi*x)*(1 + sin(2*pi*t/T)) - 0.2", 1.0)
    res = solve_lambda_p(op, w)
    assert res.status == "unique_root"
    assert res.root_report.lam == res.lambda_p
    assert res.root_report.mu_n == res.mu_at_root

    def forbidden(*args, **kwargs):
        raise AssertionError("pe_sufficiency recomputed the spectrum point")
    for module in (perispec.spectrum, perispec.weighted_solver):
        monkeypatch.setattr(module, "principal_spectrum_point", forbidden)
    monkeypatch.setattr(perispec.spectrum, "period_action", forbidden)
    fits = count_s_condition_fits(monkeypatch)
    suff = pe_sufficiency(op, w, res)
    assert fits == [res.lambda_p]
    assert suff.report is res.root_report
    assert suff.report.mu_n == res.mu_at_root
    # the report rides along but takes no part in equality
    monkeypatch.undo()
    assert suff.s_conditions == check_S_conditions(w, op, res.lambda_p)
    assert solve_lambda_p(op, w) == res


def test_only_the_verdict_at_the_root_fits_the_s_conditions(monkeypatch):
    # the root searches and the KPP orbit read no S-condition
    op = make_op(Boundary.DIRICHLET)
    fits = count_s_condition_fits(monkeypatch)
    for expr in ("cos(2*pi*x)*(1 + sin(2*pi*t/T)) - 0.2", STANDARD_WEIGHT):
        w = closed_form(expr, 1.0)
        res = solve_lambda_p(op, w)
        ub = upper_bound_lambda_p(op, w)
        assert res.status == ub.averaged.status == "unique_root"
        orbit = find_periodic_solution(op, w, Nonlinearity(), 1.25 * res.lambda_p,
                                       check_uniqueness=False)
        assert orbit.verdict == "persistence"
        assert fits == []
        pe_sufficiency(op, w, res)
        assert fits == [res.lambda_p]
        fits.clear()


# the weights of the acceptance suite's twelve cases, a non-separable one
# (time stepped) and a cusp, whose envelope has no quadratic cap for the
# contact-exponent fit
WARNING_FREE_WEIGHTS = [
    STANDARD_WEIGHT, "-0.5 + 0.25*cos(2*pi*x)", "cos(2*pi*x) + 0.2", "sin(2*pi*t/T)",
    "cos(2*pi*x)*(1 + sin(2*pi*t/T)) - 0.2", "-((x - 0.5)**2)**0.25",
]


def test_root_search_fitting_s_conditions_emits_no_warning():
    # the root search, and pe_sufficiency fitting the contact exponent at its root
    for boundary in Boundary:
        op = make_op(boundary)
        for expr in WARNING_FREE_WEIGHTS:
            w = closed_form(expr, 1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = solve_lambda_p(op, w)
                if res.status == "unique_root":
                    assert pe_sufficiency(op, w, res).report is res.root_report


def test_pe_sufficiency_fits_the_s_conditions_on_the_averaged_root():
    # the S-conditions read only the time average, so they hold for both
    # problems; the averaged root's report is the frozen generator's point
    op = make_op(Boundary.DIRICHLET)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    ub = upper_bound_lambda_p(op, w)
    assert ub.averaged.status == "unique_root"
    rep = ub.averaged.root_report
    assert isinstance(rep, SpectrumReport)
    assert rep.lam == ub.averaged.lambda_p and rep.iterations == 0
    h = -op.b + rep.lam * time_average(w, op.grid)
    assert (rep.h_hat_min, rep.h_hat_max) == (float(h.min()), float(h.max()))
    suff = pe_sufficiency(op, w, ub.averaged)
    assert suff.s_conditions == check_S_conditions(w, op, ub.averaged.lambda_p)
    assert suff.report is rep
    assert pe_sufficiency(op, w, ub.time_dependent).report.lam == ub.time_dependent.lambda_p
