"""Nonlinear persistence dynamics: Poincare iteration and the threshold law.

The damped algebraic fixed-point solve used as an oracle below shares no code
with the time stepper: it solves 0 = Ku - bu + u(2 - u) directly, so the
Poincare route and the oracle can only agree if both are right.
"""

import re

import numpy as np
import pytest

from perispec.evolution import UnstableStepError, propagate
from perispec.geometry import Boundary, build_grid, make_kernel, wrap_kernel
from perispec.kpp import (Nonlinearity, PeriodicOrbit, find_periodic_solution,
                          simulate_kpp, summarize_scan, threshold_scan)
from perispec.operator import assemble
from perispec.spectrum import principal_spectrum_point
from perispec.weighted_solver import solve_lambda_p
from perispec.weights import closed_form, sup_abs

STANDARD_WEIGHT = "sin(2*pi*t/T) + cos(2*pi*x) - 0.2"


def make_op(boundary, n=32, r=1.0):
    grid = build_grid(boundary, (1.0,), n)
    kern = make_kernel("parabolic", r, 1)
    if boundary is Boundary.PERIODIC:
        kern = wrap_kernel(kern, (1.0,))
    return assemble(kern, grid)


@pytest.fixture(scope="module")
def dirichlet_threshold():
    op = make_op(Boundary.DIRICHLET)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    res = solve_lambda_p(op, w)
    assert res.status == "unique_root"
    return op, w, res


# ------------------------------------------------------- nonlinearity rules

def test_nonlinearity_validation():
    with pytest.raises(ValueError):
        Nonlinearity("cubic")
    with pytest.raises(ValueError):
        Nonlinearity(crowding=0.0)
    with pytest.raises(ValueError):
        Nonlinearity(saturation=-1.0)
    with pytest.raises(ValueError):
        Nonlinearity("logistic", crowding=1.0, saturation=0.5)


def test_penalty_formulas():
    u = np.array([0.0, 0.5, 2.0])
    lin = Nonlinearity("logistic", crowding=3.0)
    assert np.allclose(lin.penalty(u), 3.0 * u)
    sat = Nonlinearity("saturating", crowding=3.0, saturation=2.0)
    assert np.allclose(sat.penalty(u), 3.0 * u / (1.0 + 2.0 * u))


def test_carrying_scale():
    lin = Nonlinearity(crowding=2.0)
    assert lin.carrying_scale(1.0) == pytest.approx(0.5)
    assert lin.carrying_scale(-0.3) == pytest.approx(0.5)  # fallback 1/c
    sat = Nonlinearity("saturating", crowding=2.0, saturation=0.5)
    assert sat.carrying_scale(1.0) == pytest.approx(1.0 / 1.5)


def test_saturating_cap_must_exceed_growth():
    tight = Nonlinearity("saturating", crowding=1.0, saturation=2.0)  # cap 0.5
    with pytest.raises(ValueError, match="caps at"):
        tight.check_bounded(2.0)
    op = make_op(Boundary.DIRICHLET, n=16)
    with pytest.raises(ValueError, match="caps at"):
        simulate_kpp(op, closed_form(STANDARD_WEIGHT, 1.0), tight, 1.0,
                     np.full(op.n, 0.1), 0.0, 1.0)


# ------------------------------------------------------- simulator contracts

def test_simulate_input_validation():
    op = make_op(Boundary.DIRICHLET, n=16)
    w = closed_form("0.5", 1.0)
    nl = Nonlinearity()
    good = np.full(op.n, 0.1)
    with pytest.raises(ValueError):
        simulate_kpp(op, w, nl, 1.0, np.zeros(op.n), 0.0, 1.0)
    with pytest.raises(ValueError):
        simulate_kpp(op, w, nl, 1.0, -good, 0.0, 1.0)
    with pytest.raises(ValueError):
        simulate_kpp(op, w, nl, 1.0, good[:-1], 0.0, 1.0)
    with pytest.raises(ValueError):
        simulate_kpp(op, w, nl, 1.0, np.full(op.n, np.nan), 0.0, 1.0)
    with pytest.raises(ValueError):
        simulate_kpp(op, w, nl, 1.0, good, 1.0, 1.0)


def test_trajectory_bookkeeping():
    op = make_op(Boundary.DIRICHLET, n=16)
    traj = simulate_kpp(op, closed_form("0.5", 1.0), Nonlinearity(), 1.0,
                        np.full(op.n, 0.1), 0.0, 1.0,
                        n_steps=64, record_every=16)
    assert traj.times.shape == (5,)
    assert np.allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert traj.states.shape == (5, op.n)
    assert np.all(traj.sup_norms >= 0.0)


def test_mass_conserved_at_tiny_amplitude_neumann():
    # at lam = 0 with near-zero density the crowding term is negligible and
    # the mass-conserving generator should hold the total population fixed
    op = make_op(Boundary.NEUMANN, n=24)
    rng = np.random.default_rng(7)
    u0 = 1e-10 * rng.uniform(0.5, 1.5, op.n)
    traj = simulate_kpp(op, closed_form("cos(2*pi*x)", 1.0), Nonlinearity(),
                        0.0, u0, 0.0, 1.0, n_steps=256)
    qw = op.grid.quad_weights
    mass0 = float(np.dot(qw, u0))
    mass1 = float(np.dot(qw, traj.final))
    assert abs(mass1 - mass0) / mass0 < 1e-9


def test_unstable_coarse_steps_raise():
    op = make_op(Boundary.DIRICHLET, n=16)
    with pytest.raises(UnstableStepError):
        simulate_kpp(op, closed_form(STANDARD_WEIGHT, 1.0), Nonlinearity(),
                     40.0, np.full(op.n, 0.5), 0.0, 1.0, n_steps=2)


def test_negative_state_leaves_the_invariant_region():
    # at n_steps = 5 the state undershoots zero while its sup stays far below
    # the 10 * scale ceiling, so only the negativity clause of the guard fires
    op = make_op(Boundary.DIRICHLET, n=16)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    nl = Nonlinearity()
    ceiling = 10.0 * nl.carrying_scale(40.0 * sup_abs(w, op.grid))
    with pytest.raises(UnstableStepError, match="invariant region") as exc:
        simulate_kpp(op, w, nl, 40.0, np.full(op.n, 0.5), 0.0, 1.0, n_steps=5)
    sup = float(re.search(r"\(sup ([^,]+),", str(exc.value)).group(1))
    assert sup < 0.1 * ceiling


def test_order_preservation():
    op = make_op(Boundary.DIRICHLET, n=16)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    x = op.grid.nodes[:, 0]
    u1 = 0.3 * (1.0 + np.sin(2.0 * np.pi * x))
    u2 = u1 + 0.2
    f1 = simulate_kpp(op, w, Nonlinearity(), 1.5, u1, 0.0, 1.0, n_steps=256).final
    f2 = simulate_kpp(op, w, Nonlinearity(), 1.5, u2, 0.0, 1.0, n_steps=256).final
    assert np.all(f1 <= f2 + 1e-10)


def test_linearization_consistency():
    # at amplitude 1e-6 the crowding term is second order, so one period of
    # the nonlinear flow must match the linear period map on the same weight
    op = make_op(Boundary.DIRICHLET, n=16)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    u0 = np.full(op.n, 1e-6)
    nonlinear = simulate_kpp(op, w, Nonlinearity(), 1.3, u0, 0.0, 1.0,
                             n_steps=256).final
    linear = propagate(op, w, 1.3, u0, 0.0, 1.0,
                       n_steps=256, record_every=256).final
    assert np.abs(nonlinear - linear).max() < 1e-9


def test_flow_decreases_from_above_carrying_scale():
    op = make_op(Boundary.DIRICHLET, n=16)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    nl = Nonlinearity()
    scale = nl.carrying_scale(1.5 * 2.2)
    u0 = np.full(op.n, 2.0 * scale)
    traj = simulate_kpp(op, w, nl, 1.5, u0, 0.0, 1.0)
    assert traj.final.max() < u0.max()


# --------------------------------------------------- autonomous equilibrium

def test_periodic_state_matches_algebraic_fixed_point():
    op = make_op(Boundary.DIRICHLET, n=16)
    # independent oracle: damped iteration on 0 = Ku - bu + u(2 - u)
    u = np.full(op.n, 1.0)
    for _ in range(20000):
        F = op.K @ u - op.b * u + u * (2.0 - u)
        u = np.maximum(u + 0.2 * F, 0.0)
        if np.abs(F).max() < 1e-13:
            break
    assert np.abs(F).max() < 1e-13
    assert u.min() > 1.0
    orbit = find_periodic_solution(op, closed_form("1", 1.0), Nonlinearity(), 2.0)
    assert orbit.verdict == "persistence"
    assert np.abs(orbit.fixed_point - u).max() < 1e-6


# --------------------------------------------------------- threshold verdicts

def test_persistence_above_threshold(dirichlet_threshold):
    op, w, res = dirichlet_threshold
    orbit = find_periodic_solution(op, w, Nonlinearity(), 1.25 * res.lambda_p)
    assert orbit.verdict == "persistence"
    assert orbit.persists
    assert orbit.residual < 1e-9
    assert orbit.min_of_orbit > 1e-4
    assert orbit.sup_of_orbit < 1.0
    assert orbit.uniqueness_gap is not None and orbit.uniqueness_gap < 1e-6
    assert orbit.periods_used <= 500
    assert orbit.orbit_states.shape[1] == op.n
    assert np.all(orbit.fixed_point > 0.0)


def test_extinction_below_threshold(dirichlet_threshold):
    op, w, res = dirichlet_threshold
    orbit = find_periodic_solution(op, w, Nonlinearity(), 0.8 * res.lambda_p)
    assert orbit.verdict == "extinction"
    assert not orbit.persists
    assert orbit.fixed_point is None
    assert orbit.periods_used <= 500
    assert orbit.certificate is not None
    assert "contracts" in orbit.certificate or "floor" in orbit.certificate


def test_verdicts_track_spectrum_sign(dirichlet_threshold):
    op, w, res = dirichlet_threshold
    mu_hi = principal_spectrum_point(op, w, 1.25 * res.lambda_p,
                                     with_s_conditions=False).mu_n
    mu_lo = principal_spectrum_point(op, w, 0.8 * res.lambda_p,
                                     with_s_conditions=False).mu_n
    assert mu_hi > 1e-3
    assert mu_lo < -1e-3


def test_saturating_family_persists(dirichlet_threshold):
    op, w, res = dirichlet_threshold
    sat = Nonlinearity("saturating", crowding=2.0, saturation=0.5)
    orbit = find_periodic_solution(op, w, sat, 1.5 * res.lambda_p)
    assert orbit.verdict == "persistence"
    assert orbit.min_of_orbit > 1e-4
    assert orbit.residual < 1e-8


# ----------------------------------------------------------------- scanning

def test_threshold_scan_brackets_root(dirichlet_threshold):
    op, w, res = dirichlet_threshold
    lam_p = res.lambda_p
    scan = threshold_scan(op, w, Nonlinearity(),
                          [0.5 * lam_p, 0.8 * lam_p, 1.25 * lam_p, 1.6 * lam_p],
                          solver_result=res)
    verdicts = [orbit.verdict for orbit in scan.orbits]
    assert verdicts == ["extinction", "extinction", "persistence", "persistence"]
    assert scan.monotone
    lo, hi = scan.switch_bracket
    assert lo <= lam_p <= hi
    assert scan.consistent_with_root


def test_threshold_scan_requires_lams(dirichlet_threshold):
    op, w, res = dirichlet_threshold
    with pytest.raises(ValueError):
        threshold_scan(op, w, Nonlinearity(), [], solver_result=res)


def _orbit(lam, verdict):
    return PeriodicOrbit(verdict, lam, None, 0.0, 0.0, 0.0, 1, None, None, None)


def test_summarize_scan_flags_non_monotone(dirichlet_threshold):
    _, _, res = dirichlet_threshold
    scan = summarize_scan([_orbit(1.0, "persistence"), _orbit(2.0, "extinction")], res)
    assert not scan.monotone
    assert scan.switch_bracket is None


def test_summarize_scan_without_unique_root():
    op = make_op(Boundary.NEUMANN, n=16)
    res = solve_lambda_p(op, closed_form("0.3", 1.0))
    assert res.status == "no_positive_root"
    scan = summarize_scan([_orbit(0.5, "extinction"), _orbit(2.0, "persistence")], res)
    assert scan.switch_bracket == (0.5, 2.0)
    assert scan.consistent_with_root is None


def test_simulate_equals_stagewise_reference():
    # one weight evaluation per stage time, in the order the stages need them:
    # m(t0) starts the first step, then step k takes m(t_k + h/2) for its
    # middle stages and m(t_k + h), t_k = t0 + k h, for its end stage, and
    # that end value also starts step k + 1 (the linear flow's stage scheme)
    op = make_op(Boundary.DIRICHLET, n=16)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    nl = Nonlinearity("saturating", crowding=2.0, saturation=0.2)
    lam, t0, t1, n_steps = 2.5, 0.37, 2.2, 91
    u = np.linspace(0.05, 0.6, op.n)
    traj = simulate_kpp(op, w, nl, lam, u, t0, t1, n_steps=n_steps, record_every=1)

    h = (t1 - t0) / n_steps
    scale = max(nl.carrying_scale(lam * sup_abs(w, op.grid)), float(u.max()))

    def rhs(m, u):
        return op.K @ u + (lam * m - op.b - nl.penalty(u)) * u

    states = [u]
    m_curr = w.evaluate(t0, op.grid)
    for step in range(n_steps):
        t = t0 + step * h
        m_half = w.evaluate(t + 0.5 * h, op.grid)
        m_next = w.evaluate(t + h, op.grid)
        k1 = rhs(m_curr, u)
        k2 = rhs(m_half, u + 0.5 * h * k1)
        k3 = rhs(m_half, u + 0.5 * h * k2)
        k4 = rhs(m_next, u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        u[(u < 0.0) & (u > -1e-12 * scale)] = 0.0
        m_curr = m_next
        states.append(u)
    assert np.array_equal(traj.times, t0 + np.arange(n_steps + 1) * h)
    assert np.array_equal(traj.states, np.stack(states))
