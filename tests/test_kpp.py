"""Nonlinear persistence dynamics: Poincare iteration and the threshold law.

The damped algebraic fixed-point solve used as an oracle below shares no code
with the time stepper: it solves 0 = Ku - bu + u(2 - u) directly, so the
Poincare route and the oracle can only agree if both are right.
"""

import re

import numpy as np
import pytest

import perispec.kpp
import perispec.weights
from perispec.evolution import UnstableStepError, default_n_steps, period_action, propagate
from perispec.geometry import Boundary, build_grid, make_kernel, wrap_kernel
from perispec.kpp import (TOL_FIX, Nonlinearity, PeriodicOrbit,
                          find_periodic_solution, simulate_kpp, summarize_scan,
                          threshold_scan)
from perispec.operator import assemble
from perispec.spectrum import POWER_REL_TOL, PowerIterationError, principal_spectrum_point
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


@pytest.mark.parametrize("max_periods", [0, -3])
def test_periodic_solution_refuses_fewer_than_one_period(max_periods):
    op = make_op(Boundary.DIRICHLET, n=16)
    w = closed_form("sin(2*pi*t/T) + cos(2*pi*x) - 0.2", 1.0)
    with pytest.raises(ValueError, match="max_periods must be at least 1"):
        find_periodic_solution(op, w, Nonlinearity(), 0.5, max_periods=max_periods)


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
    # the invariant region and the default step count follow a state far above it
    high = simulate_kpp(op, w, nl, 1.5, 30.0 * u0, 0.0, 1.0)
    assert high.final.max() < u0.max()


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
    mu_hi = principal_spectrum_point(op, w, 1.25 * res.lambda_p).mu_n
    mu_lo = principal_spectrum_point(op, w, 0.8 * res.lambda_p).mu_n
    assert mu_hi > 1e-3
    assert mu_lo < -1e-3


def test_saturating_family_persists(dirichlet_threshold):
    op, w, res = dirichlet_threshold
    sat = Nonlinearity("saturating", crowding=2.0, saturation=0.5)
    orbit = find_periodic_solution(op, w, sat, 1.5 * res.lambda_p)
    assert orbit.verdict == "persistence"
    assert orbit.min_of_orbit > 1e-4
    assert orbit.residual < 1e-8


def _plain_iteration(op, w, nl, lam, n_periods):
    """The first ``n_periods`` plain Poincare iterates through ``simulate_kpp``."""
    growth = lam * sup_abs(w, op.grid)
    scale = nl.carrying_scale(growth)
    n_steps = default_n_steps(w.period, 1.0, growth + nl.penalty(scale))
    iterates = [np.full(op.n, 0.1 * scale)]
    for _ in range(n_periods):
        iterates.append(simulate_kpp(op, w, nl, lam, iterates[-1], 0.0, w.period,
                                     n_steps=n_steps, record_every=n_steps).final)
    return iterates, n_steps


def _assert_snapshot_from_fixed_point(op, w, nl, lam, orbit, n_steps):
    # the orbit's own step count, recording about 16 states and the last
    snap = simulate_kpp(op, w, nl, lam, orbit.fixed_point, 0.0, w.period,
                        n_steps=n_steps, record_every=max(1, n_steps // 16))
    np.testing.assert_array_equal(orbit.orbit_states, snap.states)
    np.testing.assert_array_equal(orbit.orbit_times, snap.times)
    assert orbit.residual == float(np.abs(snap.final - orbit.fixed_point).max())


def test_every_poincare_period_is_one_simulate_kpp_period(dirichlet_threshold, monkeypatch):
    # the orbit sets the flow up once, yet every period it runs (the
    # certificate's and the accelerated iteration's) is one simulate_kpp
    # period bit for bit, the stopping rule holds at the last one only, the
    # fixed point is that period's image, and the snapshot starts from it
    op, w, res = dirichlet_threshold
    nl = Nonlinearity("saturating", crowding=2.0, saturation=0.5)
    lam = 1.5 * res.lambda_p
    periods = []
    original = perispec.kpp._integrate

    def recording(op_, w_, lam_, u, t0, t1, n_steps, record_every=None, **kwargs):
        out = original(op_, w_, lam_, u, t0, t1, n_steps, record_every, **kwargs)
        if record_every is None:
            periods.append((u.copy(), out.copy(), n_steps))
        return out
    monkeypatch.setattr(perispec.kpp, "_integrate", recording)
    orbit = find_periodic_solution(op, w, nl, lam, check_uniqueness=False)
    monkeypatch.undo()
    assert orbit.verdict == "persistence"
    assert "eps = " in orbit.certificate
    assert len(periods) == orbit.periods_used
    n_steps = periods[0][2]
    for k, (u, image, steps) in enumerate(periods, start=1):
        assert steps == n_steps
        ref = simulate_kpp(op, w, nl, lam, u, 0.0, w.period, n_steps=n_steps,
                           record_every=n_steps).final
        np.testing.assert_array_equal(image, ref)
        settled = np.abs(image - u).max() < TOL_FIX * np.abs(image).max()
        assert settled == (k == len(periods))
    np.testing.assert_array_equal(orbit.fixed_point, periods[-1][1])
    _assert_snapshot_from_fixed_point(op, w, nl, lam, orbit, n_steps)


def test_plain_iteration_runs_without_a_certificate(dirichlet_threshold, monkeypatch):
    # with the certificate withheld, the orbit is the plain iteration of
    # simulate_kpp periods, bit for bit, and stops at its first settled period
    op, w, res = dirichlet_threshold
    nl = Nonlinearity("saturating", crowding=2.0, saturation=0.5)
    lam = 1.5 * res.lambda_p
    monkeypatch.setattr(perispec.kpp, "_persistence_certificate", lambda *args: (None, None, 0))
    orbit = find_periodic_solution(op, w, nl, lam, check_uniqueness=False)
    assert orbit.verdict == "persistence"
    assert orbit.certificate is None
    iterates, n_steps = _plain_iteration(op, w, nl, lam, orbit.periods_used)
    for k in range(1, orbit.periods_used + 1):
        u, nxt = iterates[k - 1], iterates[k]
        settled = np.abs(nxt - u).max() < TOL_FIX * np.abs(nxt).max()
        assert settled == (k == orbit.periods_used)
    np.testing.assert_array_equal(orbit.fixed_point, iterates[-1])
    _assert_snapshot_from_fixed_point(op, w, nl, lam, orbit, n_steps)


@pytest.fixture(scope="module")
def quickstart_threshold():
    """The README quick-start problem: Dirichlet, parabolic kernel, n = 64."""
    op = make_op(Boundary.DIRICHLET, n=64)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    res = solve_lambda_p(op, w)
    assert res.status == "unique_root"
    return op, w, res


def test_extinction_comes_from_plain_iterates(quickstart_threshold, monkeypatch):
    # mu < 0 at 0.98 lambda_p: no certificate, so the accelerated iteration
    # never runs and the verdict rests on the plain iterates of simulate_kpp
    op, w, res = quickstart_threshold
    nl = Nonlinearity()
    lam = 0.98 * res.lambda_p

    def forbidden(*args):
        raise AssertionError("accelerated iteration without a certificate")
    monkeypatch.setattr(perispec.kpp, "_anderson_iterate", forbidden)
    orbit = find_periodic_solution(op, w, nl, lam)
    assert orbit.verdict == "extinction"
    assert "contracts" in orbit.certificate or "floor" in orbit.certificate
    iterates, _ = _plain_iteration(op, w, nl, lam, orbit.periods_used)
    assert orbit.residual == float(np.abs(iterates[-1] - iterates[-2]).max())


@pytest.mark.parametrize("factor", [1.005, 1.02])
def test_persistence_is_decided_near_the_threshold(quickstart_threshold, factor):
    # the plain iteration needs more than its 500 periods here; the certificate
    # decides persistence and the accelerated orbit converges in tens of periods
    op, w, res = quickstart_threshold
    nl = Nonlinearity()
    lam = factor * res.lambda_p
    orbit = find_periodic_solution(op, w, nl, lam, check_uniqueness=False)
    assert orbit.verdict == "persistence"
    assert orbit.residual < 1e-9
    assert orbit.min_of_orbit > 0.0
    assert orbit.periods_used < 100
    # the sub-solution the certificate names, checked through the public API
    eps = float(re.search(r"eps = (\S+) of the carrying scale", orbit.certificate).group(1))
    scale = nl.carrying_scale(lam * sup_abs(w, op.grid))
    n_steps = _plain_iteration(op, w, nl, lam, 0)[1]
    rep = principal_spectrum_point(op, w, lam, n_steps=n_steps)
    assert rep.mu_n > 0.0
    sub = eps * scale * rep.eigenfunction
    image = simulate_kpp(op, w, nl, lam, sub, 0.0, w.period, n_steps=n_steps,
                         record_every=n_steps).final
    assert (image - sub).min() > 1e-10 * scale


@pytest.mark.parametrize("factor", [1.005, 1.25])
def test_certificate_phi_is_the_period_maps_perron_vector(quickstart_threshold, monkeypatch,
                                                          factor):
    # the weight is separable, so its spectrum point comes from the frozen
    # generator with no time stepping; every RK4 stage is a polynomial in that
    # generator, so its Perron vector is the period map's at any step count
    op, w, res = quickstart_threshold
    nl = Nonlinearity()
    lam = factor * res.lambda_p
    n_steps = _plain_iteration(op, w, nl, lam, 0)[1]
    calls = []
    original = perispec.kpp.principal_spectrum_point

    def recording(*args, **kwargs):
        calls.append((args, original(*args, **kwargs)))
        return calls[-1][1]
    monkeypatch.setattr(perispec.kpp, "principal_spectrum_point", recording)
    orbit = find_periodic_solution(op, w, nl, lam, check_uniqueness=False)
    assert orbit.certificate is not None
    [(args, rep)] = calls
    assert args[3] == n_steps and rep.iterations == 0
    phi = rep.eigenfunction
    image = period_action(op, w, lam, n_steps)(phi)
    rho = float(np.dot(op.quad_weights * phi, image) / np.dot(op.quad_weights * phi, phi))
    assert np.abs(image - rho * phi).max() <= POWER_REL_TOL * rho


def test_accelerated_fixed_point_equals_the_plain_one(quickstart_threshold, monkeypatch):
    op, w, res = quickstart_threshold
    lam = 1.25 * res.lambda_p
    fast = find_periodic_solution(op, w, Nonlinearity(), lam, check_uniqueness=False)
    monkeypatch.setattr(perispec.kpp, "_persistence_certificate", lambda *args: (None, None, 0))
    plain = find_periodic_solution(op, w, Nonlinearity(), lam, check_uniqueness=False)
    assert fast.certificate is not None and plain.certificate is None
    assert fast.periods_used < plain.periods_used
    scale = np.abs(plain.fixed_point).max()
    assert np.abs(fast.fixed_point - plain.fixed_point).max() < 1e-8 * scale


def test_accelerated_iterates_stay_in_the_order_interval(monkeypatch):
    # a constant weight under a mass-conserving boundary has its fixed point
    # on the carrying scale itself; mixing overshoots it, the projection does not
    op = make_op(Boundary.NEUMANN)
    nl = Nonlinearity()
    lam = 1.5
    inputs = []
    original = perispec.kpp._integrate

    def recording(op_, w_, lam_, u, t0, t1, n_steps, record_every=None, **kwargs):
        if record_every is None:
            inputs.append(u.copy())
        return original(op_, w_, lam_, u, t0, t1, n_steps, record_every, **kwargs)
    monkeypatch.setattr(perispec.kpp, "_integrate", recording)
    orbit = find_periodic_solution(op, closed_form("1", 1.0), nl, lam)
    assert orbit.verdict == "persistence"
    assert orbit.certificate is not None
    carrying = nl.carrying_scale(lam)
    assert all(u.min() >= 0.0 and u.max() <= carrying for u in inputs)
    np.testing.assert_allclose(orbit.fixed_point, carrying, rtol=1e-9)


def test_failed_spectrum_point_leaves_the_plain_iteration(quickstart_threshold, monkeypatch):
    # no Perron vector, no certificate: the plain iteration decides as before
    op, w, res = quickstart_threshold

    def failing(*args, **kwargs):
        raise PowerIterationError("Arnoldi did not converge")
    monkeypatch.setattr(perispec.kpp, "principal_spectrum_point", failing)
    orbit = find_periodic_solution(op, w, Nonlinearity(), 2.0 * res.lambda_p,
                                   check_uniqueness=False)
    assert orbit.verdict == "persistence"
    assert orbit.certificate is None


def test_accelerated_iteration_from_a_low_start_stays_above_the_sub_solution(
        quickstart_threshold):
    # from P(eps*phi), eps = 1e-3 of the carrying scale, at 1.02 lambda_p the
    # mixing heads for the zero state, the other root of P(u) - u; projected
    # onto [0, carrying] it stopped there with sup 0 after 116 periods
    op, w, res = quickstart_threshold
    lam = 1.02 * res.lambda_p
    nl = Nonlinearity()
    carrying, steps, run = perispec.kpp._kpp_flow(op, w, nl, lam)
    n_steps = steps(w.period, carrying)
    phi = principal_spectrum_point(op, w, lam, n_steps=n_steps).eigenfunction
    floor = 1e-3 * carrying * phi
    verdict, u, _, used = perispec.kpp._anderson_iterate(
        run, run(floor, 0.0, w.period, n_steps), w.period, n_steps, TOL_FIX, 200,
        floor, carrying)
    assert verdict == "persistence"
    assert np.all(u >= floor)
    settled = find_periodic_solution(op, w, nl, lam, check_uniqueness=False)
    scale = settled.fixed_point.max()
    assert np.abs(u - settled.fixed_point).max() < 1e-6 * scale


def test_anderson_mixing_solves_a_slow_affine_contraction():
    # P(u) = A u + c, order preserving (A >= 0) with spectral radius 0.99:
    # the plain iteration needs thousands of periods, depth-5 mixing a few
    # dozen, and every mixed iterate stays inside the projection box
    rng = np.random.default_rng(3)
    a = rng.uniform(0.0, 1.0, (6, 6))
    a *= 0.99 / np.abs(np.linalg.eigvals(a)).max()
    c = rng.uniform(0.01, 0.02, 6)
    exact = np.linalg.solve(np.eye(6) - a, c)
    ceiling = 2.0 * exact.max()
    seen = []

    def run(u, t0, t1, n_steps):
        seen.append(u.copy())
        return a @ u + c
    verdict, u, diff, used = perispec.kpp._anderson_iterate(
        run, np.zeros(6), 1.0, 1, 1e-12, 200, np.zeros(6), ceiling)
    assert verdict == "persistence"
    assert used < 40
    assert np.abs(u - exact).max() < 1e-9 * exact.max()
    assert all(v.min() >= 0.0 and v.max() <= ceiling for v in seen)


def test_orbit_builds_one_time_lattice(dirichlet_threshold, monkeypatch):
    # sup|m| once per orbit, not once per Poincare period; the fixture's
    # weight already holds its summary, so each orbit gets a fresh weight
    op, _, res = dirichlet_threshold
    calls = []
    original = perispec.weights._time_lattice

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(perispec.weights, "_time_lattice", counting)
    for factor, verdict in ((1.25, "persistence"), (0.8, "extinction")):
        calls.clear()
        orbit = find_periodic_solution(op, closed_form(STANDARD_WEIGHT, 1.0), Nonlinearity(),
                                       factor * res.lambda_p)
        assert orbit.verdict == verdict
        assert orbit.periods_used > 1
        assert len(calls) == 1


@pytest.mark.parametrize("factor, short, long", [
    (0.98, 5, 20),  # plain iterates with linear contraction tests every 5 periods
    (1.02, 8, 54),  # the certificate, then Anderson mixing and the snapshot
])
def test_orbit_builds_its_stage_tables_once(quickstart_threshold, monkeypatch,
                                            factor, short, long):
    # every Poincare period shares the orbit's stage tables, so the weight is
    # tabulated as often for 54 periods as for 8
    op, w, res = quickstart_threshold
    calls = []
    original = perispec.weights.Weight.table

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)
    monkeypatch.setattr(perispec.weights.Weight, "table", counting)
    counts = []
    for max_periods, used in ((short, short), (500, long)):
        calls.clear()
        orbit = find_periodic_solution(op, w, Nonlinearity(), factor * res.lambda_p,
                                       max_periods=max_periods, check_uniqueness=False)
        assert orbit.periods_used >= used
        counts.append(len(calls))
    assert counts[0] == counts[1]


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
    # that end value also starts step k + 1; the step sums into u + h/6 k1,
    # then adds h/3 k2, h/3 k3 and h/6 k4 (the linear flow's stage scheme)
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
        u = u + (h / 6.0) * k1
        u = u + (h / 3.0) * k2
        u = u + (h / 3.0) * k3
        u = u + (h / 6.0) * k4
        u[(u < 0.0) & (u > -1e-12 * scale)] = 0.0
        m_curr = m_next
        states.append(u)
    assert np.array_equal(traj.times, t0 + np.arange(n_steps + 1) * h)
    assert np.array_equal(traj.states, np.stack(states))
