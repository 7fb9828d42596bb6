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
from perispec.operator import DispersalOperator, Problem, assemble
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


@pytest.mark.parametrize("n", [2, 16])
@pytest.mark.parametrize("record_every", [0, -1])
def test_record_every_below_one_is_refused(n, record_every):
    # 0 failed to unpack the final state (on 2 nodes it unpacked, and the
    # sup norms hit an AxisError); -1 recorded every step
    op = make_op(Boundary.DIRICHLET, n=n)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    u0 = np.full(op.n, 0.1)
    with pytest.raises(ValueError, match="record_every must be at least 1"):
        propagate(op, w, 1.0, u0, 0.0, 1.0, n_steps=8, record_every=record_every)
    with pytest.raises(ValueError, match="record_every must be at least 1"):
        simulate_kpp(op, w, Nonlinearity(), 1.0, u0, 0.0, 1.0, n_steps=8,
                     record_every=record_every)


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


def test_coarse_steps_stay_in_the_invariant_region():
    # at lam = 40 RK4 left [0, 10 * scale] at 2 steps and undershot zero at 5;
    # each split step is a nonnegative product and a positive reaction, so
    # the state stays nonnegative and below the ceiling at any step count
    op = make_op(Boundary.DIRICHLET, n=16)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    u0 = np.full(op.n, 0.5)
    for nl in (Nonlinearity(), Nonlinearity("saturating", crowding=200.0, saturation=2.0)):
        ceiling = 10.0 * nl.carrying_scale(40.0 * sup_abs(w, op.grid))
        for n_steps in (1, 2, 5, 64):
            traj = simulate_kpp(op, w, nl, 40.0, u0, 0.0, 1.0, n_steps=n_steps)
            assert traj.states.min() >= 0.0 and traj.states.max() <= ceiling
    # only a reaction beyond the floating-point range leaves it
    with pytest.raises(UnstableStepError, match="invariant region"):
        simulate_kpp(op, w, Nonlinearity(), 1e5, u0, 0.0, 1.0, n_steps=64)


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
    # the splitting is second order: 9.3e-6 away at the default 64 steps,
    # 5.8e-7 at 256
    orbit = find_periodic_solution(op, closed_form("1", 1.0), Nonlinearity(), 2.0, n_steps=256)
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
    n_steps += n_steps % 2  # the orbit rounds its step count up to even
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
    original = perispec.kpp._flow

    def recording(op_, w_, lam_, t0, t1, n_steps, reaction):
        run = original(op_, w_, lam_, t0, t1, n_steps, reaction)

        def recorded(u, record_every=None, ceiling=None):
            out = run(u, record_every, ceiling)
            if record_every is None:
                periods.append((u.copy(), out.copy(), n_steps))
            return out
        return recorded
    monkeypatch.setattr(perispec.kpp, "_flow", recording)
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


def test_no_route_steps_a_block_by_taylor_2(monkeypatch):
    # the Taylor-2 step takes a block column by column; non-separable 2-D
    # spectrum points from 256 nodes and a 16x16 orbit that ends in a linear
    # contraction test hand it vectors only, so no route pays that loop
    states = []
    original = DispersalOperator.dispersal

    def recording(self, h):
        disperse = original(self, h)
        if self.exact_dispersal:
            return disperse

        def taylor(u, out):
            states.append(u.ndim)
            return disperse(u, out)
        return taylor
    monkeypatch.setattr(DispersalOperator, "dispersal", recording)
    w = closed_form("cos(2*pi*x)*cos(pi*y)*(1 + sin(2*pi*t/T)) - 0.2 + sin(2*pi*t/T)", 1.0)
    ops = {n: Problem(Boundary.NEUMANN, (1.0, 1.0), "parabolic", 0.5, w).at(n)[0]
           for n in (16, 24)}
    for op in ops.values():
        for lam in (0.5, 2.0):
            principal_spectrum_point(op, w, lam)
    orbit = find_periodic_solution(ops[16], w, Nonlinearity(), 0.05, check_uniqueness=False)
    assert orbit.verdict == "extinction" and "contracts" in orbit.certificate
    assert states and set(states) == {1}


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


def test_extinction_below_the_floor_ends_the_iteration():
    # a hostile weight, -5 everywhere, takes the sup norm below the extinction
    # floor within 3 periods, before any contraction test
    op, w = Problem(Boundary.DIRICHLET, (1.0,), "parabolic", 1.0,
                    closed_form("-5", 1.0)).at(16)
    orbit = find_periodic_solution(op, w, Nonlinearity(), 1.0, check_uniqueness=False)
    assert orbit.verdict == "extinction"
    assert orbit.certificate == "sup norm fell below the extinction floor"
    assert orbit.periods_used == 3


def test_extinction_orbit_builds_one_linearized_map(quickstart_threshold, monkeypatch):
    # the certificate's Perron solve and the contraction test apply the same
    # linearized map, formed at 64 nodes, wherever a module binds its builders
    op, w, res = quickstart_threshold
    built = []
    for module in (perispec.spectrum, perispec.kpp):
        for name in ("period_map", "period_action"):
            if hasattr(module, name):
                def counting(*args, _original=getattr(module, name), _name=name, **kwargs):
                    built.append(_name)
                    return _original(*args, **kwargs)
                monkeypatch.setattr(module, name, counting)
    orbit = find_periodic_solution(op, w, Nonlinearity(), 0.5 * res.lambda_p,
                                   check_uniqueness=False)
    assert orbit.verdict == "extinction"
    assert built == ["period_map"]


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
    # the Perron vector of the linearized period map at the orbit's own step
    # count, also for a separable weight: the split map's Perron vector is the
    # frozen generator's only up to the splitting error
    op, w, res = quickstart_threshold
    nl = Nonlinearity()
    lam = factor * res.lambda_p
    n_steps = _plain_iteration(op, w, nl, lam, 0)[1]
    maps, solves = [], []
    original_map = perispec.kpp._stepped_map
    original_solve = perispec.kpp._krylov_perron

    def recording_map(*args):
        maps.append(args)
        return original_map(*args)

    def recording_solve(*args):
        solves.append(original_solve(*args))
        return solves[-1]
    monkeypatch.setattr(perispec.kpp, "_stepped_map", recording_map)
    monkeypatch.setattr(perispec.kpp, "_krylov_perron", recording_solve)
    orbit = find_periodic_solution(op, w, nl, lam, check_uniqueness=False)
    assert orbit.certificate is not None
    [args] = maps
    [(ratio, phi, iterations)] = solves
    assert args[3] == n_steps and iterations > 2 and ratio > 1.0
    image = period_action(op, w, lam, n_steps)(phi)
    rho = float(np.dot(op.quad_weights * phi, image) / np.dot(op.quad_weights * phi, phi))
    assert np.abs(image - rho * phi).max() <= POWER_REL_TOL * rho
    assert rho == pytest.approx(ratio, rel=1e-13)


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
    original = perispec.kpp._flow

    def recording(*args):
        run = original(*args)

        def recorded(u, record_every=None, ceiling=None):
            if record_every is None:
                inputs.append(u.copy())
            return run(u, record_every, ceiling)
        return recorded
    monkeypatch.setattr(perispec.kpp, "_flow", recording)
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
    monkeypatch.setattr(perispec.kpp, "_krylov_perron", failing)
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
        run, run(floor, 0.0, w.period, n_steps), w.period, n_steps, 200, floor, carrying)
    assert verdict == "persistence"
    assert np.all(u >= floor)
    settled = find_periodic_solution(op, w, nl, lam, check_uniqueness=False)
    scale = settled.fixed_point.max()
    assert np.abs(u - settled.fixed_point).max() < 1e-6 * scale


def test_anderson_mixing_solves_a_slow_affine_contraction(monkeypatch):
    # P(u) = A u + c, order preserving (A >= 0) with spectral radius 0.99:
    # the plain iteration needs thousands of periods, depth-5 mixing a few
    # dozen, and every mixed iterate stays inside the projection box.  The
    # stopping rule is tightened to 1e-12, so the fixed point's error, about
    # 100 times the last residual here, stays below 1e-9
    monkeypatch.setattr(perispec.kpp, "TOL_FIX", 1e-12)
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
        run, np.zeros(6), 1.0, 1, 200, np.zeros(6), ceiling)
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


def test_threshold_scan_steps_only_its_orbits(dirichlet_threshold, monkeypatch):
    # n_steps is each orbit's step count; the root search takes the ladder's
    op, w, _ = dirichlet_threshold
    orbit_steps, solve_kwargs = [], []
    real_orbit = perispec.kpp.find_periodic_solution
    real_solve = perispec.kpp.solve_lambda_p

    def orbit(*args, **kwargs):
        orbit_steps.append(kwargs["n_steps"])
        return real_orbit(*args, **kwargs)

    def solve(*args, **kwargs):
        solve_kwargs.append(kwargs)
        return real_solve(*args, **kwargs)
    monkeypatch.setattr(perispec.kpp, "find_periodic_solution", orbit)
    monkeypatch.setattr(perispec.kpp, "solve_lambda_p", solve)
    scan = threshold_scan(op, w, Nonlinearity(), [0.5, 1.8], n_steps=96)
    assert orbit_steps == [96, 96]
    assert solve_kwargs == [{}]
    assert scan.lambda_result == real_solve(op, w)


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
    # one weight evaluation per half-step boundary t0 + j h/2, and lam m
    # replaced by its trapezoid mean over each half step; each step is a
    # reaction half step, the product with the operator's dispersal factor,
    # and the next half step; the saturating half step of
    # length h/2 is the logistic closed form with the crowding coefficient
    # c / (1 + d u) at the state its first half predicts, and every step's
    # end state is recorded; the stepper orders its operations otherwise, so
    # the two agree to rounding
    op = make_op(Boundary.DIRICHLET, n=16)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    nl = Nonlinearity("saturating", crowding=2.0, saturation=0.2)
    lam, t0, t1, n_steps = 2.5, 0.37, 2.2, 91
    u = np.linspace(0.05, 0.6, op.n)
    traj = simulate_kpp(op, w, nl, lam, u, t0, t1, n_steps=n_steps, record_every=1)

    h = (t1 - t0) / n_steps
    E = op.dispersal_factor(h)

    def logistic(u, z, tau, c):  # the exact flow of u' = (z/tau - c u) u over tau
        return u * np.exp(z) / (1.0 + c * u * tau * np.expm1(z) / z)

    def half(z, u):
        mid = logistic(u, 0.5 * z, 0.25 * h, nl.crowding / (1.0 + nl.saturation * u))
        return logistic(u, z, 0.5 * h, nl.crowding / (1.0 + nl.saturation * mid))

    m = [w.evaluate(t0 + j * (0.5 * h), op.grid) for j in range(2 * n_steps + 1)]
    z = [(0.25 * h * lam) * (m[j] + m[j + 1]) for j in range(2 * n_steps)]
    states = [u]
    for step in range(n_steps):
        u = half(z[2 * step + 1], E @ half(z[2 * step], u))
        states.append(u)
    assert np.array_equal(traj.times, t0 + np.arange(n_steps + 1) * h)
    np.testing.assert_allclose(traj.states, np.stack(states), rtol=1e-13, atol=0)


def test_logistic_half_steps_are_the_closed_form():
    # the logistic reaction u' = (a - c u) u solved exactly over each half
    # step, a the trapezoid mean of lam m there; two merged half steps are one
    # Moebius map, so the unrecorded run matches the recorded one, which
    # applies them apart, to rounding
    op = make_op(Boundary.NEUMANN, n=12)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    nl = Nonlinearity("logistic", crowding=1.5)
    lam, n_steps = 3.0, 40
    u0 = np.linspace(0.05, 2.0, op.n)
    h = 1.0 / n_steps
    E = op.dispersal_factor(h)

    def half(z, u):  # the exact flow of u' = (a - c u) u over h/2, a = z / (h/2)
        return u * np.exp(z) / (1.0 + nl.crowding * u * 0.5 * h * np.expm1(z) / z)

    m = [w.evaluate(j * (0.5 * h), op.grid) for j in range(2 * n_steps + 1)]
    z = [(0.25 * h * lam) * (m[j] + m[j + 1]) for j in range(2 * n_steps)]
    u = u0
    for step in range(n_steps):
        u = half(z[2 * step + 1], E @ half(z[2 * step], u))
    recorded = simulate_kpp(op, w, nl, lam, u0, 0.0, 1.0, n_steps=n_steps, record_every=1)
    merged = simulate_kpp(op, w, nl, lam, u0, 0.0, 1.0, n_steps=n_steps,
                          record_every=n_steps).final
    np.testing.assert_allclose(recorded.final, u, rtol=1e-13)
    np.testing.assert_allclose(merged, u, rtol=1e-13)
