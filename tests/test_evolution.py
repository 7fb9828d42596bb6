"""Strang propagation, the period map, and order preservation of the flow."""

import dataclasses
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

from perispec import evolution
from perispec.evolution import (
    MIN_STEPS_PER_PERIOD,
    UnstableStepError,
    comparison_check,
    default_n_steps,
    period_map,
    propagate,
)
from perispec.geometry import Boundary, build_grid, make_kernel, wrap_kernel
from perispec.operator import Problem, assemble
from perispec.weights import Weight, closed_form, from_samples


def make_op(boundary=Boundary.DIRICHLET, n=16, r=1.0):
    if boundary is Boundary.PERIODIC:
        grid = build_grid(boundary, (1.0,), n)
        return assemble(wrap_kernel(make_kernel("parabolic", r), [1.0]), grid)
    grid = build_grid(boundary, (1.0,), n)
    return assemble(make_kernel("parabolic", r), grid)


# ------------------------------------------------------- oracle agreement

def two_level(coarse, fine):
    """The Richardson value of a second-order symmetric scheme at h and h/2."""
    return (4.0 * fine - coarse) / 3.0


def test_autonomous_map_matches_matrix_exponential():
    # time-independent coefficients: the period map is exp(T * (K - b + lam m));
    # the splitting is second order, so the two-level value of 128 and 256
    # steps meets the oracle (7.4e-13 away; the 256-step map alone is 7.6e-8 away)
    op = make_op(n=14)
    w = closed_form("cos(2*pi*x) - 0.2", 1.0)
    lam = 1.3
    m = w.evaluate(0.0, op.grid)
    gen = op.K - np.diag(op.b) + lam * np.diag(m)
    oracle = scipy.linalg.expm(gen)
    pm = two_level(period_map(op, w, lam, n_steps=128).matrix,
                   period_map(op, w, lam, n_steps=256).matrix)
    np.testing.assert_allclose(pm, oracle, rtol=0, atol=1e-8)


def test_autonomous_vector_propagation_matches_expm():
    op = make_op(Boundary.NEUMANN, n=12)
    w = closed_form("x - 0.5", 2.0)
    lam = 0.8
    gen = op.K - np.diag(op.b) + lam * np.diag(w.evaluate(0.0, op.grid))
    rng = np.random.default_rng(4)
    u0 = rng.uniform(0.5, 1.5, size=op.n)
    # the two-level value of 256 and 512 steps: 2.4e-13 away (512 alone: 1.4e-7)
    fields = [propagate(op, w, lam, u0, 0.0, 2.0, n_steps=k).final for k in (256, 512)]
    np.testing.assert_allclose(two_level(*fields), scipy.linalg.expm(2.0 * gen) @ u0, atol=1e-8)


def test_dispersal_factor_is_the_exact_exponential():
    # 1-D, and 2-D below 256 nodes: E = exp(h (K - b)) from a series with no
    # negative term, against scipy's expm (from another algorithm)
    for op in (make_op(Boundary.DIRICHLET, n=32), make_op(Boundary.NEUMANN, n=24, r=0.3),
               make_op(Boundary.PERIODIC, n=40, r=0.5),
               Problem(Boundary.NEUMANN, (1.0, 1.0), "parabolic", 0.5,
                       closed_form("0", 1.0)).at(8)[0]):
        for h in (1.0 / 64, 0.7, 5.0):
            E = op.dispersal_factor(h)
            oracle = scipy.linalg.expm(h * (op.K - np.diag(op.b)))
            assert float(E.min()) >= 0.0 and not E.flags.writeable
            assert np.abs(E - oracle).max() <= 1e-14 * max(1.0, np.abs(oracle).max())


@pytest.mark.parametrize("h", [1.0 / 64, 1.5])
def test_two_dimensional_taylor_step_from_256_nodes(h):
    # from 256 nodes the 2-D factor is exp(-h s) (I + h B + h^2 B^2 / 2),
    # B = K - b + s, s = max(0, max b - 1/h): no entry is negative, and a
    # vector step gives its columns
    op = Problem(Boundary.NEUMANN, (1.0, 1.0), "parabolic", 0.5, closed_form("0", 1.0)).at(16)[0]
    assert op.dispersal_factor(h) is None
    s = max(0.0, float(op.b.max()) - 1.0 / h)
    B = op.K - np.diag(op.b) + s * np.eye(op.n)
    P = math.exp(-h * s) * (np.eye(op.n) + h * B + 0.5 * h * h * (B @ B))
    assert float(P.min()) >= 0.0
    disperse = op.dispersal(h)
    for j in (0, 100, 255):
        col = disperse(np.eye(op.n)[j], np.empty(op.n))
        np.testing.assert_allclose(col, P[:, j], rtol=0, atol=1e-14)
    if s == 0.0:
        # h max b <= 1: the unshifted step keeps constants, as K - b does on Neumann
        np.testing.assert_allclose(disperse(np.ones(op.n), np.empty(op.n)), 1.0, atol=1e-14)


@pytest.mark.parametrize("boundary", [Boundary.NEUMANN, Boundary.PERIODIC])
def test_mass_conserving_map_fixes_constants(boundary):
    # lam = 0: constants are equilibria, so Phi(T) 1 = 1
    op = make_op(boundary, n=24)
    w = closed_form("sin(2*pi*t/T)", 1.0)
    pm = period_map(op, w, 0.0)
    np.testing.assert_allclose(pm.matrix @ np.ones(op.n), 1.0, atol=1e-9)


def test_dirichlet_map_contracts_at_zero():
    # hostile exterior: the flow loses mass, sup-operator norm below one
    op = make_op(Boundary.DIRICHLET, n=24)
    w = closed_form("sin(2*pi*t/T)", 1.0)
    pm = period_map(op, w, 0.0)
    assert float(np.abs(pm.matrix).sum(axis=1).max()) < 1.0


# --------------------------------------------------------- structure laws

def test_shift_law():
    # adding a constant c to the weight multiplies the map by exp(lam c T)
    op = make_op(n=16)
    w = closed_form("sin(2*pi*t/T) + cos(2*pi*x)", 1.5)
    lam, c = 0.9, 0.37
    base = period_map(op, w, lam, n_steps=192).matrix
    shifted = period_map(op, w.shifted(c), lam, n_steps=192).matrix
    np.testing.assert_allclose(shifted, math.exp(lam * c * 1.5) * base, atol=1e-9)


def test_space_independent_factorization():
    # m = a(t): the weight commutes with the dispersal part, so the map
    # factors into exp(lam * int a) times the lam = 0 map
    op = make_op(Boundary.NEUMANN, n=16)
    w = closed_form("0.5 + 0.3*sin(2*pi*t/T)", 1.0)
    lam = 1.2
    full = period_map(op, w, lam, n_steps=256).matrix
    base = period_map(op, w, 0.0, n_steps=256).matrix
    np.testing.assert_allclose(full, math.exp(lam * 0.5) * base, atol=1e-8)


def test_two_period_cocycle():
    # propagating over [0, 2T] equals applying the period map twice
    op = make_op(n=12)
    w = closed_form("sin(2*pi*t/T)*(1 + x)", 1.0)
    lam = 0.7
    pm = period_map(op, w, lam, n_steps=96)
    rng = np.random.default_rng(5)
    u0 = rng.uniform(size=op.n)
    traj = propagate(op, w, lam, u0, 0.0, 2.0, n_steps=192)
    np.testing.assert_allclose(traj.final, pm.matrix @ (pm.matrix @ u0), atol=1e-9)


def test_restart_matches_single_run():
    op = make_op(n=12)
    w = closed_form("cos(2*pi*t/T)*x", 1.0)
    rng = np.random.default_rng(6)
    u0 = rng.uniform(size=op.n)
    once = propagate(op, w, 1.0, u0, 0.0, 1.0, n_steps=128).final
    mid = propagate(op, w, 1.0, u0, 0.0, 0.5, n_steps=64).final
    glued = propagate(op, w, 1.0, mid, 0.5, 1.0, n_steps=64).final
    np.testing.assert_allclose(glued, once, atol=1e-12)


def test_strang_is_second_order():
    # the splitting is symmetric, so its error expands in even powers of h:
    # second order alone, fourth order for the two-level value
    op = make_op(n=10)
    w = closed_form("sin(2*pi*t/T)*(1 + x)", 1.0)
    maps = {k: period_map(op, w, 1.0, n_steps=k).matrix for k in (32, 64, 128, 256, 2048, 4096)}
    ref = two_level(maps[2048], maps[4096])
    errs = [float(np.abs(maps[k] - ref).max()) for k in (64, 128, 256)]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)
    rich = [float(np.abs(two_level(maps[k // 2], maps[k]) - ref).max()) for k in (64, 128)]
    assert rich[0] / rich[1] == pytest.approx(16.0, rel=0.25)


# ------------------------------------------------------------- positivity

def test_period_map_entries_nonnegative():
    for boundary in Boundary:
        op = make_op(boundary, n=16)
        w = closed_form("sin(2*pi*t/T) - cos(2*pi*x)", 1.0)
        pm = period_map(op, w, 2.0)
        assert float(pm.matrix.min()) >= 0.0


def textbook_rk4_map(op, w, lam, n_steps):
    """Classical RK4 on the identity, one weight evaluation per stage: the
    stepper this package used before the splitting, for contrast."""
    h = w.period / n_steps
    A = op.K - np.diag(op.b)

    def rhs(t, U):
        return A @ U + (lam * w.evaluate(t, op.grid))[:, None] * U

    U = np.eye(op.n)
    for k in range(n_steps):
        t = k * h
        k1 = rhs(t, U)
        k2 = rhs(t + 0.5 * h, U + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, U + 0.5 * h * k2)
        k4 = rhs(t + h, U + h * k3)
        U = U + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return U


LORENTZIAN_WELLS = [
    pytest.param(boundary, radius, depth, width, centre,
                 id=f"{boundary.value}-{depth}-{width}-{centre}")
    for boundary, radius in ((Boundary.NEUMANN, 0.1), (Boundary.DIRICHLET, 0.2))
    for depth, width, centre in ((20, 0.02, 0.3), (40, 0.05, 0.7), (30, 0.03, 0.5))
]


@pytest.mark.parametrize("boundary, radius, depth, width, centre", LORENTZIAN_WELLS)
def test_no_negative_entry_on_lorentzian_wells(boundary, radius, depth, width, centre):
    # a deep, narrow well that breathes in time: at 8 steps RK4's map has
    # negative entries (-3.8e7 to -3.4e-4 on these wells at n = 128, and
    # still -4.5e-5 at 16 steps on the widest), the split map none at any
    # count, nor has a vector period
    expr = f"1 - {depth}/(1 + ((x - {centre})/{width})**2)*(1 + 0.1*sin(2*pi*t/T))"
    op, w = Problem(boundary, (1.0,), "parabolic", radius, closed_form(expr, 1.0)).at(128)
    assert float(textbook_rk4_map(op, w, 1.0, 8).min()) < -1e-4
    low = np.argsort(-op.b + w.evaluate(0.0, op.grid), kind="stable")[:8]
    for n_steps in (8, 16, 24, 32, 48):
        assert float(period_map(op, w, 1.0, n_steps=n_steps).matrix.min()) >= 0.0
        apply = evolution.period_action(op, w, 1.0, n_steps)
        assert all(float(apply(np.eye(op.n)[j]).min()) >= 0.0 for j in low)
        assert float(apply(np.ones(op.n)).min()) > 0.0


def test_overflowing_diagonal_factor_raises():
    # exp(h/2 * lam * m) beyond the floating-point range: refused before any
    # step; a state that overflows only through the steps is caught at the end
    op = make_op(n=8)
    w = closed_form("1 + sin(2*pi*t/T)", 1.0)
    with pytest.raises(UnstableStepError, match="diagonal factor .* overflows"):
        period_map(op, w, 1e5, n_steps=64)
    with pytest.raises(UnstableStepError, match="floating-point range"):
        propagate(op, w, 800.0, np.ones(op.n), 0.0, 1.0, n_steps=64)


# ------------------------------------------------------------ bookkeeping

def test_propagate_records_trajectory():
    op = make_op(n=8)
    w = closed_form("sin(2*pi*t/T)", 1.0)
    u0 = np.ones(op.n)
    traj = propagate(op, w, 0.5, u0, 0.0, 1.0, n_steps=64, record_every=16)
    assert traj.times.shape == (5,)
    np.testing.assert_allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert traj.states.shape == (5, op.n)
    np.testing.assert_allclose(traj.sup_norms, np.abs(traj.states).max(axis=1))
    np.testing.assert_allclose(traj.states[0], u0)
    np.testing.assert_allclose(traj.final, traj.states[-1])


def test_propagate_validates_inputs():
    op = make_op(n=8)
    w = closed_form("t", 1.0)
    with pytest.raises(ValueError):
        propagate(op, w, 0.0, np.ones(3), 0.0, 1.0)
    with pytest.raises(ValueError):
        propagate(op, w, 0.0, np.ones(op.n), 1.0, 1.0)


@pytest.mark.parametrize("n_steps", [0, -4])
def test_step_counts_below_one_are_refused(n_steps):
    # zero steps divided by zero; negative ones ran no step and returned the start
    op = make_op(n=8)
    w = closed_form("sin(2*pi*t/T) + cos(2*pi*x)", 1.0)
    with pytest.raises(ValueError, match="n_steps must be at least 1"):
        propagate(op, w, 1.0, np.ones(op.n), 0.0, 1.0, n_steps=n_steps)
    with pytest.raises(ValueError, match="n_steps must be at least 1"):
        period_map(op, w, 1.0, n_steps=n_steps)
    with pytest.raises(ValueError, match="n_steps must be at least 1"):
        evolution.period_action(op, w, 1.0, n_steps=n_steps)(np.ones(op.n))


def test_default_step_heuristic():
    assert default_n_steps(1.0, 0.0, 1.0) == MIN_STEPS_PER_PERIOD
    assert default_n_steps(2.0, 3.0, 2.0) == max(64, math.ceil(8 * 2 * 7))
    assert default_n_steps(10.0, 5.0, 4.0) == math.ceil(8 * 10 * 21)


def test_period_map_metadata():
    op = make_op(n=8)
    w = closed_form("sin(2*pi*t/T)", 1.5)
    pm = period_map(op, w, 0.75, n_steps=96)
    assert pm.lam == 0.75 and pm.period == 1.5 and pm.n_steps == 96 and pm.n == 8
    with pytest.raises(ValueError):
        pm.matrix[0, 0] = 1.0  # read-only


# ------------------------------------------------------ comparison checks

def test_ordered_states_stay_ordered():
    op = make_op(Boundary.NEUMANN, n=16)
    w = closed_form("sin(2*pi*t/T) + cos(2*pi*x)", 1.0)
    rng = np.random.default_rng(7)
    lo = rng.uniform(0.2, 0.8, size=op.n)
    hi = lo + rng.uniform(0.0, 0.5, size=op.n)
    rep = comparison_check(op, [(w, w)], [(lo, hi)], t1=1.0)
    assert rep.passed
    assert rep.max_violation <= rep.tolerance
    assert len(rep.pairs) == 1


def test_strict_ordering_after_one_period():
    # the kernel graph is connected at r = 1, so a one-sided initial gap
    # becomes a strictly positive gap everywhere after a period
    op = make_op(Boundary.DIRICHLET, n=16)
    w = closed_form("sin(2*pi*t/T)", 1.0)
    lo = np.ones(op.n)
    hi = np.ones(op.n)
    hi[3] += 0.5  # differ at a single node
    rep = comparison_check(op, [(w, w)], [(lo, hi)], t1=1.0)
    assert rep.passed
    assert rep.pairs[0].strictly_ordered
    assert rep.pairs[0].min_gap > 0.0


def test_ordered_weights_order_the_flow():
    op = make_op(Boundary.NEUMANN, n=16)
    w_lo = closed_form("sin(2*pi*t/T) - 0.3", 1.0)
    w_hi = closed_form("sin(2*pi*t/T)", 1.0)
    u0 = np.ones(op.n)
    rep = comparison_check(op, [(w_lo, w_hi)], [(u0, u0)], t1=1.0, lam=1.0)
    assert rep.passed and rep.pairs[0].strictly_ordered


def test_comparison_broadcasts_pairs():
    op = make_op(n=10)
    w = closed_form("t/T", 1.0)
    rng = np.random.default_rng(8)
    fields = []
    for _ in range(3):
        lo = rng.uniform(size=op.n)
        fields.append((lo, lo + rng.uniform(size=op.n)))
    rep = comparison_check(op, [(w, w)], fields, t1=1.0)
    assert len(rep.pairs) == 3 and rep.passed
    with pytest.raises(ValueError):
        comparison_check(op, [(w, w)] * 2, fields, t1=1.0)


def test_comparison_refuses_empty_pair_lists():
    # no pair checked is no evidence of order: an empty list broadcast against
    # one pair would otherwise pass with nothing compared
    op = make_op(n=10)
    w = closed_form("t/T", 1.0)
    pair = (np.zeros(op.n), np.ones(op.n))
    for weights, fields in (([], [pair]), ([(w, w)], []), ([], [])):
        with pytest.raises(ValueError, match="at least one"):
            comparison_check(op, weights, fields, t1=1.0)


def test_comparison_reports_violations_without_raising():
    # deliberately reversed ordering: the report must record the violation
    op = make_op(n=10)
    w = closed_form("0", 1.0)
    lo = np.full(op.n, 2.0)
    hi = np.full(op.n, 1.0)
    rep = comparison_check(op, [(w, w)], [(lo, hi)], t1=1.0)
    assert not rep.passed
    assert rep.max_violation > 0.5


# ------------------------------------------ the stepper against one call per step

def half_step_exponents(op, w, lam, t0, h, n_steps):
    """The trapezoid rule for lam times the integral of m over each half step,
    one weight evaluation per half-step boundary."""
    m = [w.evaluate(t0 + j * (0.5 * h), op.grid) for j in range(2 * n_steps + 1)]
    return [(0.25 * h * lam) * (m[j] + m[j + 1]) for j in range(2 * n_steps)]


def reference_strang(op, w, lam, t0, t1, n_steps):
    """Textbook Strang splitting, as a map of vectors: each step applies
    exp(z_second) E exp(z_first), the two half factors apart, with E =
    scipy's expm(h (K - b))."""
    h = (t1 - t0) / n_steps
    E = scipy.linalg.expm(h * (op.K - np.diag(op.b)))
    factors = [np.exp(z) for z in half_step_exponents(op, w, lam, t0, h, n_steps)]

    def step(u):
        u = u.astype(float)
        for k in range(n_steps):
            u = factors[2 * k + 1] * (E @ (factors[2 * k] * u))
        return u
    return step


def columns(step, n):
    """The matrix whose column j is ``step`` of the j-th unit vector."""
    return np.stack([step(e) for e in np.eye(n)], axis=1)


def horner_taylor_step(op, h, u):
    """The 2-D Taylor-2 dispersal step in Horner form,
    ``exp(-h s) (u + h (B u + h/2 B B u))`` with ``B = K - b + s`` and
    ``s = max(0, max b - 1/h)``, each product by ``K`` one ``matvec``."""
    s = max(0.0, float(op.b.max()) - 1.0 / h)
    bu = op.matvec(u) + (s - op.b) * u
    bbu = op.matvec(bu) + (s - op.b) * bu
    step = u + h * (bu + (0.5 * h) * bbu)
    return math.exp(-h * s) * step if s > 0.0 else step


def stage_scheme_strang(op, w, lam, u, t0, t1, n_steps, taylor=False):
    """The stepper's scheme, with one weight evaluation per half-step boundary.

    The first half factor, then per step one product with the operator's
    factor (with ``taylor``, ``horner_taylor_step``) and the merged factor of
    two half steps (the lone half step after the last product).
    """
    h = (t1 - t0) / n_steps
    E = None if taylor else op.dispersal_factor(h)
    f = [np.exp(z) for z in half_step_exponents(op, w, lam, t0, h, n_steps)]
    u = u.astype(float) * f[0]
    for k in range(n_steps):
        u = horner_taylor_step(op, h, u) if taylor else E @ u
        u = u * (f[2 * k + 1] * f[2 * k + 2] if k + 1 < n_steps else f[2 * k + 1])
    return u


@pytest.mark.parametrize("sampled", [False, True], ids=["closed-form", "sampled"])
def test_half_step_sums_are_built_once_per_step_count(sampled, monkeypatch):
    # the lam-independent sums are kept with the weight: another coupling on
    # the same interval and step count evaluates no weight, another step
    # count does, and every exponent has the bits of the formula scaled by
    # lam in one go
    op = make_op(Boundary.NEUMANN, n=12)
    w = closed_form("sin(2*pi*t/T + 0.4) + cos(2*pi*(x - t/T)) - 0.2", 1.3)
    if sampled:
        w = from_samples(w.table(np.arange(9) * (1.3 / 9), op.grid), 1.3)
    built = []
    for name in ("table", "antiderivative"):
        original = getattr(Weight, name)

        def counting(self, times, grid, original=original):
            built.append(len(times))
            return original(self, times, grid)
        monkeypatch.setattr(Weight, name, counting)
    got = {(lam, n): evolution._half_steps(op, w, lam, 0.0, 1.3, n)
           for n in (16, 32) for lam in (1.7, -0.3, 1.7)}
    assert built == [33, 65]
    monkeypatch.undo()
    for (lam, n), z in got.items():
        h = 1.3 / n
        times = np.arange(2 * n + 1) * (0.5 * h)
        if sampled:
            direct = lam * np.diff(w.antiderivative(times, op.grid), axis=0)
        else:
            m = w.table(times, op.grid)
            direct = (0.25 * h * lam) * (m[:-1] + m[1:])
        assert np.array_equal(z, direct)


@pytest.mark.parametrize("t0, t1, n_steps", [(0.0, 1.3, 16), (0.35, 2.9, 11), (-0.4, 0.5, 3)])
def test_sampled_half_steps_integrate_the_interpolant_exactly(t0, t1, n_steps):
    # 7 sample times, and half steps that miss them: each exponent is lam
    # times the integral of the interpolant over its half step, here by a
    # fine trapezoid rule on a lattice that holds every sample time, where
    # the interpolant is linear between nodes
    op = make_op(Boundary.NEUMANN, n=5)
    samples = np.random.default_rng(5).normal(size=(7, op.n))
    w = from_samples(samples, 1.3)
    lam = 0.7
    z = evolution._half_steps(op, w, lam, t0, t1, n_steps)
    h = (t1 - t0) / n_steps
    dt = w.period / len(samples)
    for j, got in enumerate(z):
        a, b = t0 + j * (0.5 * h), t0 + (j + 1) * (0.5 * h)
        knots = np.arange(math.ceil(a / dt), math.floor(b / dt) + 1) * dt
        ts = np.unique(np.concatenate([np.linspace(a, b, 9), knots]))
        m = w.table(ts, op.grid)
        fine = lam * ((m[1:] + m[:-1]) * (0.5 * np.diff(ts))[:, None]).sum(axis=0)
        np.testing.assert_allclose(got, fine, rtol=0.0, atol=1e-13)
    # the trapezoid rule at the half-step ends misses the kinks between them
    m = w.table(t0 + np.arange(2 * n_steps + 1) * (0.5 * h), op.grid)
    assert np.abs(z - (0.25 * h * lam) * (m[:-1] + m[1:])).max() > 1e-3


def test_period_map_equals_stagewise_reference():
    op = make_op(n=16)
    w = closed_form("sin(2*pi*t/T + 0.4) + cos(2*pi*(x - t/T)) - 0.2", 1.3)
    pm = period_map(op, w, 1.7, n_steps=77)
    assert np.array_equal(pm.matrix, columns(
        lambda e: stage_scheme_strang(op, w, 1.7, e, 0.0, 1.3, 77), op.n))


def test_propagate_equals_stagewise_reference():
    op = make_op(n=16)
    w = closed_form("sin(2*pi*t/T + 0.4) * (1 + x) - 0.3", 0.9)
    u0 = np.linspace(0.2, 1.0, op.n)
    traj = propagate(op, w, -2.3, u0, 0.35, 2.9, n_steps=113, record_every=113)
    assert np.array_equal(traj.final, stage_scheme_strang(op, w, -2.3, u0, 0.35, 2.9, 113))


@pytest.mark.parametrize("dim, n_per_axis", [(1, 24), (2, 16)], ids=["1d", "2d-256"])
def test_period_map_stacks_the_period_actions_of_the_unit_vectors(dim, n_per_axis):
    # the formed map is the images of the identity's columns under one
    # period action, bit for bit: the exact E in 1-D, Taylor-2 steps on
    # 256 nodes in 2-D
    expr = "sin(2*pi*t/T + 0.4) + cos(2*pi*(x - t/T)) - 0.2"
    if dim == 2:
        expr = "cos(2*pi*x)*cos(pi*y)*(1 + sin(2*pi*t/T)) - 0.2 + sin(2*pi*t/T)"
    op, w = Problem(Boundary.NEUMANN, (1.0,) * dim, "parabolic", 0.3,
                    closed_form(expr, 1.3)).at(n_per_axis)
    assert op.exact_dispersal == (dim == 1)
    pm = period_map(op, w, 1.7, n_steps=16)
    apply = evolution.period_action(op, w, 1.7, n_steps=16)
    assert np.array_equal(pm.matrix, columns(apply, op.n))
    assert float(pm.matrix.min()) >= 0.0 and not pm.matrix.flags.writeable


@pytest.mark.parametrize("shape", ["square", "column"])
def test_a_state_that_is_not_a_vector_is_refused(shape):
    # the flow steps vectors of length n only: an n x n block would take its
    # diagonal factors across columns, not rows
    op = make_op(n=8)
    w = closed_form("sin(2*pi*t/T + 0.4) + cos(2*pi*(x - t/T)) - 0.2", 1.0)
    state = np.eye(op.n) if shape == "square" else np.ones((op.n, 1))
    with pytest.raises(ValueError, match="shape"):
        evolution.period_action(op, w, 1.0, 64)(state)
    with pytest.raises(ValueError, match="shape"):
        propagate(op, w, 1.0, state, 0.0, 1.0, n_steps=64)


def test_period_action_builds_its_stage_tables_once(monkeypatch):
    # Arnoldi and the residual share one action: one table of the half-step
    # boundaries, and one dispersal factor
    op = make_op(Boundary.NEUMANN, n=24, r=0.3)
    w = closed_form("sin(2*pi*t/T + 0.4) + cos(2*pi*(x - t/T)) - 0.2", 1.3)
    rows = []
    original = Weight.table

    def counting(self, times, grid):
        rows.append(len(times))
        return original(self, times, grid)
    monkeypatch.setattr(Weight, "table", counting)
    apply = evolution.period_action(op, w, 1.7, n_steps=77)
    v = np.linspace(0.2, 1.0, op.n)
    unit = np.eye(op.n)[5]
    got = [apply(v), apply(unit), apply(v)]
    assert rows == [155]
    assert list(op._factors) == [1.3 / 77]
    monkeypatch.undo()
    assert np.array_equal(got[0], stage_scheme_strang(op, w, 1.7, v, 0.0, 1.3, 77))
    assert np.array_equal(got[1], stage_scheme_strang(op, w, 1.7, unit, 0.0, 1.3, 77))
    assert np.array_equal(got[2], got[0])


@pytest.mark.parametrize("n_per_axis", [24, 32])
def test_two_dimensional_period_goes_through_the_stencil(n_per_axis):
    # the vector stepper applies K by two small GEMMs: one period matches the
    # Taylor-2 loop through the GEMV to 1e-12 and holds no n x n temporary
    grid = build_grid(Boundary.NEUMANN, (1.0, 1.0), n_per_axis)
    op = assemble(make_kernel("parabolic", 0.5, dim=2), grid)
    gemv = dataclasses.replace(op, left=None, right=None)
    w = closed_form("cos(2*pi*x)*cos(pi*y)*(1 + sin(2*pi*t/T)) - 0.2 + sin(2*pi*t/T)", 1.0)
    v = np.cos(3.0 * grid.nodes[:, 0]) + grid.nodes[:, 1] + 1.0
    apply = evolution.period_action(op, w, 1.5, n_steps=64)
    got = apply(v)
    ref = stage_scheme_strang(gemv, w, 1.5, v, 0.0, 1.0, 64, taylor=True)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    tracemalloc.start()
    try:
        again = apply(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(again, got)
    assert peak < op.K.nbytes / 4
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(apply, [v, 2.0 * v, v]))
    assert np.array_equal(threaded[0], got) and np.array_equal(threaded[2], got)


@pytest.mark.parametrize("n_per_axis, period, n_steps", [(16, 1.0, 64), (24, 1.0, 64),
                                                         (16, 3.0, 2)])
def test_two_dimensional_period_is_the_horner_taylor_loop(n_per_axis, period, n_steps):
    # vector periods from 256 nodes in 2-D, of a field and of unit vectors, bit for bit
    # the Taylor-2 loop above (at 3 periods of 2 steps its shift s is
    # positive); one closure gives the same bits again and from two threads
    op = Problem(Boundary.NEUMANN, (1.0, 1.0), "parabolic", 0.5,
                 closed_form("0", 1.0)).at(n_per_axis)[0]
    w = closed_form("cos(2*pi*x)*cos(pi*y)*(1 + sin(2*pi*t/T)) - 0.2 + sin(2*pi*t/T)", period)
    assert op.dispersal_factor(period / n_steps) is None
    v = np.cos(3.0 * op.grid.nodes[:, 0]) + op.grid.nodes[:, 1] + 1.0
    apply = evolution.period_action(op, w, 1.5, n_steps=n_steps)
    fields = [v, 2.0 * v + 1.0] + [np.eye(op.n)[j] for j in (0, 100, op.n - 1)]
    got = [apply(u) for u in fields]
    for u, image in zip(fields, got):
        assert np.array_equal(image, stage_scheme_strang(op, w, 1.5, u, 0.0, period, n_steps,
                                                         taylor=True))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            again = list(pool.map(apply, fields * 8, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(image, got[k % len(fields)]) for k, image in enumerate(again))


@pytest.mark.parametrize("boundary,n,n_steps", [
    (Boundary.DIRICHLET, 32, 64), (Boundary.DIRICHLET, 64, 196),
    (Boundary.NEUMANN, 32, 64), (Boundary.NEUMANN, 48, 196),
    (Boundary.PERIODIC, 32, 64), (Boundary.PERIODIC, 48, 196),
])
def test_stage_scheme_agrees_with_the_textbook_loop(boundary, n, n_steps):
    # the merged half steps and the series for E change the rounding only:
    # map entries and propagated fields stay within 1e-13 of the textbook
    # splitting with scipy's expm, relative to their size
    op = make_op(boundary, n=n, r=0.3)
    w = closed_form("sin(2*pi*t/T + 0.4) + 2*cos(2*pi*(x - t/T)) - 0.2", 1.3)
    pm = period_map(op, w, 2.1, n_steps=n_steps)
    ref = columns(reference_strang(op, w, 2.1, 0.0, 1.3, n_steps), op.n)
    assert np.abs(pm.matrix - ref).max() <= 1e-13 * np.abs(ref).max()
    u0 = np.linspace(0.2, 1.0, op.n)
    got = propagate(op, w, -1.4, u0, 0.35, 2.9, n_steps=n_steps, record_every=n_steps).final
    ref = reference_strang(op, w, -1.4, 0.35, 2.9, n_steps)(u0)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_period_map_leaves_the_kernel_matrix_alone():
    op = make_op(n=32)
    K = op.K.copy()
    period_map(op, closed_form("sin(2*pi*t/T) + cos(2*pi*x)", 1.0), 1.5, n_steps=64)
    assert not op.K.flags.writeable
    assert np.array_equal(op.K, K)


def test_concurrent_period_maps_equal_serial_ones():
    # each call owns its buffers; the dispersal factor is shared and read-only
    op = make_op(n=48, r=0.3)
    w = closed_form("sin(2*pi*t/T) + cos(2*pi*x) - 0.1", 1.0)
    lams = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    serial = [period_map(op, w, lam, n_steps=96).matrix for lam in lams]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(lambda lam: period_map(op, w, lam, n_steps=96).matrix, lams))
    assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))
