"""RK4 propagation, the period map, and order preservation of the flow."""

import dataclasses
import math
import tracemalloc
import warnings
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
from perispec.operator import assemble
from perispec.weights import Weight, closed_form


def make_op(boundary=Boundary.DIRICHLET, n=16, r=1.0):
    if boundary is Boundary.PERIODIC:
        grid = build_grid(boundary, (1.0,), n)
        return assemble(wrap_kernel(make_kernel("parabolic", r), [1.0]), grid)
    grid = build_grid(boundary, (1.0,), n)
    return assemble(make_kernel("parabolic", r), grid)


# ------------------------------------------------------- oracle agreement

def test_autonomous_map_matches_matrix_exponential():
    # time-independent coefficients: the period map is exp(T * (K - b + lam m))
    op = make_op(n=14)
    w = closed_form("cos(2*pi*x) - 0.2", 1.0)
    lam = 1.3
    m = w.evaluate(0.0, op.grid)
    gen = op.K - np.diag(op.b) + lam * np.diag(m)
    oracle = scipy.linalg.expm(gen)
    pm = period_map(op, w, lam, n_steps=256)
    np.testing.assert_allclose(pm.matrix, oracle, rtol=0, atol=1e-8)


def test_autonomous_vector_propagation_matches_expm():
    op = make_op(Boundary.NEUMANN, n=12)
    w = closed_form("x - 0.5", 2.0)
    lam = 0.8
    gen = op.K - np.diag(op.b) + lam * np.diag(w.evaluate(0.0, op.grid))
    rng = np.random.default_rng(4)
    u0 = rng.uniform(0.5, 1.5, size=op.n)
    traj = propagate(op, w, lam, u0, 0.0, 2.0, n_steps=512)
    np.testing.assert_allclose(traj.final, scipy.linalg.expm(2.0 * gen) @ u0, atol=1e-8)


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


def test_rk4_is_fourth_order():
    op = make_op(n=10)
    w = closed_form("sin(2*pi*t/T)*(1 + x)", 1.0)
    ref = period_map(op, w, 1.0, n_steps=4096).matrix
    errs = [float(np.abs(period_map(op, w, 1.0, n_steps=k).matrix - ref).max())
            for k in (64, 128, 256)]
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.25)
    assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.25)


# ------------------------------------------------------------- positivity

def test_period_map_entries_nonnegative():
    for boundary in Boundary:
        op = make_op(boundary, n=16)
        w = closed_form("sin(2*pi*t/T) - cos(2*pi*x)", 1.0)
        pm = period_map(op, w, 2.0)
        assert float(pm.matrix.min()) >= 0.0


def test_rounding_negatives_clamped_silently(monkeypatch):
    op = make_op(n=6)
    w = closed_form("0", 1.0)
    fake = np.eye(op.n)
    fake[0, 1] = -5e-13  # below the clamp threshold: rounding noise

    monkeypatch.setattr(evolution, "_integrate", lambda *a, **k: fake.copy())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pm = period_map(op, w, 0.0)
    assert pm.matrix[0, 1] == 0.0


def test_substantive_negatives_warn_and_survive(monkeypatch):
    op = make_op(n=6)
    w = closed_form("0", 1.0)
    fake = np.eye(op.n)
    fake[0, 1] = -1e-6  # far beyond rounding: evidence of a too-coarse step

    monkeypatch.setattr(evolution, "_integrate", lambda *a, **k: fake.copy())
    with pytest.warns(UserWarning, match="negative entry"):
        pm = period_map(op, w, 0.0)
    assert pm.matrix[0, 1] == -1e-6  # left in place as evidence


def test_under_resolved_kernel_escapes_growth_envelope():
    # spacing 0.5 against support radius 0.05: the quadrature row mass comes
    # out near 7.5 instead of <= 1, so the discrete flow grows much faster
    # than any physically consistent discretization could; the envelope
    # monitor must catch this rather than return garbage
    grid = build_grid(Boundary.DIRICHLET, (1.0,), 2)
    op = assemble(make_kernel("parabolic", 0.05), grid)
    w = closed_form("0", 1.0)
    with pytest.raises(UnstableStepError):
        propagate(op, w, 0.0, np.ones(op.n), 0.0, 1.0)


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


def test_comparison_reports_violations_without_raising():
    # deliberately reversed ordering: the report must record the violation
    op = make_op(n=10)
    w = closed_form("0", 1.0)
    lo = np.full(op.n, 2.0)
    hi = np.full(op.n, 1.0)
    rep = comparison_check(op, [(w, w)], [(lo, hi)], t1=1.0)
    assert not rep.passed
    assert rep.max_violation > 0.5


# ------------------------------------------- stage tables against one call per stage

def reference_rk4(op, w, lam, u, t0, t1, n_steps):
    """Textbook RK4 that evaluates the weight once per stage, in the order it is needed."""
    K, b, grid = op.K, op.b, op.grid
    h = (t1 - t0) / n_steps
    log_u0 = math.log(max(float(np.abs(u).max()), 1e-300))
    b_norm = float(np.abs(b).max())

    def rhs(m, U):
        if U.ndim == 2:
            return K @ U + (lam * m - b)[:, None] * U
        return K @ U + (lam * m - b) * U

    m_seen = 0.0
    m_curr = w.evaluate(t0, grid)
    u = u.astype(float)
    for k in range(n_steps):
        t = t0 + k * h
        m_half = w.evaluate(t + 0.5 * h, grid)
        m_next = w.evaluate(t + h, grid)
        m_seen = max(m_seen, float(np.abs(m_curr).max()), float(np.abs(m_half).max()),
                     float(np.abs(m_next).max()))
        k1 = rhs(m_curr, u)
        k2 = rhs(m_half, u + 0.5 * h * k1)
        k3 = rhs(m_half, u + 0.5 * h * k2)
        k4 = rhs(m_next, u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        m_curr = m_next
        norm = float(np.abs(u).max())
        elapsed = (k + 1) * h
        limit = log_u0 + math.log(10.0) + (b_norm + abs(lam) * m_seen + 1.0) * elapsed
        if not math.isfinite(norm) or math.log(max(norm, 1e-300)) > limit:
            raise UnstableStepError(
                f"unstable step size: norm {norm:.3e} escaped the growth envelope "
                f"at t={t0 + elapsed:.6g} with n_steps={n_steps}")
    return u


def stage_scheme_rk4(op, w, lam, u, t0, t1, n_steps):
    """RK4 in the stepper's stage scheme, with one weight evaluation per stage.

    An n x n state's right-hand side is one product with K whose diagonal
    carries lam m - b; a vector's or a narrower block's is K u + (lam m - b) u,
    with K applied to a block's columns one by one.
    The step sums into u + h/6 k1, then adds h/3 k2, h/3 k3 and h/6 k4 in
    that order.
    """
    K, b, grid = op.K, op.b, op.grid
    h = (t1 - t0) / n_steps

    def rhs(m, U):
        d = lam * m - b
        if U.shape == K.shape:
            A = np.array(K)
            A[np.diag_indices(op.n)] = np.diag(K) + d
            return A @ U
        if U.ndim == 1:
            return K @ U + d * U
        return np.stack([K @ np.ascontiguousarray(col) for col in U.T], axis=1) + d[:, None] * U

    m_curr = w.evaluate(t0, grid)
    u = u.astype(float)
    for k in range(n_steps):
        t = t0 + k * h
        m_half = w.evaluate(t + 0.5 * h, grid)
        m_next = w.evaluate(t + h, grid)
        k1 = rhs(m_curr, u)
        k2 = rhs(m_half, u + 0.5 * h * k1)
        k3 = rhs(m_half, u + 0.5 * h * k2)
        k4 = rhs(m_next, u + h * k3)
        u = u + (h / 6.0) * k1
        u = u + (h / 3.0) * k2
        u = u + (h / 3.0) * k3
        u = u + (h / 6.0) * k4
        m_curr = m_next
    return u


def test_period_map_equals_stagewise_reference():
    op = make_op(n=16)
    w = closed_form("sin(2*pi*t/T + 0.4) + cos(2*pi*(x - t/T)) - 0.2", 1.3)
    pm = period_map(op, w, 1.7, n_steps=77)
    ref = stage_scheme_rk4(op, w, 1.7, np.eye(op.n), 0.0, 1.3, 77)
    ref[(ref < 0.0) & (ref > -evolution.CLAMP_TOL)] = 0.0
    assert np.array_equal(pm.matrix, ref)


def test_propagate_equals_stagewise_reference():
    op = make_op(n=16)
    w = closed_form("sin(2*pi*t/T + 0.4) * (1 + x) - 0.3", 0.9)
    u0 = np.linspace(0.2, 1.0, op.n)
    traj = propagate(op, w, -2.3, u0, 0.35, 2.9, n_steps=113, record_every=113)
    assert np.array_equal(traj.final, stage_scheme_rk4(op, w, -2.3, u0, 0.35, 2.9, 113))


def test_block_period_equals_stagewise_reference():
    # a block narrower than K, as the positivity probe integrates it
    op = make_op(Boundary.NEUMANN, n=24, r=0.3)
    w = closed_form("sin(2*pi*t/T + 0.4) + cos(2*pi*(x - t/T)) - 0.2", 1.3)
    block = np.zeros((op.n, 3))
    block[[0, 5, 11], [0, 1, 2]] = 1.0
    got = evolution.period_action(op, w, 1.7, n_steps=77)(block)
    assert np.array_equal(got, stage_scheme_rk4(op, w, 1.7, block, 0.0, 1.3, 77))
    # the same values in Fortran order give the same bits
    assert np.array_equal(evolution.period_action(op, w, 1.7, n_steps=77)(
        np.asfortranarray(block)), got)
    assert np.abs(got - reference_rk4(op, w, 1.7, block, 0.0, 1.3, 77)).max() <= (
        1e-13 * np.abs(got).max())


def test_period_action_builds_its_stage_tables_once(monkeypatch):
    # Arnoldi, the residual and the probe share one action
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
    block = np.zeros((op.n, 3))
    block[[0, 5, 11], [0, 1, 2]] = 1.0
    got = [apply(v), apply(block), apply(v)]
    assert rows == [77, 78]
    monkeypatch.undo()
    assert np.array_equal(got[0], stage_scheme_rk4(op, w, 1.7, v, 0.0, 1.3, 77))
    assert np.array_equal(got[1], stage_scheme_rk4(op, w, 1.7, block, 0.0, 1.3, 77))
    assert np.array_equal(got[2], got[0])


@pytest.mark.parametrize("n_per_axis", [24, 32])
def test_two_dimensional_period_goes_through_the_stencil(n_per_axis):
    # the vector stepper applies K by two small GEMMs: one period matches the
    # GEMV path to 1e-12 and holds no n x n temporary
    grid = build_grid(Boundary.NEUMANN, (1.0, 1.0), n_per_axis)
    op = assemble(make_kernel("parabolic", 0.5, dim=2), grid)
    gemv = dataclasses.replace(op, left=None, right=None)
    w = closed_form("cos(2*pi*x)*cos(pi*y)*(1 + sin(2*pi*t/T)) - 0.2 + sin(2*pi*t/T)", 1.0)
    v = np.cos(3.0 * grid.nodes[:, 0]) + grid.nodes[:, 1] + 1.0
    apply = evolution.period_action(op, w, 1.5, n_steps=64)
    got = apply(v)
    ref = evolution.period_action(gemv, w, 1.5, n_steps=64)(v)
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


@pytest.mark.parametrize("boundary,n,n_steps", [
    (Boundary.DIRICHLET, 32, 64), (Boundary.DIRICHLET, 64, 196),
    (Boundary.NEUMANN, 32, 64), (Boundary.NEUMANN, 48, 196),
    (Boundary.PERIODIC, 32, 64), (Boundary.PERIODIC, 48, 196),
])
def test_stage_scheme_agrees_with_the_textbook_loop(boundary, n, n_steps):
    # the fused stages change the rounding only: map entries and propagated
    # fields stay within 1e-13 of textbook RK4, relative to their size
    op = make_op(boundary, n=n, r=0.3)
    w = closed_form("sin(2*pi*t/T + 0.4) + 2*cos(2*pi*(x - t/T)) - 0.2", 1.3)
    pm = period_map(op, w, 2.1, n_steps=n_steps)
    ref = reference_rk4(op, w, 2.1, np.eye(op.n), 0.0, 1.3, n_steps)
    ref[(ref < 0.0) & (ref > -evolution.CLAMP_TOL)] = 0.0
    assert np.abs(pm.matrix - ref).max() <= 1e-13 * np.abs(ref).max()
    u0 = np.linspace(0.2, 1.0, op.n)
    got = propagate(op, w, -1.4, u0, 0.35, 2.9, n_steps=n_steps, record_every=n_steps).final
    ref = reference_rk4(op, w, -1.4, u0, 0.35, 2.9, n_steps)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_period_map_leaves_the_kernel_matrix_alone():
    op = make_op(n=32)
    K = op.K.copy()
    period_map(op, closed_form("sin(2*pi*t/T) + cos(2*pi*x)", 1.0), 1.5, n_steps=64)
    assert not op.K.flags.writeable
    assert np.array_equal(op.K, K)


def test_concurrent_period_maps_equal_serial_ones():
    # each call owns its shifted copy of K and its stage buffers
    op = make_op(n=48, r=0.3)
    w = closed_form("sin(2*pi*t/T) + cos(2*pi*x) - 0.1", 1.0)
    lams = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    serial = [period_map(op, w, lam, n_steps=96).matrix for lam in lams]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(lambda lam: period_map(op, w, lam, n_steps=96).matrix, lams))
    assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))


def test_growth_envelope_uses_the_largest_weight_seen_so_far():
    # the weight is near zero early and reaches 8 only at the end of the
    # period: the under-resolved kernel's growth escapes the envelope built
    # from the values met so far, not one built from the period's maximum
    grid = build_grid(Boundary.DIRICHLET, (1.0,), 2)
    op = assemble(make_kernel("parabolic", 0.05), grid)
    w = closed_form("8*(t/T)**8", 1.0)
    with pytest.raises(UnstableStepError) as expected:
        reference_rk4(op, w, 1.0, np.ones(op.n), 0.0, 1.0, 64)
    with pytest.raises(UnstableStepError) as got:
        propagate(op, w, 1.0, np.ones(op.n), 0.0, 1.0, n_steps=64)
    assert str(got.value) == str(expected.value)
