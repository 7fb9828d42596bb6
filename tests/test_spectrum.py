"""Principal spectrum points: oracles, envelope bounds, and classification."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

import perispec.spectrum
import perispec.weights
from perispec.evolution import period_map
from perispec.geometry import Boundary, build_grid, make_kernel, wrap_kernel
from perispec.operator import assemble
from perispec.spectrum import (
    PowerIterationError,
    SpectrumReport,
    _krylov_perron,
    autonomous_spectrum_point,
    check_S_conditions,
    classify_principal_eigenvalue,
    essential_interval,
    localization_width,
    lyapunov_estimate,
    principal_spectrum_point,
    refinement_diagnostics,
)
from perispec.weights import S1Data, closed_form, summarize, time_average


def make_op(boundary, n=32, r=1.0):
    grid = build_grid(boundary, (1.0,), n)
    if boundary is Boundary.PERIODIC:
        return assemble(wrap_kernel(make_kernel("parabolic", r), [1.0]), grid)
    return assemble(make_kernel("parabolic", r), grid)


def make_op_2d(n_per_axis):
    grid = build_grid(Boundary.NEUMANN, (1.0, 1.0), n_per_axis)
    return assemble(make_kernel("parabolic", 0.5, dim=2), grid)


def forbid_period_map(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the dense period map was built")
    monkeypatch.setattr(perispec.spectrum, "period_map", refuse)


def forbid_vector_periods(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a vector period was integrated")
    monkeypatch.setattr(perispec.spectrum, "period_action", refuse)


def forbid_time_stepping(monkeypatch):
    forbid_period_map(monkeypatch)
    forbid_vector_periods(monkeypatch)


def lapack_point(op, w, lam, n_steps=None):
    """The report of LAPACK's eigenpair of largest modulus of ``period_map``:
    an oracle, independent of ARPACK, for the Perron solve of the same map."""
    mat = period_map(op, w, lam, n_steps=n_steps).matrix
    vals, vecs = np.linalg.eig(mat)
    top = int(np.argmax(np.abs(vals)))
    rho, phi = float(vals[top].real), vecs[:, top].real
    phi = phi / phi[np.argmax(np.abs(phi))]
    h = -op.b + lam * time_average(w, op.grid)
    return perispec.spectrum._report(op, lam, h, math.log(rho) / w.period, phi,
                                     float(np.abs(mat @ phi - rho * phi).max()), 0)


def assert_matches_the_oracle(rep, oracle, mu_tol, vec_tol):
    assert rep.mu_n == pytest.approx(oracle.mu_n, abs=mu_tol)
    assert rep.is_principal_eigenvalue == oracle.is_principal_eigenvalue
    assert rep.eigenfunction.max() == 1.0 and rep.eigenfunction.min() >= 0.0
    np.testing.assert_allclose(rep.eigenfunction, oracle.eigenfunction, atol=vec_tol)
    assert rep.localization_width == pytest.approx(oracle.localization_width, rel=vec_tol)
    assert rep.h_hat_max == oracle.h_hat_max


def assert_is_the_frozen_point(rep, op, w, lam):
    # the exact route: the frozen generator's point, bit for bit, with no period
    auto = autonomous_spectrum_point(op, time_average(w, op.grid), lam)
    assert rep.mu_n == auto.mu_n
    np.testing.assert_array_equal(rep.eigenfunction, auto.eigenfunction)
    assert rep.residual == auto.residual < 1e-12
    assert rep.iterations == 0


STANDARD_WEIGHT = "sin(2*pi*t/T) + cos(2*pi*x) - 0.2"
NONSEPARABLE_1D = "cos(2*pi*x)*(1 + sin(2*pi*t/T)) - 0.2 + sin(2*pi*t/T)"


def analytic_parabolic_mass(x, r=1.0):
    def g(s):
        s = min(s, r)
        return 3.0 / (4.0 * r) * (s - s ** 3 / (3.0 * r * r))
    return g(1.0 - x) + g(x)


# ------------------------------------------------------------ dense oracles

@pytest.mark.parametrize("boundary", list(Boundary))
def test_power_iteration_matches_dense_eigensolver(boundary):
    # below 256 nodes a non-separable weight's map is formed, and Arnoldi on
    # it finds LAPACK's eigenpair of that same map
    op = make_op(boundary, n=16)
    w = closed_form(NONSEPARABLE_1D, 1.0)
    rep = principal_spectrum_point(op, w, 1.0)
    assert_matches_the_oracle(rep, lapack_point(op, w, 1.0), 1e-10, 1e-9)
    assert rep.residual < 1e-12


def test_autonomous_route_matches_dense_eigensolver():
    op = make_op(Boundary.DIRICHLET, n=14)
    m = np.cos(2 * np.pi * op.grid.nodes[:, 0]) - 0.2
    auto = autonomous_spectrum_point(op, m, 1.3)
    gen = op.K - np.diag(op.b) + 1.3 * np.diag(m)
    top = float(np.linalg.eigvals(gen).real.max())
    assert auto.mu_n == pytest.approx(top, abs=1e-10)
    assert auto.residual < 1e-8
    assert np.all(auto.eigenfunction >= 0.0)


def test_autonomous_route_without_a_perron_vector_is_an_error(monkeypatch):
    monkeypatch.setattr(perispec.spectrum, "_frozen_perron", lambda *args: None)
    op = make_op(Boundary.DIRICHLET, n=14)
    with pytest.raises(PowerIterationError, match="frozen generator"):
        autonomous_spectrum_point(op, np.cos(2 * np.pi * op.grid.nodes[:, 0]), 1.3)


def test_periodic_route_agrees_with_autonomous_for_frozen_weight():
    op = make_op(Boundary.NEUMANN, n=20)
    w = closed_form("cos(2*pi*x) - 0.2", 1.0)
    rep = principal_spectrum_point(op, w, 1.0, n_steps=256)
    auto = autonomous_spectrum_point(op, w.evaluate(0.0, op.grid), 1.0)
    assert rep.mu_n == pytest.approx(auto.mu_n, abs=1e-7)


def test_autonomous_map_against_expm_radius():
    op = make_op(Boundary.PERIODIC, n=12)
    w = closed_form("cos(2*pi*x)", 1.0)
    pm = period_map(op, w, 0.7, n_steps=256)
    gen = op.K - np.diag(op.b) + 0.7 * np.diag(w.evaluate(0.0, op.grid))
    np.testing.assert_allclose(pm.matrix, scipy.linalg.expm(gen), atol=1e-8)


# ----------------------------------------- matrix-free exact and Arnoldi routes

# m1(x) + m2(t): the period map is the time-averaged generator's flow times a
# scalar, so the spectrum point is that generator's, with no time stepping
SEPARABLE_2D = "cos(2*pi*x)*cos(pi*y) - 0.2 + sin(2*pi*t/T)"
NONSEPARABLE_2D = "cos(2*pi*x)*cos(pi*y)*(1 + sin(2*pi*t/T)) - 0.2 + sin(2*pi*t/T)"

# at 256 nodes: the exact route for a separable weight, Arnoldi for the other
KRYLOV_CASES = [
    pytest.param(lambda: make_op(Boundary.DIRICHLET, n=256), STANDARD_WEIGHT, True,
                 id="dirichlet-256"),
    pytest.param(lambda: make_op(Boundary.NEUMANN, n=256), STANDARD_WEIGHT, True,
                 id="neumann-256"),
    pytest.param(lambda: make_op(Boundary.PERIODIC, n=256), STANDARD_WEIGHT, True,
                 id="periodic-256"),
    pytest.param(lambda: make_op_2d(16), NONSEPARABLE_2D, False, id="neumann-16x16"),
    pytest.param(lambda: make_op_2d(16), SEPARABLE_2D, True, id="neumann-16x16-separable"),
]


@pytest.mark.parametrize("make, expr, separable", KRYLOV_CASES)
def test_krylov_route_matches_dense_power_iteration(make, expr, separable, monkeypatch):
    op = make()
    w = closed_form(expr, 1.0)
    assert summarize(w, op.grid).separable is separable
    for lam in (0.0, 1.0, 2.5):
        with monkeypatch.context() as mp:
            if separable:
                forbid_time_stepping(mp)
            else:
                forbid_period_map(mp)
            krylov = principal_spectrum_point(op, w, lam)
        if separable:
            assert_is_the_frozen_point(krylov, op, w, lam)
            continue
        assert_matches_the_oracle(krylov, lapack_point(op, w, lam), 1e-9, 1e-7)
        assert krylov.residual < 1e-10


# a weight m1(x) + m2(t) takes the exact route at every grid size; the RK4
# map tends to it as the step count grows
SEPARABLE_CASES = [pytest.param(boundary, n, id=f"{boundary.value}-{n}")
                   for boundary in Boundary for n in (32, 64, 128)]


@pytest.mark.parametrize("boundary, n", SEPARABLE_CASES)
def test_separable_route_matches_dense_power_iteration(boundary, n, monkeypatch):
    op = make_op(boundary, n=n)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    for lam in (0.0, 1.0, 2.5):
        with monkeypatch.context() as mp:
            forbid_time_stepping(mp)
            rep = principal_spectrum_point(op, w, lam)
        assert_is_the_frozen_point(rep, op, w, lam)
        if n <= 64:
            assert_matches_the_oracle(rep, lapack_point(op, w, lam, n_steps=512), 1e-9, 1e-9)


def test_failed_frozen_solve_below_the_crossover_takes_the_dense_route(monkeypatch):
    # the formed map, with Arnoldi from the constant field
    op = make_op(Boundary.DIRICHLET, n=64)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    oracle = lapack_point(op, w, 1.0)
    starts = []
    original = perispec.spectrum._krylov_perron

    def recording(apply, n, start=None):
        starts.append(start)
        return original(apply, n, start)
    monkeypatch.setattr(perispec.spectrum, "_krylov_perron", recording)
    monkeypatch.setattr(perispec.spectrum, "_frozen_perron", lambda *args: None)
    forbid_vector_periods(monkeypatch)
    rep = principal_spectrum_point(op, w, 1.0)
    assert starts == [None] and rep.iterations > 2
    assert_matches_the_oracle(rep, oracle, 1e-10, 1e-9)


def test_failed_frozen_solve_at_the_crossover_takes_arnoldi_from_the_constant_field(
        monkeypatch):
    op = make_op(Boundary.DIRICHLET, n=256)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    exact = principal_spectrum_point(op, w, 1.0)
    starts = []
    original = perispec.spectrum._krylov_perron

    def recording(apply, n, start=None):
        starts.append(start)
        return original(apply, n, start)
    monkeypatch.setattr(perispec.spectrum, "_krylov_perron", recording)
    monkeypatch.setattr(perispec.spectrum, "_frozen_perron", lambda *args: None)
    forbid_period_map(monkeypatch)
    rep = principal_spectrum_point(op, w, 1.0)
    assert starts == [None] and rep.iterations > 2
    # the RK4 map's Perron root, a time-stepping error away from the exact one
    assert rep.mu_n == pytest.approx(exact.mu_n, abs=1e-8)
    assert rep.residual < 1e-10
    np.testing.assert_allclose(rep.eigenfunction, exact.eigenfunction, atol=1e-7)


# every route builds its report whole: the verdict is read from its fields,
# so a copy with another residual cannot keep a stale one
ROUTE_CASES = [
    pytest.param(32, NONSEPARABLE_1D, True, id="formed-32"),
    pytest.param(64, STANDARD_WEIGHT, False, id="exact-separable"),
    pytest.param(256, NONSEPARABLE_1D, False, id="arnoldi-256"),
]


@pytest.mark.parametrize("n, expr, formed", ROUTE_CASES)
def test_every_route_carries_its_own_verdict(n, expr, formed, monkeypatch):
    op = make_op(Boundary.DIRICHLET, n=n)
    w = closed_form(expr, 1.0)
    if not formed:
        forbid_period_map(monkeypatch)
    rep = principal_spectrum_point(op, w, 1.0)
    assert (rep.iterations == 0) == (expr == STANDARD_WEIGHT)
    assert rep.is_principal_eigenvalue == classify_principal_eigenvalue(rep) == "yes"
    unconverged = dataclasses.replace(rep, residual=1.0)
    assert unconverged.is_principal_eigenvalue == "marginal"
    assert classify_principal_eigenvalue(unconverged) == "marginal"


def test_krylov_route_counts_vector_periods(monkeypatch):
    periods = []
    original = perispec.spectrum.period_action

    def counting(*args, **kwargs):
        apply = original(*args, **kwargs)

        def counted(v):
            periods.append(1)
            return apply(v)
        return counted
    monkeypatch.setattr(perispec.spectrum, "period_action", counting)
    for op, expr, lo, hi in [
        # the exact route integrates no period
        (make_op(Boundary.DIRICHLET, n=256), STANDARD_WEIGHT, 0, 0),
        (make_op_2d(16), NONSEPARABLE_2D, 10, 100),
    ]:
        periods.clear()
        rep = principal_spectrum_point(op, closed_form(expr, 1.0), 1.0)
        assert rep.iterations == len(periods)
        assert lo <= rep.iterations <= hi


def test_two_dimensional_arnoldi_route_never_reads_the_matrix(monkeypatch):
    # Lanczos, the vector periods and the positivity probe all apply K through
    # the factored stencil, so an operator without K gives the same report
    op = make_op_2d(16)
    w = closed_form(NONSEPARABLE_2D, 1.0)
    probes = []
    original = perispec.spectrum._probe_positivity

    def recording(*args):
        probes.append(1)
        return original(*args)
    monkeypatch.setattr(perispec.spectrum, "_probe_positivity", recording)
    forbid_period_map(monkeypatch)
    bare = dataclasses.replace(op, K=None)
    for lam in (0.5, 2.0):
        rep = principal_spectrum_point(op, w, lam)
        again = principal_spectrum_point(bare, w, lam)
        for field in dataclasses.fields(SpectrumReport):
            mine, theirs = getattr(rep, field.name), getattr(again, field.name)
            assert np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else (
                mine == theirs), field.name
    assert len(probes) == 4


def test_lyapunov_estimate_at_krylov_size_builds_no_matrix(monkeypatch):
    op = make_op(Boundary.DIRICHLET, n=256)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    forbid_period_map(monkeypatch)
    rep = principal_spectrum_point(op, w, 1.0)
    assert abs(rep.mu_n - lyapunov_estimate(op, w, 1.0)) < 1e-3


def test_krylov_route_warns_on_a_too_coarse_step_count(monkeypatch):
    # 16 steps leave negative entries in the map's columns near the deep well
    # at x = 0 while the Perron vector stays nonnegative, so only the probe
    # of the lowest-envelope columns can see them without the matrix; the
    # well breathes in time, so the weight takes the Arnoldi route
    op = make_op(Boundary.NEUMANN, n=256, r=0.1)
    w = closed_form("1 - 40*(1 - x)**8*(1 + 0.1*sin(2*pi*t/T))", 1.0)
    with pytest.warns(UserWarning, match="negative entry"):
        period_map(op, w, 1.0, n_steps=16)
    forbid_period_map(monkeypatch)
    with pytest.warns(UserWarning, match="negative entry .* too coarse"):
        rep = principal_spectrum_point(op, w, 1.0, n_steps=16)
    assert rep.residual < 1e-10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        principal_spectrum_point(op, w, 1.0)


def test_krylov_nonconvergence_is_a_power_iteration_error(monkeypatch):
    import scipy.sparse.linalg

    def stalls(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((256, 0)))
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", stalls)
    # a non-separable weight at 256 nodes takes the Arnoldi route
    op = make_op_2d(16)
    with pytest.raises(PowerIterationError, match="Arnoldi did not converge"):
        principal_spectrum_point(op, closed_form(NONSEPARABLE_2D, 1.0), 1.0)


def test_krylov_from_a_start_finds_the_perron_vector():
    rng = np.random.default_rng(3)
    positive = rng.uniform(0.5, 1.0, size=(8, 8))
    vals, vecs = np.linalg.eig(positive)
    top = int(np.argmax(vals.real))
    perron = vecs[:, top].real / vecs[np.argmax(np.abs(vecs[:, top])), top].real
    # a start near the Perron vector
    perturbed = perron.copy()
    perturbed[0] += 1e-6
    ratio, v, residual, count = _krylov_perron(lambda u: positive @ u, 8, perturbed)
    assert count > 2
    assert ratio == pytest.approx(vals[top].real, rel=1e-12) and residual < 1e-12
    np.testing.assert_allclose(v, perron, atol=1e-12)
    # an exact eigenvector with zero residual, but signed: not the Perron vector
    spiked = np.ones((8, 8)) + np.eye(8)  # Perron pair (9, ones); 1 on its complement
    signed = np.zeros(8)
    signed[:2] = [1.0, -1.0]
    assert np.array_equal(spiked @ signed, signed)
    ratio, v, residual, count = _krylov_perron(lambda u: spiked @ u, 8, signed)
    assert count > 2
    assert ratio == pytest.approx(9.0, rel=1e-12) and residual < 1e-12
    np.testing.assert_allclose(v, np.ones(8), atol=1e-12)


@pytest.mark.parametrize("error", [
    ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((256, 0))),
    ArpackError(-9),
], ids=["no-convergence", "arpack-error"])
def test_failed_start_vector_solve_gives_the_same_point(error, monkeypatch):
    # without the frozen start, Arnoldi runs from the constant field
    import scipy.sparse.linalg

    op = make_op(Boundary.DIRICHLET, n=256)
    w = closed_form(NONSEPARABLE_1D, 1.0)
    starts = []
    original = perispec.spectrum._krylov_perron

    def recording(apply, n, start=None):
        starts.append(start)
        return original(apply, n, start)
    monkeypatch.setattr(perispec.spectrum, "_krylov_perron", recording)
    started = principal_spectrum_point(op, w, 1.0)

    def fails(*args, **kwargs):
        raise error
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fails)
    forbid_period_map(monkeypatch)
    assert perispec.spectrum._frozen_perron(op, time_average(w, op.grid), 1.0) is None
    rep = principal_spectrum_point(op, w, 1.0)
    assert starts[0] is not None and starts[1] is None
    assert rep.mu_n == pytest.approx(started.mu_n, abs=1e-12)
    assert rep.residual < 1e-10
    np.testing.assert_allclose(rep.eigenfunction, started.eigenfunction, atol=1e-9)


def test_start_vector_at_zero_coupling_on_neumann_is_constant():
    # K - b annihilates constants on Neumann: only the shift keeps Lanczos
    # from stopping on a zero image of its constant start
    op = make_op(Boundary.NEUMANN, n=256)
    m_hat = time_average(closed_form(STANDARD_WEIGHT, 1.0), op.grid)
    start = perispec.spectrum._frozen_perron(op, m_hat, 0.0)
    assert start is not None
    np.testing.assert_allclose(start, np.ones(op.n), atol=1e-12)


def test_constant_start_that_is_an_eigenvector_is_the_perron_vector():
    # two cells with a kernel far narrower than the spacing: K = 7.5 I, and the
    # frozen generator of the weight 0.5 is 7 I, whose top is degenerate;
    # Lanczos would restart from a random vector of that eigenspace
    grid = build_grid(Boundary.DIRICHLET, (1.0,), 2)
    op = assemble(make_kernel("parabolic", 0.05), grid)
    assert np.array_equal(op.K, 7.5 * np.eye(2))
    for _ in range(20):
        start = perispec.spectrum._frozen_perron(op, np.full(2, 0.5), 1.0)
        assert start is not None and np.array_equal(start, [1.0, 1.0])


def test_start_vector_solve_forms_no_matrix():
    import tracemalloc

    op = make_op_2d(24)
    m_hat = time_average(closed_form(NONSEPARABLE_2D, 1.0), op.grid)
    perispec.spectrum._frozen_perron(op, m_hat, 1.0)  # imports and caches
    tracemalloc.start()
    try:
        start = perispec.spectrum._frozen_perron(op, m_hat, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert start is not None and start.max() == 1.0 and start.min() >= 0.0
    assert peak < op.K.nbytes / 4


def test_krylov_rejects_a_root_that_is_no_perron_root():
    rng = np.random.default_rng(3)
    positive = rng.uniform(0.5, 1.0, size=(8, 8))
    ratio, v, residual, count = _krylov_perron(lambda u: positive @ u, 8)
    assert ratio == pytest.approx(float(np.abs(np.linalg.eigvals(positive)).max()), rel=1e-12)
    assert residual < 1e-12 and count >= 2
    with pytest.raises(PowerIterationError, match="positive real root"):
        _krylov_perron(lambda u: -(positive @ u), 8)
    rotation = np.eye(8)
    rotation[:2, :2] = [[1.2, -1.6], [1.6, 1.2]]  # top pair 1.2 +- 1.6i
    with pytest.raises(PowerIterationError, match="positive real root"):
        _krylov_perron(lambda u: rotation @ u, 8)
    signed = np.eye(8)
    signed[:2, :2] += [[1.0, -1.0], [-1.0, 1.0]]  # top eigenvector (1, -1, 0, ...)
    with pytest.raises(PowerIterationError, match="negative entry"):
        _krylov_perron(lambda u: signed @ u, 8)


def test_spectrum_point_builds_one_time_lattice_per_use(monkeypatch):
    # one weight summary gives sup|m| for the step count and m_hat for the
    # envelope and the S tests, on the formed map (a non-separable weight at
    # n = 64) and the matrix-free one (a separable weight)
    calls = []
    original = perispec.weights._time_lattice

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(perispec.weights, "_time_lattice", counting)
    for n, expr in [(64, NONSEPARABLE_1D), (64, STANDARD_WEIGHT), (256, STANDARD_WEIGHT)]:
        calls.clear()
        principal_spectrum_point(make_op(Boundary.DIRICHLET, n=n), closed_form(expr, 1.0), 1.0)
        assert len(calls) == 1


# --------------------------------------------------------- zero-weight point

@pytest.mark.parametrize("boundary", [Boundary.NEUMANN, Boundary.PERIODIC])
def test_mass_conserving_zero_point(boundary):
    # constants are equilibria, so the spectrum point at lam = 0 is exactly 0
    op = make_op(boundary)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    rep = principal_spectrum_point(op, w, 0.0)
    assert abs(rep.mu_n) < 1e-10
    assert rep.residual < 1e-10
    np.testing.assert_allclose(rep.eigenfunction, 1.0, atol=1e-9)


def test_dirichlet_zero_point_negative():
    op = make_op(Boundary.DIRICHLET, n=64)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    rep = principal_spectrum_point(op, w, 0.0)
    assert rep.mu_n < -1e-3


# ------------------------------------------------------ two-method agreement

@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0])
def test_lyapunov_route_agrees_with_period_map(boundary, lam):
    # vector periods of the discrete map whose eigenvalues LAPACK computes
    op = make_op(boundary)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    mu_lyap = lyapunov_estimate(op, w, lam, n_periods=400)
    assert abs(lapack_point(op, w, lam).mu_n - mu_lyap) < 1e-6


def test_lyapunov_estimate_iterates_the_formed_map():
    # below 256 nodes Arnoldi applies the formed map; the estimate's vector
    # periods are the same map, applied without forming it
    op = make_op(Boundary.DIRICHLET, n=32)
    w = closed_form(NONSEPARABLE_1D, 1.0)
    rep = principal_spectrum_point(op, w, 1.0)
    mat = period_map(op, w, 1.0).matrix
    u = np.ones(op.n)
    logs = []
    for _ in range(50):
        u = mat @ u
        logs.append(math.log(float(np.abs(u).max())))
        u = u / np.abs(u).max()
    mu_lyap = lyapunov_estimate(op, w, 1.0)
    assert mu_lyap == pytest.approx(float(np.mean(logs[25:])), abs=1e-12)
    assert abs(rep.mu_n - mu_lyap) < 1e-3


def test_lyapunov_validates_inputs():
    op = make_op(Boundary.DIRICHLET, n=8)
    w = closed_form("0", 1.0)
    with pytest.raises(ValueError):
        lyapunov_estimate(op, w, 0.0, n_periods=5)
    with pytest.raises(ValueError):
        lyapunov_estimate(op, w, 0.0, u0=np.ones(3))
    with pytest.raises(ValueError):
        lyapunov_estimate(op, w, 0.0, u0=-np.ones(op.n))
    with pytest.raises(ValueError):
        lyapunov_estimate(op, w, 0.0, u0=np.zeros(op.n))


# --------------------------------------------------------- envelope interval

def test_dirichlet_envelope_at_zero_is_minus_one():
    op = make_op(Boundary.DIRICHLET)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    lo, hi = essential_interval(op, w, 0.0)
    assert lo == -1.0 and hi == -1.0


def test_neumann_envelope_matches_analytic_mass():
    op = make_op(Boundary.NEUMANN, n=64)
    w = closed_form("sin(2*pi*t/T)", 1.0)  # m_hat = 0: envelope is -b
    lo, hi = essential_interval(op, w, 1.0)
    x_edge = op.grid.nodes[0, 0]
    assert hi == pytest.approx(-analytic_parabolic_mass(x_edge), abs=1e-4)
    assert lo == pytest.approx(-analytic_parabolic_mass(0.5), abs=1e-4)


def test_envelope_shifts_with_weight_average():
    op = make_op(Boundary.DIRICHLET)
    w = closed_form("cos(2*pi*x)", 1.0)
    m_hat = time_average(w, op.grid)
    lam = 1.7
    lo, hi = essential_interval(op, w, lam)
    assert lo == pytest.approx(float((-op.b + lam * m_hat).min()), rel=1e-12)
    assert hi == pytest.approx(float((-op.b + lam * m_hat).max()), rel=1e-12)


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
def test_spectrum_point_dominates_envelope(boundary, lam):
    op = make_op(boundary)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    rep = principal_spectrum_point(op, w, lam)
    assert rep.mu_n >= rep.h_hat_max - 1e-8


def test_time_averaging_lower_bound():
    # averaging the weight in time can only lower the spectrum point
    for boundary in Boundary:
        op = make_op(boundary)
        w = closed_form(STANDARD_WEIGHT, 1.0)
        rep = principal_spectrum_point(op, w, 1.5)
        auto = autonomous_spectrum_point(op, time_average(w, op.grid), 1.5)
        assert rep.mu_n >= auto.mu_n - 1e-8


# ----------------------------------------------------- structure in the weight

def test_shift_law_for_spectrum_point():
    op = make_op(Boundary.DIRICHLET)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    lam, c = 1.2, 0.45
    mu = principal_spectrum_point(op, w, lam, n_steps=192).mu_n
    mu_shift = principal_spectrum_point(op, w.shifted(c), lam, n_steps=192).mu_n
    assert mu_shift == pytest.approx(mu + lam * c, abs=1e-9)


def test_monotone_in_the_weight():
    op = make_op(Boundary.NEUMANN)
    base = closed_form(STANDARD_WEIGHT, 1.0)
    bump = closed_form("0.3 * (1 + cos(2*pi*x))", 1.0)  # nonnegative
    mu_lo = principal_spectrum_point(op, base, 1.0, n_steps=192).mu_n
    mu_hi = principal_spectrum_point(op, base + bump, 1.0, n_steps=192).mu_n
    assert mu_hi >= mu_lo - 1e-10


def test_continuity_in_the_weight():
    # a sup-norm perturbation of size eps moves the spectrum point by <= eps
    op = make_op(Boundary.DIRICHLET)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    eps = 0.01
    g = closed_form(f"({eps!r}) * sin(2*pi*x)", 1.0)  # |g| <= eps
    mu = principal_spectrum_point(op, w, 1.0, n_steps=192).mu_n
    mu_pert = principal_spectrum_point(op, w + g, 1.0, n_steps=192).mu_n
    assert abs(mu_pert - mu) <= eps + 1e-8


def test_midpoint_convexity_in_lam():
    op = make_op(Boundary.DIRICHLET)
    w = closed_form(STANDARD_WEIGHT, 1.0)

    def mu(lam):
        return principal_spectrum_point(op, w, lam, n_steps=256).mu_n

    for lo, hi in [(0.0, 1.0), (0.5, 2.0), (1.0, 3.0)]:
        assert mu(0.5 * (lo + hi)) <= 0.5 * (mu(lo) + mu(hi)) + 1e-9


def test_strict_convexity_on_space_dependent_weight():
    op = make_op(Boundary.DIRICHLET)
    w = closed_form("cos(2*pi*x)", 1.0)
    n = 256
    mus = [principal_spectrum_point(op, w, lam, n_steps=n).mu_n
           for lam in (0.0, 1.0, 2.0)]
    assert 0.5 * (mus[0] + mus[2]) - mus[1] > 1e-6


def test_space_independent_weight_is_affine_in_lam():
    # m = a(t): mu(lam) = mu(0) + lam * mean(a), exactly linear
    op = make_op(Boundary.NEUMANN)
    w = closed_form("0.5 + 0.3*sin(2*pi*t/T)", 1.0)
    mus = [principal_spectrum_point(op, w, lam, n_steps=256).mu_n
           for lam in (0.0, 1.0, 2.0)]
    assert mus[0] == pytest.approx(0.0, abs=1e-10)
    assert mus[1] == pytest.approx(0.5, abs=1e-8)
    assert mus[2] == pytest.approx(1.0, abs=1e-8)


# ----------------------------------------------------------- classification

def _report_with(mu, h_max, residual):
    return SpectrumReport(
        mu_n=mu, lam=1.0, eigenfunction=None,
        residual=residual, h_hat_min=h_max - 1.0, h_hat_max=h_max, iterations=10,
        localization_width=0.5,
    )


def test_classifier_branches():
    # clear gap with a converged eigenpair
    assert classify_principal_eigenvalue(_report_with(0.5, 0.0, 1e-12)) == "yes"
    # on the envelope sup, converged or not, and near-ties go to marginal
    # rather than a guess
    assert classify_principal_eigenvalue(_report_with(0.0, 0.0, 1e-4)) == "marginal"
    assert classify_principal_eigenvalue(_report_with(0.0, 0.0, 1e-12)) == "marginal"
    assert classify_principal_eigenvalue(_report_with(0.5, 0.0, 1e-4)) == "marginal"


def test_standard_case_is_eigenvalue():
    op = make_op(Boundary.DIRICHLET, n=64)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    rep = principal_spectrum_point(op, w, 1.0)
    assert rep.is_principal_eigenvalue == "yes"
    assert rep.mu_n > rep.h_hat_max + 1e-3
    assert rep.residual < 1e-8


def test_flat_kernel_cusp_weight_never_certifies_eigenvalue():
    # a nearly flat kernel makes the dispersal coupling ~ 1e-5, so the
    # spectrum point hugs the envelope sup; the cusp forces the discrete
    # eigenfunction to localize at the maximizer, collapsing under refinement
    w = closed_form("-((x - 0.5)**2)**0.25", 1.0)
    reports = []
    for n in (64, 128):
        grid = build_grid(Boundary.DIRICHLET, (1.0,), n)
        op = assemble(make_kernel("parabolic", 1e5), grid)
        reports.append(principal_spectrum_point(op, w, 1.0))
    for rep in reports:
        assert rep.is_principal_eigenvalue != "yes"
        assert abs(rep.mu_n - rep.h_hat_max) < 1e-6 * (1 + abs(rep.mu_n))
    diag = refinement_diagnostics(*reports)
    assert diag["width_fine"] < 0.75 * diag["width_coarse"]


@pytest.mark.parametrize("c", ["0.50005", "0.50002", "0.50001", "0.500005"])
def test_cusp_on_the_envelope_sup_reads_marginal(c, monkeypatch):
    # a cusp slightly off the midpoint between two nodes leaves the two best
    # sites almost tied with no symmetry to separate them; a nearly flat
    # kernel keeps the point on the envelope sup.  The exact route (the cusp
    # alone) and the time-stepped one (plus a slow breathing term), on a
    # formed map and on vector periods, all resolve the tie and give one
    # verdict, with no dense map at 256 nodes
    for n in (64, 128, 256):
        op = assemble(make_kernel("parabolic", 1e5), build_grid(Boundary.DIRICHLET, (1.0,), n))
        for expr in (f"-((x - {c})**2)**0.25",
                     f"-((x - {c})**2)**0.25 + 0.01*x*sin(2*pi*t/T)"):
            w = closed_form(expr, 1.0)
            with monkeypatch.context() as mp:
                if n == 256:
                    forbid_period_map(mp)
                rep = principal_spectrum_point(op, w, 1.0)
            assert (rep.iterations == 0) == summarize(w, op.grid).separable == ("sin" not in expr)
            assert rep.is_principal_eigenvalue == "marginal"
            assert rep.residual < 1e-12
            assert abs(rep.mu_n - rep.h_hat_max) < 1e-6 * (1 + abs(rep.mu_n))


def test_refinement_keeps_width_for_true_eigenfunction():
    w = closed_form(STANDARD_WEIGHT, 1.0)
    reports = [principal_spectrum_point(make_op(Boundary.DIRICHLET, n=n), w, 1.0)
               for n in (32, 64)]
    diag = refinement_diagnostics(*reports)
    assert diag["width_ratio"] > 0.9
    assert diag["gap_coarse"] > 0 and diag["gap_fine"] > 0


def test_localization_width_extremes():
    w = np.full(50, 0.02)  # uniform weights, domain volume 1
    assert localization_width(np.ones(50), w) == pytest.approx(1.0)
    spike = np.zeros(50)
    spike[25] = 1.0
    assert localization_width(spike, w) == pytest.approx(1.0 / 50.0)


# ------------------------------------------------------- sufficiency checks

def test_s1_requires_metadata():
    op = make_op(Boundary.DIRICHLET)
    w = closed_form("-(x - 0.5)**2", 1.0)
    assert check_S_conditions(w, op, 1.0).s1 == "unknown"


def test_s1_accepts_consistent_metadata():
    op = make_op(Boundary.DIRICHLET)
    data = S1Data(smoothness=math.inf, maximizer=(0.5,), flat_order=1)
    w = closed_form("-(x - 0.5)**2", 1.0, s1_data=data)
    assert check_S_conditions(w, op, 1.0).s1 == "yes"


def test_s1_rejects_boundary_maximizer():
    op = make_op(Boundary.DIRICHLET)
    data = S1Data(smoothness=math.inf, maximizer=(0.0,), flat_order=1)
    w = closed_form("-x**2", 1.0, s1_data=data)
    assert check_S_conditions(w, op, 1.0).s1 == "no"


def test_s1_rejects_rough_envelope():
    op = make_op(Boundary.DIRICHLET)
    data = S1Data(smoothness=0, maximizer=(0.5,), flat_order=1)
    w = closed_form("-((x - 0.5)**2)**0.25", 1.0, s1_data=data)
    assert check_S_conditions(w, op, 1.0).s1 == "no"


def test_s1_distrusts_inconsistent_maximizer():
    op = make_op(Boundary.DIRICHLET)
    data = S1Data(smoothness=math.inf, maximizer=(0.2,), flat_order=1)
    w = closed_form("-(x - 0.5)**2", 1.0, s1_data=data)  # actual peak at 0.5
    assert check_S_conditions(w, op, 1.0).s1 == "unknown"


def test_s1_neumann_always_unknown():
    # the envelope maximizer moves with lam through the nonconstant b, so
    # supplied metadata about m_hat alone cannot settle the question
    op = make_op(Boundary.NEUMANN)
    data = S1Data(smoothness=math.inf, maximizer=(0.5,), flat_order=1)
    w = closed_form("-(x - 0.5)**2", 1.0, s1_data=data)
    assert check_S_conditions(w, op, 0.0).s1 == "unknown"
    assert check_S_conditions(w, op, 1.0).s1 == "unknown"


def test_s1_zero_and_negative_lam():
    op = make_op(Boundary.DIRICHLET)
    data = S1Data(smoothness=math.inf, maximizer=(0.5,), flat_order=1)
    w = closed_form("-(x - 0.5)**2", 1.0, s1_data=data)
    assert check_S_conditions(w, op, 0.0).s1 == "yes"   # constant envelope
    assert check_S_conditions(w, op, -1.0).s1 == "unknown"


def test_s2_oscillation_bound():
    op = make_op(Boundary.DIRICHLET)
    w = closed_form("cos(2*pi*x)", 1.0)
    spread = float(np.ptp(time_average(w, op.grid)))
    sc_small = check_S_conditions(w, op, 0.9 / spread)
    assert sc_small.s2 == "yes"
    assert sc_small.s2_lhs == pytest.approx(0.9)
    assert sc_small.s2_rhs == 1.0  # Dirichlet: b = 1
    sc_large = check_S_conditions(w, op, 1.1 / spread)
    assert sc_large.s2 == "no"


def test_s3_contact_exponents():
    op = make_op(Boundary.DIRICHLET, n=65)  # odd: the peak lands on a node
    quad = check_S_conditions(closed_form("-(x - 0.5)**2", 1.0), op, 1.0)
    assert quad.s3 == "yes" and quad.s3_exponent == pytest.approx(2.0, abs=0.2)
    cusp = check_S_conditions(closed_form("-((x - 0.5)**2)**0.25", 1.0), op, 1.0)
    assert cusp.s3 == "no" and cusp.s3_exponent == pytest.approx(0.5, abs=0.2)
    kink = check_S_conditions(closed_form("-((x - 0.5)**2)**0.5", 1.0), op, 1.0)
    assert kink.s3 == "yes" and kink.s3_exponent == pytest.approx(1.0, abs=0.1)


def test_s3_off_grid_peak_still_resolved():
    op = make_op(Boundary.DIRICHLET, n=64)  # peak falls between nodes
    quad = check_S_conditions(closed_form("-(x - 0.5)**2", 1.0), op, 1.0)
    assert quad.s3 == "yes" and quad.s3_exponent == pytest.approx(2.0, abs=0.2)
    cusp = check_S_conditions(closed_form("-((x - 0.5)**2)**0.25", 1.0), op, 1.0)
    assert cusp.s3 == "no"


def test_s3_flat_envelope_divergent():
    op = make_op(Boundary.DIRICHLET)
    sc = check_S_conditions(closed_form("sin(2*pi*t/T)", 1.0), op, 1.0)
    assert sc.s3 == "yes" and math.isinf(sc.s3_exponent)


def test_s3_two_dimensional_quadratic_cap():
    grid = build_grid(Boundary.DIRICHLET, (1.0, 1.0), 17)
    op = assemble(make_kernel("parabolic", 1.0, dim=2), grid)
    w = closed_form("-(x - 0.5)**2 - (y - 0.5)**2", 1.0)
    sc = check_S_conditions(w, op, 1.0)
    assert sc.s3 == "yes" and sc.s3_exponent == pytest.approx(2.0, abs=0.3)


def test_any_holds_property():
    op = make_op(Boundary.DIRICHLET)
    sc = check_S_conditions(closed_form("cos(2*pi*x)", 1.0), op, 0.1)
    assert sc.any_holds  # S2 certainly holds at tiny lam
    assert check_S_conditions(closed_form("-((x - 0.5)**2)**0.25", 1.0),
                              make_op(Boundary.NEUMANN), 5.0).s3 == "no"


# ----------------------------------------------------------- failure paths

@pytest.mark.parametrize("n", [2, 4])
def test_krylov_rejects_a_zero_map(n):
    # LAPACK's zero root below 3 nodes; ARPACK stops on the zero image above
    with pytest.raises(PowerIterationError):
        _krylov_perron(np.zeros_like, n)


def test_report_bookkeeping():
    op = make_op(Boundary.DIRICHLET, n=16)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    rep = principal_spectrum_point(op, w, 0.8)
    assert rep.lam == 0.8
    assert rep.iterations == 0  # a separable weight: the exact route
    assert float(rep.eigenfunction.max()) == pytest.approx(1.0)
    assert np.all(rep.eigenfunction >= 0.0)
