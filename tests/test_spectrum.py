"""Principal spectrum points: oracles, envelope bounds, and classification."""

import dataclasses
import functools
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

import perispec.evolution
import perispec.kpp
import perispec.operator
import perispec.spectrum
import perispec.weighted_solver
import perispec.weights
from perispec.evolution import default_n_steps, period_map
from perispec.geometry import Boundary, build_grid, make_kernel, wrap_kernel
from perispec.operator import Problem, assemble
from perispec.spectrum import (
    LADDER_MIN_STEPS,
    TIME_TOL,
    TOL_EIG,
    PowerIterationError,
    SpectrumReport,
    _krylov_perron,
    _residual,
    autonomous_spectrum_point,
    check_S_conditions,
    localization_width,
    principal_spectrum_point,
    refinement_diagnostics,
)
from perispec.weighted_solver import solve_lambda_p
from perispec.weights import S1Data, closed_form, summarize, sup_abs, time_average

from oracles import lyapunov_estimate, sample_closed_form


def make_op(boundary, n=32, r=1.0):
    grid = build_grid(boundary, (1.0,), n)
    if boundary is Boundary.PERIODIC:
        return assemble(wrap_kernel(make_kernel("parabolic", r), [1.0]), grid)
    return assemble(make_kernel("parabolic", r), grid)


def make_op_2d(n_per_axis):
    grid = build_grid(Boundary.NEUMANN, (1.0, 1.0), n_per_axis)
    return assemble(make_kernel("parabolic", 0.5, dim=2), grid)


def forbid_period_map(monkeypatch):
    """Refuse the dense period map in ``evolution``, and under its name in
    ``spectrum`` and ``kpp`` should either bind it."""
    def refuse(*args, **kwargs):
        raise AssertionError("the dense period map was built")
    for module in (perispec.evolution, perispec.spectrum, perispec.kpp):
        monkeypatch.setattr(module, "period_map", refuse, raising=False)


def forbid_vector_periods(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a vector period was integrated")
    monkeypatch.setattr(perispec.spectrum, "period_action", refuse)


def forbid_time_stepping(monkeypatch):
    forbid_period_map(monkeypatch)
    forbid_vector_periods(monkeypatch)


def record_vector_periods(monkeypatch):
    """The step count of every ``period_action`` that ``spectrum`` builds from here on."""
    steps = []
    original = perispec.spectrum.period_action

    def recording(op, weight, lam, n_steps=None):
        steps.append(n_steps)
        return original(op, weight, lam, n_steps)
    monkeypatch.setattr(perispec.spectrum, "period_action", recording)
    return steps


def record_krylov(monkeypatch):
    """The ``(start, Perron vector)`` of every ``_krylov_perron`` solve from here on."""
    solves = []
    original = perispec.spectrum._krylov_perron

    def recording(apply, n, start=None):
        result = original(apply, n, start)
        solves.append((start, result[1]))
        return result
    monkeypatch.setattr(perispec.spectrum, "_krylov_perron", recording)
    return solves


def assert_chained(solves):
    """Each level after the first starts from the Perron vector of the one below."""
    for (_, below), (start, _) in zip(solves, solves[1:]):
        assert start is below


def lapack_root(op, w, lam, n_steps=None):
    """LAPACK's eigenpair of largest modulus of ``period_map`` at ``n_steps``:
    ``(rho, phi, residual)``, with ``phi`` scaled to sup 1 and the residual
    relative to ``rho``."""
    mat = period_map(op, w, lam, n_steps=n_steps).matrix
    vals, vecs = np.linalg.eig(mat)
    top = int(np.argmax(np.abs(vals)))
    rho, phi = float(vals[top].real), vecs[:, top].real
    phi = phi / phi[np.argmax(np.abs(phi))]
    return rho, phi, float(np.abs(mat @ phi - rho * phi).max()) / rho


def lapack_point(op, w, lam, n_steps, two_level_vector=False):
    """The report of LAPACK's eigenpairs of the period maps at ``n_steps``
    and half as many: an oracle, independent of Arnoldi, for the Perron solves
    of the same maps.  ``mu`` is the two-level value, the eigenfunction and
    residual the finer map's; with ``two_level_vector`` the eigenfunction is
    the two-level value too, to compare with an exact one."""
    rho_c, phi_c, _ = lapack_root(op, w, lam, n_steps // 2)
    rho, phi, residual = lapack_root(op, w, lam, n_steps)
    if two_level_vector:
        phi = (4.0 * phi - phi_c) / 3.0
    h = -op.b + lam * time_average(w, op.grid)
    mu = (4.0 * math.log(rho) - math.log(rho_c)) / (3.0 * w.period)
    return perispec.spectrum._report(op, lam, h, mu, phi, residual, 0)


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


def assert_same_report(rep, other):
    for field in dataclasses.fields(SpectrumReport):
        mine, theirs = getattr(rep, field.name), getattr(other, field.name)
        assert np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else (
            mine == theirs), field.name


STANDARD_WEIGHT = "sin(2*pi*t/T) + cos(2*pi*x) - 0.2"
NONSEPARABLE_1D = "cos(2*pi*x)*(1 + sin(2*pi*t/T)) - 0.2 + sin(2*pi*t/T)"
# m1(x) + m2(t): the period map is the time-averaged generator's flow times a
# scalar, so the spectrum point is that generator's, with no time stepping
SEPARABLE_2D = "cos(2*pi*x)*cos(pi*y) - 0.2 + sin(2*pi*t/T)"
NONSEPARABLE_2D = "cos(2*pi*x)*cos(pi*y)*(1 + sin(2*pi*t/T)) - 0.2 + sin(2*pi*t/T)"


def analytic_parabolic_mass(x, r=1.0):
    def g(s):
        s = min(s, r)
        return 3.0 / (4.0 * r) * (s - s ** 3 / (3.0 * r * r))
    return g(1.0 - x) + g(x)


# ------------------------------------------------------------ dense oracles

@pytest.mark.parametrize("boundary", list(Boundary))
def test_power_iteration_matches_dense_eigensolver(boundary):
    # Arnoldi on a non-separable weight's vector periods finds LAPACK's
    # eigenpair of the formed map
    op = make_op(boundary, n=16)
    w = closed_form(NONSEPARABLE_1D, 1.0)
    rep = principal_spectrum_point(op, w, 1.0)
    assert_matches_the_oracle(rep, lapack_point(op, w, 1.0, rep.n_steps), 1e-10, 1e-9)
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
    # the two-level value of the 128- and 256-step maps
    op = make_op(Boundary.PERIODIC, n=12)
    w = closed_form("cos(2*pi*x)", 1.0)
    pm = (4.0 * period_map(op, w, 0.7, n_steps=256).matrix
          - period_map(op, w, 0.7, n_steps=128).matrix) / 3.0
    gen = op.K - np.diag(op.b) + 0.7 * np.diag(w.evaluate(0.0, op.grid))
    np.testing.assert_allclose(pm, scipy.linalg.expm(gen), atol=1e-8)


# ------------------------------------------------------ independent reference

def monodromy_mu(op, w, lam):
    """``ln rho(Phi(T)) / T`` from the monodromy matrix that scipy's DOP853
    integrates at rtol = atol = 1e-12: no code shared with the stepper."""
    A = op.K - np.diag(op.b)

    def rhs(t, y):
        U = y.reshape(op.n, op.n)
        return (A @ U + (lam * w.evaluate(t, op.grid))[:, None] * U).ravel()
    sol = solve_ivp(rhs, (0.0, w.period), np.eye(op.n).ravel(), method="DOP853",
                    rtol=1e-12, atol=1e-12)
    M = sol.y[:, -1].reshape(op.n, op.n)
    return math.log(float(np.abs(np.linalg.eigvals(M)).max())) / w.period


TRAVELLING_WAVE = "cos(2*pi*(x - t/T)) - 0.2 + 0.5*sin(2*pi*t/T)"
DIRICHLET_NONSEPARABLE = "cos(2*pi*x)*(1 + sin(2*pi*t/T)) - 0.2 + 0.5*sin(2*pi*t/T)"

# the two-level mu at the step count of default_n_steps (196 on the
# travelling wave, 64 on the others) against the monodromy matrix; each tolerance sits above the measured error and at or below the error of
# the RK4 stepper this package used before (DOP853 moves by at most 2.5e-11
# between rtol 1e-12 and 1e-13 on these cases)
REFERENCE_CASES = [
    # near the n = 64 root 13.7738; measured 3.0e-9, RK4 at 196 steps 7.5e-7
    pytest.param(Boundary.PERIODIC, (1.0,), 0.5, TRAVELLING_WAVE, 64, 13.77, 1e-8,
                 id="travelling-wave-64"),
    # near the n = 64 root 1.10825; measured 9.5e-11, RK4 at 64 steps 2.6e-9
    pytest.param(Boundary.DIRICHLET, (1.0,), 1.0, DIRICHLET_NONSEPARABLE, 64, 1.108, 2e-10,
                 id="dirichlet-64"),
    # formed exact E below 256 nodes; measured 3.8e-12 and 6.6e-11, RK4 1.2e-10 and 2.8e-7
    pytest.param(Boundary.NEUMANN, (1.0, 1.0), 0.5, NONSEPARABLE_2D, 8, 0.25, 2e-11,
                 id="neumann-8x8-0.25"),
    pytest.param(Boundary.NEUMANN, (1.0, 1.0), 0.5, NONSEPARABLE_2D, 8, 2.0, 2e-10,
                 id="neumann-8x8-2"),
    # the Taylor-2 step from 256 nodes; measured 2.1e-9 and 5.1e-9, RK4 1.3e-10
    # and 3.8e-7: at the small coupling RK4 was closer
    pytest.param(Boundary.NEUMANN, (1.0, 1.0), 0.5, NONSEPARABLE_2D, 16, 0.25, 3e-9,
                 id="neumann-16x16-0.25"),
    pytest.param(Boundary.NEUMANN, (1.0, 1.0), 0.5, NONSEPARABLE_2D, 16, 2.0, 1e-8,
                 id="neumann-16x16-2"),
]


@pytest.mark.parametrize("boundary, box, radius, expr, n, lam, tol", REFERENCE_CASES)
def test_two_level_point_against_the_monodromy_matrix(boundary, box, radius, expr, n, lam,
                                                      tol):
    # at the step count of default_n_steps within the measured tolerance; at
    # the ladder's own step count within its time bar
    op, w = Problem(boundary, box, "parabolic", radius, closed_form(expr, 1.0)).at(n)
    exact = monodromy_mu(op, w, lam)
    rep = principal_spectrum_point(op, w, lam,
                                   n_steps=default_n_steps(w.period, lam, sup_abs(w, op.grid)))
    assert rep.iterations > 0
    assert abs(rep.mu_n - exact) <= tol
    rep = principal_spectrum_point(op, w, lam)
    assert rep.iterations > 0
    assert abs(rep.mu_n - exact) <= rep.time_error


def count_factor_builds(monkeypatch):
    """The step size of every dispersal factor built from here on."""
    sizes = []
    original = perispec.operator._exp_nonnegative

    def counting(B, h):
        sizes.append(h)
        return original(B, h)
    monkeypatch.setattr(perispec.operator, "_exp_nonnegative", counting)
    return sizes


# ------------------------------------------------------------- the time bar

def sampled_sweep_weight(grid):
    """The bench's non-separable 2-D weight as 64 time samples per period."""
    return sample_closed_form(closed_form(NONSEPARABLE_2D, 1.0), grid, 64)


# the travelling wave, the Dirichlet non-separable weight near their roots,
# both on the formed exact E, and the sampled 2-D weight on the Taylor-2 step
BAR_CASES = {
    "travelling-wave-128": (lambda: Problem(Boundary.PERIODIC, (1.0,), "parabolic", 0.5,
                                            closed_form(TRAVELLING_WAVE, 1.0)).at(128), 13.77),
    "dirichlet-128": (lambda: Problem(Boundary.DIRICHLET, (1.0,), "parabolic", 1.0,
                                      closed_form(DIRICHLET_NONSEPARABLE, 1.0)).at(128), 1.108),
    # shifted by 6/64 of the period: from a 4-step coarsest level the bar
    # read 3.8e-9 against an error of 2.4e-8
    "dirichlet-128-shifted": (lambda: Problem(
        Boundary.DIRICHLET, (1.0,), "parabolic", 1.0,
        closed_form(DIRICHLET_NONSEPARABLE.replace("t/T)) - 0.2", "(t + 0.09375)/T)) - 0.2"),
                    1.0)).at(128), 1.108),
    "sampled-24x24-0.25": (lambda: sampled_problem(24), 0.25),
    "sampled-24x24-2": (lambda: sampled_problem(24), 2.0),
}


def sampled_problem(n_per_axis):
    grid = build_grid(Boundary.NEUMANN, (1.0, 1.0), n_per_axis)
    return Problem(Boundary.NEUMANN, (1.0, 1.0), "parabolic", 0.5,
                   sampled_sweep_weight(grid)).at(n_per_axis)


def two_level_values(op, w, lam, steps, start=None):
    """``two(n) = (4 mu_n - mu_{n/2}) / 3`` at each ``n`` of ``steps`` (doubling),
    each level's Arnoldi starting from the vector of the level below."""
    logs = []
    for n in [steps[0] // 2, *steps]:
        apply = perispec.spectrum.period_action(op, w, lam, n)
        ratio, start, _ = perispec.spectrum._krylov_perron(apply, op.n, start)
        logs.append(math.log(ratio))
    return [(4.0 * fine - coarse) / (3.0 * w.period) for coarse, fine in zip(logs, logs[1:])]


@functools.lru_cache(maxsize=None)
def bar_case(case):
    """``(op, w, lam, ladder report, two-level value at 2048 steps)``."""
    make, lam = BAR_CASES[case]
    op, w = make()
    rep = principal_spectrum_point(op, w, lam)
    [reference] = two_level_values(op, w, lam, [2048], rep.eigenfunction)
    return op, w, lam, rep, reference


@pytest.mark.parametrize("case", list(BAR_CASES))
def test_time_bar_covers_the_value_at_2048_steps(case):
    op, w, lam, rep, reference = bar_case(case)
    assert rep.n_steps >= LADDER_MIN_STEPS and 0.0 < rep.time_error <= TIME_TOL
    assert abs(rep.mu_n - reference) <= rep.time_error
    # a caller's step count gets its bar too
    fixed = principal_spectrum_point(op, w, lam, n_steps=2 * rep.n_steps)
    assert fixed.n_steps == 2 * rep.n_steps
    assert abs(fixed.mu_n - reference) <= fixed.time_error


def test_a_callers_small_step_count_gets_a_bar_that_covers():
    # 16 steps would make the coarsest level 4 steps, whose bar read 3.8e-9
    # against an error of 2.4e-8 here; the count is raised to the ladder's
    # first rung
    op, w, lam, _, reference = bar_case("dirichlet-128-shifted")
    rep = principal_spectrum_point(op, w, lam, n_steps=16)
    assert rep.n_steps == LADDER_MIN_STEPS
    assert abs(rep.mu_n - reference) <= rep.time_error


@pytest.mark.parametrize("case, order", [
    ("travelling-wave-128", 4), ("dirichlet-128", 4), ("sampled-24x24-0.25", 3),
])
def test_two_level_error_falls_at_the_order_of_the_bar(case, order):
    # 16x per halving on the exact E, 8x on the Taylor-2 step, whose odd
    # term the symmetric splitting does not cancel
    op, w, lam, rep, reference = bar_case(case)
    assert op.exact_dispersal == (order == 4)
    errors = [abs(two - reference) for two in two_level_values(op, w, lam, [16, 32, 64])]
    observed = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
    assert all(abs(p - order) < 0.5 for p in observed), observed


def test_ladder_stops_at_the_default_step_count_rounded_to_a_power_of_two(monkeypatch):
    # no bar meets a target of 0: the ladder runs to its cap, 196 -> 256 here
    op, w = BAR_CASES["travelling-wave-128"][0]()
    assert default_n_steps(w.period, 13.77, sup_abs(w, op.grid)) == 196
    monkeypatch.setattr(perispec.spectrum, "TIME_TOL", 0.0)
    assert principal_spectrum_point(op, w, 13.77).n_steps == 256


@pytest.mark.parametrize("n_steps, finest", [(1, 32), (66, 68), (64, 64)])
def test_a_callers_step_count_rounds_up_to_a_multiple_of_four(n_steps, finest, monkeypatch):
    # and is raised to LADDER_MIN_STEPS
    op = make_op(Boundary.DIRICHLET, n=16)
    w = closed_form(NONSEPARABLE_1D, 1.0)
    steps = record_vector_periods(monkeypatch)
    rep = principal_spectrum_point(op, w, 1.0, n_steps=n_steps)
    assert rep.n_steps == finest and steps == [finest // 4, finest // 2, finest]


@pytest.mark.parametrize("make, expr", [
    pytest.param(lambda: make_op(Boundary.PERIODIC, n=64, r=0.5), TRAVELLING_WAVE,
                 id="formed-64"),
    pytest.param(lambda: make_op(Boundary.PERIODIC, n=256, r=0.5), TRAVELLING_WAVE,
                 id="arnoldi-256"),
])
def test_a_points_step_count_does_not_depend_on_earlier_couplings(make, expr):
    # alone on a fresh operator, or after couplings that pick other step
    # counts and leave their factors in the operator's cache: the same bits
    w = closed_form(expr, 1.0)
    alone = principal_spectrum_point(make(), w, 6.0)
    op = make()
    others = [principal_spectrum_point(op, w, lam) for lam in (16.0, 0.5, 6.0 * (1 + 1e-9))]
    assert len({rep.n_steps for rep in others + [alone]}) > 1
    again = principal_spectrum_point(op, w, 6.0)
    assert (again.n_steps, again.mu_n, again.time_error) == (
        alone.n_steps, alone.mu_n, alone.time_error)
    np.testing.assert_array_equal(again.eigenfunction, alone.eigenfunction)


def test_verdict_residual_is_relative_to_the_maps_ratio():
    # mu + c for c = -25, 0, 25: the map scales by exp(c T), the relative
    # residual and the verdict do not.  The absolute residual |M phi - r phi|
    # would read below 1e-18 at c = -25, passing any defect, and above
    # TOL_EIG at c = 25 from rounding alone
    op = make_op(Boundary.DIRICHLET, n=64)
    w = closed_form(DIRICHLET_NONSEPARABLE, 1.0)
    reports = {c: principal_spectrum_point(op, w.shifted(c), 1.0) for c in (-25.0, 0.0, 25.0)}
    for c, rep in reports.items():
        assert rep.mu_n == pytest.approx(reports[0.0].mu_n + c, abs=1e-6)
        assert rep.is_principal_eigenvalue == "yes" and rep.residual < 1e-9
    assert reports[-25.0].residual * math.exp(reports[-25.0].mu_n) < 1e-18
    assert reports[25.0].residual * math.exp(reports[25.0].mu_n) > TOL_EIG


def test_residual_sees_a_defect_at_any_scale_of_the_map():
    # a vector 1e-6 off the Perron vector of a positive matrix: the same
    # relative residual whether the map is scaled by exp(-25) or exp(25)
    rng = np.random.default_rng(3)
    positive = rng.uniform(0.5, 1.0, size=(8, 8))
    ratio, v, _ = _krylov_perron(lambda u: positive @ u, 8)
    off = v.copy()
    off[0] += 1e-6
    base = _residual(lambda u: positive @ u, ratio, off)
    assert base > 1e-7
    for c in (-25.0, 25.0):
        scale = math.exp(c)
        assert _residual(lambda u: scale * (positive @ u), scale * ratio, off) == (
            pytest.approx(base, rel=1e-12))


def test_two_spectrum_points_at_one_step_count_build_each_factor_once(monkeypatch):
    # the dispersal factor depends on the step size alone: two couplings
    # that pick the same step count share the factors of all three levels
    sizes = count_factor_builds(monkeypatch)
    op = make_op(Boundary.DIRICHLET, n=64)
    w = closed_form(NONSEPARABLE_1D, 1.0)
    reports = [principal_spectrum_point(op, w, lam) for lam in (0.5, 1.5)]
    assert [rep.n_steps for rep in reports] == [32, 32]
    assert sizes == [1.0 / 8, 1.0 / 16, 1.0 / 32]


def test_root_search_at_one_step_count_builds_each_factor_once(monkeypatch):
    # every coupling of the Dirichlet non-separable root search picks 32 steps
    sizes = count_factor_builds(monkeypatch)
    reports = []
    original = perispec.weighted_solver.principal_spectrum_point

    def recording(*args):
        reports.append(original(*args))
        return reports[-1]
    monkeypatch.setattr(perispec.weighted_solver, "principal_spectrum_point", recording)
    op, w = Problem(Boundary.DIRICHLET, (1.0,), "parabolic", 1.0,
                    closed_form(DIRICHLET_NONSEPARABLE, 1.0)).at(64)
    res = solve_lambda_p(op, w)
    assert res.status == "unique_root"
    stepped = [rep for rep in reports if rep.lam != 0.0]
    assert len(stepped) > 5 and {rep.n_steps for rep in stepped} == {32}
    assert sizes == [1.0 / 8, 1.0 / 16, 1.0 / 32]


def test_travelling_wave_root_search_builds_each_factor_once(monkeypatch):
    # its couplings climb the ladder to 64 or 128 steps, touching 5 step
    # sizes in turn; a cache of three factors rebuilt them on every coupling
    # (37 builds)
    sizes = count_factor_builds(monkeypatch)
    reports = []
    original = perispec.weighted_solver.principal_spectrum_point

    def recording(*args):
        reports.append(original(*args))
        return reports[-1]
    monkeypatch.setattr(perispec.weighted_solver, "principal_spectrum_point", recording)
    op, w = BAR_CASES["travelling-wave-128"][0]()
    res = solve_lambda_p(op, w)
    assert res.status == "unique_root"
    assert max(rep.n_steps for rep in reports) == 128
    assert sorted(sizes, reverse=True) == [1.0 / k for k in (8, 16, 32, 64, 128)]


# ----------------------------------------- matrix-free exact and Arnoldi routes

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
        # lam = 0 takes the exact route, against the maps at 64 steps
        oracle = lapack_point(op, w, lam, krylov.n_steps or 64)
        assert_matches_the_oracle(krylov, oracle, 1e-9, 1e-7)
        assert krylov.residual < 1e-10


# a weight m1(x) + m2(t) takes the exact route at every grid size; the split
# maps' two-level values tend to it as the step count grows
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
            oracle = lapack_point(op, w, lam, n_steps=512, two_level_vector=True)
            assert_matches_the_oracle(rep, oracle, 1e-9, 1e-9)


def test_failed_frozen_solve_below_the_crossover_takes_the_dense_route(monkeypatch):
    # the name keeps the route this grid once took, a formed ("dense") map
    # below 192 nodes.  Now vector periods, one action per level: the
    # coarsest level's Arnoldi from the constant field, each finer one from
    # the vector below
    op = make_op(Boundary.DIRICHLET, n=64)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    solves = record_krylov(monkeypatch)
    monkeypatch.setattr(perispec.spectrum, "_frozen_perron", lambda *args: None)
    forbid_period_map(monkeypatch)
    steps = record_vector_periods(monkeypatch)
    rep = principal_spectrum_point(op, w, 1.0)
    assert len(solves) >= 3 and solves[0][0] is None
    assert steps == [rep.n_steps >> (len(solves) - 1 - k) for k in range(len(solves))]
    assert_chained(solves)
    assert rep.iterations > 4
    assert_matches_the_oracle(rep, lapack_point(op, w, 1.0, rep.n_steps), 1e-10, 1e-9)


def test_failed_frozen_solve_at_the_crossover_takes_arnoldi_from_the_constant_field(
        monkeypatch):
    op = make_op(Boundary.DIRICHLET, n=256)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    exact = principal_spectrum_point(op, w, 1.0)
    solves = record_krylov(monkeypatch)
    monkeypatch.setattr(perispec.spectrum, "_frozen_perron", lambda *args: None)
    forbid_period_map(monkeypatch)
    # 512 steps: the finest map's Perron vector is a second-order splitting
    # error from the exact one (4.4e-6 at 64 steps)
    rep = principal_spectrum_point(op, w, 1.0, n_steps=512)
    # the coarsest level from the constant field, each finer one from the
    # vector below
    assert len(solves) == 3 and solves[0][0] is None and rep.iterations > 4
    assert_chained(solves)
    # the split maps' two-level value, a time-stepping error away from the exact one
    assert rep.mu_n == pytest.approx(exact.mu_n, abs=1e-8)
    assert rep.residual < 1e-10
    np.testing.assert_allclose(rep.eigenfunction, exact.eigenfunction, atol=1e-7)


# every route builds its report whole: the verdict is read from its fields,
# so a copy with another residual cannot keep a stale one.  The "formed-*"
# ids here and below name grids below 192 nodes, where the map was once
# formed; every grid now applies it to vectors
ROUTE_CASES = [
    pytest.param(32, NONSEPARABLE_1D, id="formed-32"),
    pytest.param(64, STANDARD_WEIGHT, id="exact-separable"),
    pytest.param(256, NONSEPARABLE_1D, id="arnoldi-256"),
]


@pytest.mark.parametrize("n, expr", ROUTE_CASES)
def test_every_route_carries_its_own_verdict(n, expr, monkeypatch):
    # no route forms the period map, on a grid of any size
    op = make_op(Boundary.DIRICHLET, n=n)
    w = closed_form(expr, 1.0)
    forbid_period_map(monkeypatch)
    rep = principal_spectrum_point(op, w, 1.0)
    assert (rep.iterations == 0) == (expr == STANDARD_WEIGHT)
    assert rep.is_principal_eigenvalue == "yes"
    unconverged = dataclasses.replace(rep, residual=1.0)
    assert unconverged.is_principal_eigenvalue == "marginal"


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
    # Lanczos and the vector periods' Taylor-2 steps apply K through the
    # factored stencil, so an operator without K gives the same report
    op = make_op_2d(16)
    w = closed_form(NONSEPARABLE_2D, 1.0)
    forbid_period_map(monkeypatch)
    bare = dataclasses.replace(op, K=None)
    for lam in (0.5, 2.0):
        assert_same_report(principal_spectrum_point(op, w, lam),
                           principal_spectrum_point(bare, w, lam))


def test_lyapunov_estimate_at_krylov_size_builds_no_matrix(monkeypatch):
    op = make_op(Boundary.DIRICHLET, n=256)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    forbid_period_map(monkeypatch)
    rep = principal_spectrum_point(op, w, 1.0)
    assert abs(rep.mu_n - lyapunov_estimate(op, w, 1.0)) < 1e-3


def test_krylov_nonconvergence_is_a_power_iteration_error():
    # the cyclic shift on 256 nodes has all its eigenvalues on the unit
    # circle: no Ritz value dominates, so no estimate reaches ARNOLDI_TOL in
    # ARNOLDI_RESTARTS restarts of a basis of ARNOLDI_BASIS < 256 vectors
    count = 0

    def shift(u):
        nonlocal count
        count += 1
        return np.roll(u, 1)
    with pytest.raises(PowerIterationError, match="Arnoldi did not converge") as info:
        _krylov_perron(shift, 256, np.arange(1.0, 257.0))
    basis = perispec.spectrum.ARNOLDI_BASIS
    assert f"in {count} applications" in str(info.value)
    assert basis < count <= (perispec.spectrum.ARNOLDI_RESTARTS + 1) * basis


def test_krylov_restarts_keep_enough_to_converge():
    # on 64 nodes the same shift's Perron pair (1, ones) is resolved only
    # after restarts: the Krylov-Schur restart keeps the leading Schur
    # vectors, so the basis keeps growing towards the whole space
    count = 0

    def shift(u):
        nonlocal count
        count += 1
        return np.roll(u, 1)
    ratio, v, applications = _krylov_perron(shift, 64, np.arange(1.0, 65.0))
    assert applications == count > perispec.spectrum.ARNOLDI_BASIS
    assert ratio == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(v, np.ones(64), atol=1e-8)
    assert _residual(lambda u: np.roll(u, 1), ratio, v) < 1e-8


def test_krylov_resolves_a_perron_vectors_entries_near_zero(monkeypatch):
    # at lam 2 on a kernel of radius 0.05 the Perron vector falls to 7e-13
    # far from the weight's peak.  At the Ritz estimate of ARNOLDI_TOL the
    # vector there is still -1.5e-11, below -CLAMP_TOL; Arnoldi goes on
    # towards ARNOLDI_FLOOR, one more application, and resolves it
    op, w = Problem(Boundary.NEUMANN, (1.0,), "parabolic", 0.05, closed_form(
        "cos(2*pi*x)*(1 + sin(2*pi*t)) - 0.2 + sin(2*pi*t)", 1.0)).at(256)
    apply = perispec.spectrum.period_action(op, w, 2.0, 8)
    ratio, v, count = _krylov_perron(apply, op.n)
    assert count < 25 and 0.0 < v.min() < 1e-12
    assert _residual(apply, ratio, v) < 1e-10
    monkeypatch.setattr(perispec.spectrum, "ARNOLDI_FLOOR", perispec.spectrum.ARNOLDI_TOL)
    with pytest.raises(PowerIterationError, match="negative entry"):
        _krylov_perron(apply, op.n)


def test_krylov_stops_once_a_separated_root_has_converged():
    # the all-ones block plus a small positive part: |lambda_2 / lambda_1| is
    # 0.0038, and the Ritz estimate falls below ARNOLDI_TOL at the least basis
    # of ARNOLDI_MIN_BASIS = 8 vectors.  ARPACK filled its 20-vector basis
    # first and took 21 applications
    rng = np.random.default_rng(5)
    mat = np.ones((50, 50)) + 0.1 * rng.uniform(0.0, 1.0, size=(50, 50))
    ratio, v, count = _krylov_perron(lambda u: mat @ u, 50)
    assert count < 10
    assert ratio == pytest.approx(float(np.abs(np.linalg.eigvals(mat)).max()), rel=1e-12)
    assert _residual(lambda u: mat @ u, ratio, v) < 1e-12


def test_krylov_breakdown_continues_from_a_seeded_direction():
    # a signed eigenvector of the spiked map closes the basis at once; the
    # solve goes on from a direction drawn by a generator seeded inside the
    # call, so it finds the Perron pair, and two calls give the same bits
    spiked = np.ones((16, 16)) + np.eye(16)  # Perron pair (17, ones); 1 on its complement
    signed = np.zeros(16)
    signed[:2] = [1.0, -1.0]
    first = _krylov_perron(lambda u: spiked @ u, 16, signed)
    again = _krylov_perron(lambda u: spiked @ u, 16, signed)
    assert first[0] == pytest.approx(17.0, rel=1e-12)
    np.testing.assert_allclose(first[1], np.ones(16), atol=1e-12)
    assert first[0] == again[0] and first[2] == again[2]
    np.testing.assert_array_equal(first[1], again[1])


def test_krylov_from_a_start_finds_the_perron_vector():
    rng = np.random.default_rng(3)
    positive = rng.uniform(0.5, 1.0, size=(8, 8))
    vals, vecs = np.linalg.eig(positive)
    top = int(np.argmax(vals.real))
    perron = vecs[:, top].real / vecs[np.argmax(np.abs(vecs[:, top])), top].real
    # a start near the Perron vector
    perturbed = perron.copy()
    perturbed[0] += 1e-6
    ratio, v, count = _krylov_perron(lambda u: positive @ u, 8, perturbed)
    assert count > 2
    assert ratio == pytest.approx(vals[top].real, rel=1e-12)
    assert _residual(lambda u: positive @ u, ratio, v) < 1e-12
    np.testing.assert_allclose(v, perron, atol=1e-12)
    # an exact eigenvector with zero residual, but signed: not the Perron vector
    spiked = np.ones((8, 8)) + np.eye(8)  # Perron pair (9, ones); 1 on its complement
    signed = np.zeros(8)
    signed[:2] = [1.0, -1.0]
    assert np.array_equal(spiked @ signed, signed)
    ratio, v, count = _krylov_perron(lambda u: spiked @ u, 8, signed)
    assert count > 2
    assert ratio == pytest.approx(9.0, rel=1e-12)
    assert _residual(lambda u: spiked @ u, ratio, v) < 1e-12
    np.testing.assert_allclose(v, np.ones(8), atol=1e-12)


@pytest.mark.parametrize("error", [
    ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((256, 0))),
    ArpackError(-9),
], ids=["no-convergence", "arpack-error"])
def test_failed_start_vector_solve_gives_the_same_point(error, monkeypatch):
    # without the frozen start, the coarsest level's Arnoldi runs from the
    # constant field; each finer level starts from the vector below
    import scipy.sparse.linalg

    op = make_op(Boundary.DIRICHLET, n=256)
    w = closed_form(NONSEPARABLE_1D, 1.0)
    with monkeypatch.context() as mp:
        solves = record_krylov(mp)
        started = principal_spectrum_point(op, w, 1.0)
    assert len(solves) >= 3 and solves[0][0] is not None
    assert_chained(solves)

    def fails(*args, **kwargs):
        raise error
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fails)
    forbid_period_map(monkeypatch)
    assert perispec.spectrum._frozen_perron(op, time_average(w, op.grid), 1.0) is None
    solves = record_krylov(monkeypatch)
    rep = principal_spectrum_point(op, w, 1.0)
    assert len(solves) >= 3 and solves[0][0] is None
    assert_chained(solves)
    assert rep.n_steps == started.n_steps
    assert rep.mu_n == pytest.approx(started.mu_n, abs=1e-12)
    assert rep.residual < 1e-10
    np.testing.assert_allclose(rep.eigenfunction, started.eigenfunction, atol=1e-9)


def cold_finer_level(monkeypatch):
    """Start each finer level's Arnoldi where the coarsest level started, not
    from the Perron vector of the level below."""
    starts = []
    original = perispec.spectrum._krylov_perron

    def cold(apply, n, start=None):
        if starts:
            start = starts[0]
        starts.append(start)
        return original(apply, n, start)
    monkeypatch.setattr(perispec.spectrum, "_krylov_perron", cold)


# the bench's 2-D grid, and a 1-D grid where the frozen start comes from Lanczos
WARM_START_CASES = [
    pytest.param(lambda: make_op_2d(24), NONSEPARABLE_2D, (0.25, 0.5, 1.0, 2.0),
                 id="neumann-24x24"),
    pytest.param(lambda: make_op(Boundary.DIRICHLET, n=256), NONSEPARABLE_1D, (0.5, 2.0),
                 id="dirichlet-256"),
]


@pytest.mark.parametrize("make, expr, lams", WARM_START_CASES)
def test_finer_level_starts_from_the_coarser_levels_perron_vector(make, expr, lams,
                                                                 monkeypatch):
    # the coarsest level starts from the frozen generator's Perron vector and
    # each finer one from the vector below: the same point as cold starts
    # of the finer levels, in no more map applications
    op = make()
    w = closed_form(expr, 1.0)
    forbid_period_map(monkeypatch)
    for lam in lams:
        with monkeypatch.context() as mp:
            solves = record_krylov(mp)
            warm = principal_spectrum_point(op, w, lam)
        assert len(solves) >= 3 and solves[0][0] is not None
        assert_chained(solves)
        with monkeypatch.context() as mp:
            cold_finer_level(mp)
            cold = principal_spectrum_point(op, w, lam)
        # Arnoldi stops at ARNOLDI_TOL = 1e-10: measured mu 5.9e-13 apart and
        # residuals up to 9.7e-11 (24x24, lam = 0.5, cold)
        assert warm.mu_n == pytest.approx(cold.mu_n, abs=1e-10)
        assert warm.residual < TOL_EIG and cold.residual < TOL_EIG
        assert warm.is_principal_eigenvalue == cold.is_principal_eigenvalue
        assert warm.iterations <= cold.iterations


def test_finest_residual_stays_well_below_the_verdicts_bound():
    # Arnoldi stops at a Ritz estimate of ARNOLDI_TOL = 1e-10 relative to the
    # root, so the finest level's relative residual stays far below TOL_EIG
    # = 1e-8 and cannot decide the verdict.  ARPACK at its tolerance of 1e-8
    # left 9.6e-10 here
    op = make_op(Boundary.DIRICHLET, n=256)
    rep = principal_spectrum_point(op, closed_form(NONSEPARABLE_1D, 1.0), 2.0)
    assert rep.n_steps >= LADDER_MIN_STEPS
    assert rep.residual <= 1e-10 < TOL_EIG
    assert rep.is_principal_eigenvalue == "yes"


@pytest.mark.parametrize("make, expr", [
    pytest.param(lambda: make_op(Boundary.DIRICHLET, n=64), NONSEPARABLE_1D, id="dirichlet-64"),
    pytest.param(lambda: make_op_2d(8), NONSEPARABLE_2D, id="neumann-8x8"),
])
def test_formed_route_chains_its_levels_from_the_frozen_start(make, expr, monkeypatch):
    # below the crossover, where the map was once formed, the levels apply
    # vector periods, one action per level, and keep the start rule: the
    # coarsest level from the frozen generator's Perron vector, each finer
    # one from the vector below
    op = make()
    w = closed_form(expr, 1.0)
    frozen = perispec.spectrum._frozen_perron(op, time_average(w, op.grid), 1.0)
    assert frozen is not None
    forbid_period_map(monkeypatch)
    steps = record_vector_periods(monkeypatch)
    solves = record_krylov(monkeypatch)
    principal_spectrum_point(op, w, 1.0)
    assert len(solves) >= 3 and len(steps) == len(solves)
    np.testing.assert_array_equal(solves[0][0], frozen)
    assert_chained(solves)


def lanczos_perron(op, m_hat, lam):
    """The frozen generator's Perron vector by Lanczos on vectors, scaled to
    sup 1: the solver ``_frozen_perron`` uses from the crossover on."""
    from scipy.sparse.linalg import LinearOperator, eigsh

    diag = -op.b + lam * m_hat
    diag = diag + (max(0.0, -float(diag.min())) + 1.0)
    gen = LinearOperator((op.n, op.n), matvec=lambda v: op.matvec(v.ravel()) + diag * v.ravel(),
                         dtype=float)
    _, vecs = eigsh(gen, k=1, which="LA", v0=np.ones(op.n), tol=0)
    v = vecs[:, 0]
    return v / v[int(np.argmax(np.abs(v)))]


# below the crossover the frozen generator is solved densely by LAPACK
DENSE_FROZEN_CASES = [
    *(pytest.param(lambda b=boundary, n=n: make_op(b, n=n, r=0.5), STANDARD_WEIGHT,
                   id=f"{boundary.value}-{n}")
      for boundary in Boundary for n in (64, 128)),
    pytest.param(lambda: make_op_2d(12), SEPARABLE_2D, id="neumann-12x12"),
]


@pytest.mark.parametrize("make, expr", DENSE_FROZEN_CASES)
def test_dense_frozen_solve_matches_lanczos(make, expr, monkeypatch):
    # the exact route never calls Lanczos below the crossover, and LAPACK's
    # vector is Lanczos's to 1e-10
    import scipy.sparse.linalg

    op = make()
    assert op.n < perispec.spectrum._KRYLOV_MIN_N
    w = closed_form(expr, 1.0)
    m_hat = time_average(w, op.grid)
    for lam in (0.5, 2.0):
        with monkeypatch.context() as mp:
            def refuse(*args, **kwargs):
                raise AssertionError("Lanczos ran below the crossover")
            mp.setattr(scipy.sparse.linalg, "eigsh", refuse)
            forbid_time_stepping(mp)
            rep = principal_spectrum_point(op, w, lam)
        assert_is_the_frozen_point(rep, op, w, lam)
        np.testing.assert_allclose(rep.eigenfunction, lanczos_perron(op, m_hat, lam),
                                   rtol=0, atol=1e-10)
        auto = autonomous_spectrum_point(op, m_hat, lam)
        assert auto.mu_n == rep.mu_n


def sign_changing_eigh(a, **kwargs):
    return np.ones(1), np.where(np.arange(len(a)) % 2, -0.5, 1.0)[:, None]


def failing_eigh(a, **kwargs):
    raise scipy.linalg.LinAlgError("no convergence")


@pytest.mark.parametrize("eigh", [sign_changing_eigh, failing_eigh],
                         ids=["sign-changing", "lapack-error"])
def test_failed_dense_frozen_solve_takes_the_time_stepped_route(eigh, monkeypatch):
    op = make_op(Boundary.DIRICHLET, n=64)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    exact = principal_spectrum_point(op, w, 1.0)
    monkeypatch.setattr(scipy.linalg, "eigh", eigh)
    assert perispec.spectrum._frozen_perron(op, time_average(w, op.grid), 1.0) is None
    rep = principal_spectrum_point(op, w, 1.0)
    assert rep.iterations > 0 and rep.n_steps >= LADDER_MIN_STEPS
    assert rep.mu_n == pytest.approx(exact.mu_n, abs=rep.time_error + 1e-12)


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


@pytest.mark.parametrize("expr", [
    "cos(2*pi*(x - t/T)) - 0.2",
    "cos(2*pi*(x - 0.0234375 - t/T)) - 0.2 + 0.5*sin(2*pi*t/T + 1.3)",
], ids=["wave", "shifted-wave"])
def test_constant_start_within_rounding_takes_no_solve(expr, monkeypatch):
    # a travelling wave's time average is constant only to rounding: at
    # lam = 13.77 the constant field's image spreads by 3.8 and 6.3 eps of its
    # summands' sizes, inside the n = 128 eps that a row sum of K allows, so
    # no LAPACK solve runs
    op = make_op(Boundary.PERIODIC, n=128, r=0.5)
    m_hat = time_average(closed_form(expr, 1.0), op.grid)
    assert 0.0 < float(m_hat.max() - m_hat.min()) < 1e-14

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK ran on a constant start")
    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    start = perispec.spectrum._frozen_perron(op, m_hat, 13.77)
    assert np.array_equal(start, np.ones(op.n))


@pytest.mark.parametrize("lam", [50.0, 500.0])
@pytest.mark.parametrize("expr", [
    "cos(2*pi*(x - t/T)) - 0.2",
    "cos(2*pi*(x - t/T)) - 0.2 + 0.5*sin(2*pi*t/T + 1.3)",
], ids=["wave", "twin"])
def test_constant_start_test_grows_with_lam(expr, lam, monkeypatch):
    # the rounding of a constant time average enters the image times lam: at
    # n = 64 and lam = 50 the two waves spread by 60 and 88 eps of the image's
    # largest entry, and by 5.0 and 7.3 eps of its summands' sizes
    op = make_op(Boundary.PERIODIC, n=64, r=0.5)
    m_hat = time_average(closed_form(expr, 1.0), op.grid)

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK ran on a constant start")
    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    start = perispec.spectrum._frozen_perron(op, m_hat, lam)
    assert np.array_equal(start, np.ones(op.n))


def test_a_time_average_off_constant_by_1e_12_keeps_its_solve(monkeypatch):
    # a 1e-12 cosine on the wave spreads the image by 3,700 eps of its
    # summands' sizes or more, so each lam takes its LAPACK solve
    op = make_op(Boundary.PERIODIC, n=64, r=0.5)
    m_hat = time_average(closed_form("cos(2*pi*(x - t/T)) - 0.2 + 1e-12*cos(2*pi*x)", 1.0),
                         op.grid)
    calls = []
    original = scipy.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(scipy.linalg, "eigh", counting)
    for lam in (2.0, 50.0, 500.0):
        start = perispec.spectrum._frozen_perron(op, m_hat, lam)
        assert start is not None and start.max() == 1.0
    assert len(calls) == 3


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
    ratio, v, count = _krylov_perron(lambda u: positive @ u, 8)
    assert ratio == pytest.approx(float(np.abs(np.linalg.eigvals(positive)).max()), rel=1e-12)
    assert _residual(lambda u: positive @ u, ratio, v) < 1e-12 and count >= 2
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


def test_krylov_rejects_a_root_that_is_no_perron_root_before_the_whole_space():
    # the same rejections on 64 nodes, where Arnoldi stops long before its
    # basis spans the space.  The rotation and the signed map are the
    # identity off their 2x2 blocks, so every image closes the basis.  The
    # constant start is an eigenvector of the signed map: its first subspace
    # misses the block, and the seeded direction brings it in
    rng = np.random.default_rng(3)
    positive = rng.uniform(0.5, 1.0, size=(64, 64))
    rotation = np.eye(64)
    rotation[:2, :2] = [[1.2, -1.6], [1.6, 1.2]]
    signed = np.eye(64)
    signed[:2, :2] += [[1.0, -1.0], [-1.0, 1.0]]
    for mat, message in ((-positive, "positive real root"), (rotation, "positive real root"),
                         (signed, "negative entry")):
        count = 0

        def apply(u, mat=mat):
            nonlocal count
            count += 1
            return mat @ u
        with pytest.raises(PowerIterationError, match=message):
            _krylov_perron(apply, 64)
        assert count < 16


def test_spectrum_point_builds_one_time_lattice_per_use(monkeypatch):
    # one weight summary gives sup|m| for the step count and m_hat for the
    # envelope and the S tests, on vector periods (a non-separable weight at
    # n = 64) and on the exact route (a separable weight)
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


ZERO_COUPLING_CASES = [
    pytest.param(lambda: make_op(Boundary.DIRICHLET, n=64), NONSEPARABLE_1D, id="formed-64"),
    pytest.param(lambda: make_op(Boundary.NEUMANN, n=256), NONSEPARABLE_1D, id="arnoldi-256"),
    pytest.param(lambda: make_op_2d(16), NONSEPARABLE_2D, id="neumann-16x16"),
]


@pytest.mark.parametrize("make, expr", ZERO_COUPLING_CASES)
def test_zero_coupling_takes_the_exact_route(make, expr, monkeypatch):
    # lam * m = 0 makes every weight separable: no flow is stepped, and the
    # report is the frozen generator's, bit for bit
    op = make()
    w = closed_form(expr, 1.0)
    assert not summarize(w, op.grid).separable
    forbid_time_stepping(monkeypatch)
    rep = principal_spectrum_point(op, w, 0.0)
    assert_same_report(rep, autonomous_spectrum_point(op, time_average(w, op.grid), 0.0))
    assert rep.iterations == 0 and rep.residual < 1e-12


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
    assert abs(math.log(lapack_root(op, w, lam)[0]) / w.period - mu_lyap) < 1e-6


def test_lyapunov_estimate_iterates_the_formed_map():
    # the formed map iterated here, Arnoldi's vector periods and the
    # estimate's are one map
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


# --------------------------------------------------------- envelope interval

def test_dirichlet_envelope_at_zero_is_minus_one():
    op = make_op(Boundary.DIRICHLET)
    w = closed_form(STANDARD_WEIGHT, 1.0)
    rep = principal_spectrum_point(op, w, 0.0)
    assert rep.h_hat_min == -1.0 and rep.h_hat_max == -1.0


def test_neumann_envelope_matches_analytic_mass():
    op = make_op(Boundary.NEUMANN, n=64)
    w = closed_form("sin(2*pi*t/T)", 1.0)  # m_hat = 0: envelope is -b
    rep = principal_spectrum_point(op, w, 1.0)
    x_edge = op.grid.nodes[0, 0]
    assert rep.h_hat_max == pytest.approx(-analytic_parabolic_mass(x_edge), abs=1e-4)
    assert rep.h_hat_min == pytest.approx(-analytic_parabolic_mass(0.5), abs=1e-4)


def test_envelope_shifts_with_weight_average():
    op = make_op(Boundary.DIRICHLET)
    w = closed_form("cos(2*pi*x)", 1.0)
    m_hat = time_average(w, op.grid)
    lam = 1.7
    rep = principal_spectrum_point(op, w, lam)
    assert rep.h_hat_min == pytest.approx(float((-op.b + lam * m_hat).min()), rel=1e-12)
    assert rep.h_hat_max == pytest.approx(float((-op.b + lam * m_hat).max()), rel=1e-12)


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
    assert _report_with(0.5, 0.0, 1e-12).is_principal_eigenvalue == "yes"
    # on the envelope sup, converged or not, and near-ties go to marginal
    # rather than a guess
    assert _report_with(0.0, 0.0, 1e-4).is_principal_eigenvalue == "marginal"
    assert _report_with(0.0, 0.0, 1e-12).is_principal_eigenvalue == "marginal"
    assert _report_with(0.5, 0.0, 1e-4).is_principal_eigenvalue == "marginal"


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
    # alone) and the time-stepped one (plus a slow breathing term), on
    # vector periods, all resolve the tie and give one verdict, with no dense
    # map at 256 nodes
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
            # converged far below TOL_EIG: the verdict is the sup's, not the
            # residual's (Arnoldi stops at ARNOLDI_TOL; 8.6e-12 measured)
            assert rep.residual < 1e-9
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

@pytest.mark.parametrize("n", [2, 4, 16])
def test_krylov_rejects_a_zero_map(n):
    # LAPACK's zero root of the formed map on 2 nodes; from 3 on, every
    # image closes the basis, which goes on from seeded directions to the
    # zero root
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
