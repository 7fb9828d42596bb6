"""End-to-end acceptance suite for the whole package.

Eleven numbered checks, each printing one ``ACCEPTANCE k PASS/FAIL`` verdict
line (visible under ``pytest -s``) before asserting.  Sub-results are gathered
first so the verdict line always appears, even on failure.  Stated runtime
budgets are asserted alongside the numerical tolerances.
"""
import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from perispec.evolution import comparison_check, period_map
from perispec.geometry import Boundary, build_grid, make_kernel, wrap_kernel
from perispec.kpp import Nonlinearity, find_periodic_solution, simulate_kpp
from perispec.operator import assemble
from perispec.spectrum import principal_spectrum_point
from perispec.weighted_solver import solve_lambda_p, upper_bound_lambda_p
from perispec.weights import closed_form

KERNEL = make_kernel("parabolic", 1.0)
BOUNDARIES = (Boundary.DIRICHLET, Boundary.NEUMANN, Boundary.PERIODIC)
STANDARD_WEIGHT = "cos(2*pi*x) - 0.2 + sin(2*pi*t/T)"

# four weight regimes crossed with the three boundary types; the expected
# classification differs between the absorbing and the mass-conserving cases
CASE_WEIGHTS = {
    "holds": STANDARD_WEIGHT,
    "peak_fails": "-0.5 + 0.25*cos(2*pi*x)",
    "integral_fails": "cos(2*pi*x) + 0.2",
    "both_fail": "sin(2*pi*t/T)",
}
EXPECTED_STATUS = {
    Boundary.DIRICHLET: {
        "holds": "unique_root",
        "peak_fails": "no_positive_root",
        "integral_fails": "unique_root",
        "both_fail": "no_positive_root",
    },
    Boundary.NEUMANN: {
        "holds": "unique_root",
        "peak_fails": "no_positive_root",
        "integral_fails": "no_positive_root",
        "both_fail": "all_positive_roots",
    },
    Boundary.PERIODIC: {
        "holds": "unique_root",
        "peak_fails": "no_positive_root",
        "integral_fails": "no_positive_root",
        "both_fail": "all_positive_roots",
    },
}


def _operator(boundary: Boundary, n: int):
    grid = build_grid(boundary, (1.0,), n)
    kernel = wrap_kernel(KERNEL, (1.0,)) if boundary is Boundary.PERIODIC else KERNEL
    return assemble(kernel, grid)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"check {num} failed: {detail}"


@pytest.fixture(scope="module")
def ops64():
    return {b: _operator(b, 64) for b in BOUNDARIES}


@pytest.fixture(scope="module")
def ops32():
    return {b: _operator(b, 32) for b in BOUNDARIES}


@pytest.fixture(scope="module")
def case_suite(ops64):
    """All twelve boundary/weight threshold solves at n=64, with wall time."""
    start = time.monotonic()
    results = {}
    for boundary in BOUNDARIES:
        for case, expr in CASE_WEIGHTS.items():
            weight = closed_form(expr, 1.0)
            results[(boundary, case)] = solve_lambda_p(ops64[boundary], weight)
    return results, time.monotonic() - start


def test_01_zero_coupling_spectrum(ops64):
    start = time.monotonic()
    weight = closed_form(STANDARD_WEIGHT, 1.0)
    failures = []
    for boundary in (Boundary.NEUMANN, Boundary.PERIODIC):
        rep = principal_spectrum_point(ops64[boundary], weight, 0.0)
        ones_gap = float(np.abs(rep.eigenfunction - 1.0).max())
        if abs(rep.mu_n) >= 1e-10:
            failures.append(f"{boundary.value}: mu={rep.mu_n:.3e}")
        if rep.residual >= 1e-10 or ones_gap >= 1e-10:
            failures.append(f"{boundary.value}: resid={rep.residual:.3e} ones={ones_gap:.3e}")
    rep_d = principal_spectrum_point(ops64[Boundary.DIRICHLET], weight, 0.0)
    if not rep_d.mu_n < -1e-3:
        failures.append(f"dirichlet mu={rep_d.mu_n:.3e} not < -1e-3")
    elapsed = time.monotonic() - start
    if elapsed >= 5.0:
        failures.append(f"elapsed {elapsed:.1f}s")
    _verdict(1, not failures,
             f"uncoupled spectrum: mass-conserving mu=0 with constant profile, "
             f"absorbing mu={rep_d.mu_n:.4f}, {elapsed:.2f}s"
             + (f"; {failures}" if failures else ""))


def test_02_time_only_weight_is_affine_in_lam(ops64):
    start = time.monotonic()
    weight = closed_form("0.5 + 0.3*sin(2*pi*t/T)", 1.0)
    mean_value = 0.5
    worst = 0.0
    for boundary in BOUNDARIES:
        mu0 = principal_spectrum_point(ops64[boundary], weight, 0.0, n_steps=256).mu_n
        for lam in (0.5, 1.0, 2.0):
            mu = principal_spectrum_point(ops64[boundary], weight, lam, n_steps=256).mu_n
            worst = max(worst, abs(mu - (mu0 + lam * mean_value)))
    elapsed = time.monotonic() - start
    ok = worst < 1e-6 and elapsed < 30.0
    _verdict(2, ok,
             f"space-independent weight shifts mu affinely: worst |error|={worst:.3e} "
             f"over 3 boundaries x 3 couplings, {elapsed:.2f}s")


def test_03_absorbing_threshold_matches_mean_formula(ops64):
    weight = closed_form("0.6 + 0.4*sin(2*pi*t/T)", 1.0)
    res = solve_lambda_p(ops64[Boundary.DIRICHLET], weight)
    mu0 = principal_spectrum_point(ops64[Boundary.DIRICHLET], weight, 0.0).mu_n
    predicted = -mu0 / 0.6
    rel = abs(res.lambda_p - predicted) / abs(res.lambda_p)
    ok = res.status == "unique_root" and rel < 1e-5
    _verdict(3, ok,
             f"time-only weight: lambda_p={res.lambda_p:.10f} vs -mu(0)/mean="
             f"{predicted:.10f}, rel err={rel:.3e}")


def test_04_twelve_case_classification(case_suite):
    results, elapsed = case_suite
    mismatches = []
    for boundary in BOUNDARIES:
        for case in CASE_WEIGHTS:
            got = results[(boundary, case)].status
            want = EXPECTED_STATUS[boundary][case]
            if got != want:
                mismatches.append(f"{boundary.value}/{case}: {got} != {want}")
    ok = not mismatches and elapsed < 300.0
    _verdict(4, ok,
             f"existence classification {12 - len(mismatches)}/12 correct at n=64, "
             f"{elapsed:.1f}s" + (f"; {mismatches}" if mismatches else ""))


def test_05_time_average_bounds_threshold(ops32):
    start = time.monotonic()
    rng = np.random.default_rng(1234)
    held = 0
    for i in range(10):
        boundary = BOUNDARIES[i % 3]
        c = rng.uniform(0.5, 1.0)
        d = rng.uniform(0.1, 0.4) * c
        e = rng.uniform(0.1, 0.9) * c
        expr = f"({c:.6f} + {e:.6f}*sin(2*pi*t/T))*cos(2*pi*x) - {d:.6f}"
        ub = upper_bound_lambda_p(ops32[boundary], closed_form(expr, 1.0))
        if (ub.bound_holds is True
                and ub.time_dependent.lambda_p <= ub.averaged.lambda_p + 1e-8):
            held += 1
    elapsed = time.monotonic() - start
    _verdict(5, held == 10,
             f"threshold of the averaged weight bounds the oscillating one: "
             f"{held}/10 seeded weights, {elapsed:.1f}s")


def _lapack_top(matrix):
    vals, vecs = np.linalg.eig(matrix)
    top = int(np.argmax(np.abs(vals)))
    return abs(vals[top]), vecs[:, top].real / vecs[np.argmax(np.abs(vecs[:, top])), top].real


def test_06_dense_and_exponential_cross_checks():
    # a non-separable weight on 14 nodes: Arnoldi on vector periods against
    # LAPACK's eigenpairs of the formed maps (the two-level mu of 128 and 256
    # steps, the 256-step eigenvector); a frozen weight's two-level map of 256
    # and 512 steps against the matrix exponential
    weight = closed_form("cos(2*pi*x)*(1 + sin(2*pi*t/T)) - 0.2 + sin(2*pi*t/T)", 1.0)
    frozen = closed_form("cos(2*pi*x)", 1.0)
    worst_mu = 0.0
    worst_vec = 0.0
    worst_col = 0.0
    for boundary in BOUNDARIES:
        op = _operator(boundary, 14)
        rep = principal_spectrum_point(op, weight, 1.3, n_steps=256)
        rho_c, _ = _lapack_top(period_map(op, weight, 1.3, n_steps=128).matrix)
        rho, phi = _lapack_top(period_map(op, weight, 1.3, n_steps=256).matrix)
        worst_mu = max(worst_mu, abs(rep.mu_n - (4.0 * math.log(rho) - math.log(rho_c)) / 3.0))
        worst_vec = max(worst_vec, float(np.abs(rep.eigenfunction - phi).max()))
        m = np.cos(2 * np.pi * op.grid.nodes[:, 0])
        generator = op.K - np.diag(op.b) + 1.3 * np.diag(m)
        pmap_frozen = (4.0 * period_map(op, frozen, 1.3, n_steps=512).matrix
                       - period_map(op, frozen, 1.3, n_steps=256).matrix) / 3.0
        worst_col = max(worst_col, float(np.abs(pmap_frozen - expm(generator)).max()))
    ok = worst_mu < 1e-10 and worst_vec < 1e-9 and worst_col < 1e-8
    _verdict(6, ok,
             f"small grids: Arnoldi vs dense eigensolver |d mu|={worst_mu:.3e}, "
             f"|d phi|={worst_vec:.3e}, "
             f"frozen-weight period map vs matrix exponential {worst_col:.3e}")


def test_07_convexity_and_ordering_in_lam(ops32):
    op = ops32[Boundary.DIRICHLET]
    w_lo = closed_form(STANDARD_WEIGHT, 1.0)
    w_hi = closed_form(STANDARD_WEIGHT + " + 0.15*(1 + cos(2*pi*x))", 1.0)
    lams = np.linspace(0.05, 2.0, 20)
    mus_lo, envelope_slack = [], []
    for lam in lams:
        rep = principal_spectrum_point(op, w_lo, lam, n_steps=256)
        mus_lo.append(rep.mu_n)
        envelope_slack.append(rep.mu_n - rep.h_hat_max)
    mus_hi = [principal_spectrum_point(op, w_hi, lam, n_steps=256).mu_n for lam in lams]
    convexity = min(mus_lo[k - 1] + mus_lo[k + 1] - 2.0 * mus_lo[k]
                    for k in range(1, len(lams) - 1))
    ordering = min(hi - lo for hi, lo in zip(mus_hi, mus_lo))
    envelope = min(envelope_slack)
    rep_mid = principal_spectrum_point(op, w_lo, 1.25, n_steps=256)
    mu_a = principal_spectrum_point(op, w_lo, 0.5, n_steps=256).mu_n
    mu_b = principal_spectrum_point(op, w_lo, 2.0, n_steps=256).mu_n
    strict_gap = 0.5 * (mu_a + mu_b) - rep_mid.mu_n
    ok = (convexity >= -1e-8 and ordering >= -1e-8 and envelope >= -1e-8
          and strict_gap > 1e-6 and rep_mid.is_principal_eigenvalue == "yes")
    _verdict(7, ok,
             f"mu(lam): midpoint convexity slack {convexity:.3e}, weight ordering "
             f"{ordering:.3e}, envelope domination {envelope:.3e}, strict gap "
             f"{strict_gap:.3e} on a certified eigenvalue case")


def test_08_flow_preserves_ordering(ops32):
    op = ops32[Boundary.DIRICHLET]
    weight = closed_form(STANDARD_WEIGHT, 1.0)
    rng = np.random.default_rng(777)
    pairs = []
    for _ in range(100):
        lo = rng.uniform(0.1, 1.0, op.n)
        hi = lo + rng.uniform(0.0, 0.5, op.n)
        pairs.append((lo, hi))
    report = comparison_check(op, [(weight, weight)], pairs, 1.0, lam=1.0, n_steps=128)
    strict = all(p.strictly_ordered for p in report.pairs)
    min_gap = min(p.min_gap for p in report.pairs)
    ok = report.max_violation <= 1e-10 and strict
    _verdict(8, ok,
             f"one period keeps 100 seeded ordered pairs ordered: worst violation "
             f"{report.max_violation:.3e}, all strict (min gap {min_gap:.3e})")


def test_09_persistence_threshold(ops64, case_suite):
    start = time.monotonic()
    results, _ = case_suite
    lam_p = results[(Boundary.DIRICHLET, "holds")].lambda_p
    op = ops64[Boundary.DIRICHLET]
    weight = closed_form(STANDARD_WEIGHT, 1.0)
    nonlin = Nonlinearity("logistic", 1.0)

    orbit = find_periodic_solution(op, weight, nonlin, 1.25 * lam_p, n_steps=None)
    persist_ok = (orbit.verdict == "persistence"
                  and orbit.residual < 1e-9
                  and orbit.fixed_point is not None
                  and float(orbit.fixed_point.min()) > 1e-4
                  and orbit.uniqueness_gap is not None
                  and orbit.uniqueness_gap < 1e-6)

    u = 0.1 * np.ones(op.n)
    hit = None
    for k in range(1, 501):
        u = simulate_kpp(op, weight, nonlin, 0.8 * lam_p, u, 0.0, 1.0).states[-1]
        if float(np.abs(u).max()) < 1e-8:
            hit = k
            break
    elapsed = time.monotonic() - start
    ok = persist_ok and hit is not None and elapsed < 120.0
    _verdict(9, ok,
             f"lambda_p={lam_p:.6f}: above it a positive periodic state "
             f"(residual {orbit.residual:.2e}, min {0.0 if orbit.fixed_point is None else orbit.fixed_point.min():.2e}, "
             f"two starts agree to {orbit.uniqueness_gap:.1e}); below it decay to "
             f"sup<1e-8 at period {hit}; {elapsed:.1f}s")


def test_10_wrapped_kernel_matches_lattice_sum():
    grid = build_grid(Boundary.PERIODIC, (1.0,), 32)
    op = assemble(wrap_kernel(KERNEL, (1.0,)), grid)
    x = grid.nodes[:, 0]
    diff = x[None, :] - x[:, None]
    brute = np.zeros((op.n, op.n))
    for shift in range(-2, 3):
        brute += KERNEL.evaluate((diff + shift)[..., None]) * grid.quad_weights[None, :]
    rng = np.random.default_rng(424242)
    worst = max(float(np.abs(op.K @ u - brute @ u).max())
                for u in rng.standard_normal((100, op.n)))
    _verdict(10, worst <= 1e-12,
             f"cell operator equals the unrolled lattice convolution on 100 random "
             f"fields: worst |difference|={worst:.3e}")


def test_11_threshold_stable_under_refinement(ops32, ops64):
    start = time.monotonic()
    weight = closed_form(STANDARD_WEIGHT, 1.0)
    worst = 0.0
    drifts = {}
    for boundary in BOUNDARIES:
        coarse = solve_lambda_p(ops32[boundary], weight).lambda_p
        fine = solve_lambda_p(ops64[boundary], weight).lambda_p
        rel = abs(fine - coarse) / abs(fine)
        drifts[boundary.value] = rel
        worst = max(worst, rel)
    elapsed = time.monotonic() - start
    _verdict(11, worst < 1e-3,
             f"doubling nodes moves lambda_p by at most {worst:.3e} "
             f"relative ({', '.join(f'{k}: {v:.1e}' for k, v in drifts.items())}), "
             f"{elapsed:.1f}s")
