"""Seeded self-checks of the structural identities the solvers rely on.

Each check exercises one mathematical property on randomized small problems:
conserved kernel mass, annihilation of constants by the mass-conserving
operators, positivity and semigroup structure of the period map, the exact
shift and scaling laws of the spectrum point, domination of the essential
envelope, the time-averaging lower bound, convexity in the coupling, root
residuals of the threshold solver, and agreement between the nonlinear flow
and its linearization at extinction.

The battery is what the command-line ``validate`` task runs; it is also handy
as a smoke test after touching the integrator or the assembly code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import period_map, propagate
from .geometry import Boundary, make_kernel
from .kpp import Nonlinearity, simulate_kpp
from .operator import Problem
from .spectrum import autonomous_spectrum_point, principal_spectrum_point
from .weighted_solver import solve_lambda_p
from .weights import closed_form, summarize

DEFAULT_SEED = 2026


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_weight(rng):
    a = float(rng.uniform(0.3, 0.9))
    b = float(rng.uniform(0.2, 0.6))
    c = float(rng.uniform(-0.3, 0.3))
    return closed_form(f"{a!r} * cos(2 * pi * x) + {b!r} * cos(2 * pi * x) * sin(2 * pi * t)"
                       f" + {c!r}", period=1.0)


def _random_setup(rng, boundary, n=28):
    radius = float(rng.uniform(0.2, 0.4))  # before the weight: a seed's draws keep their order
    return Problem(boundary, (1.0,), "parabolic", radius, _random_weight(rng)).at(n)


def check_kernel_mass(rng) -> tuple[bool, str]:
    worst = 0.0
    for profile in ("parabolic", "cosine", "indicator"):
        r = float(rng.uniform(0.15, 0.8))
        kernel = make_kernel(profile, r)
        n = 4096
        h = 2.0 * r / n
        x = -r + (np.arange(n) + 0.5) * h
        mass = float(kernel.evaluate(x).sum() * h)
        tol = 1e-12 if profile == "indicator" else 1e-4
        worst = max(worst, abs(mass - 1.0) / tol)
    return worst <= 1.0, f"worst scaled mass defect {worst:.3g} (<= 1 required)"


def check_constant_annihilation(rng) -> tuple[bool, str]:
    # the 2-D grids, which apply K through its factored stencil, take a fixed
    # radius and draw nothing from the random stream
    ops = [_random_setup(rng, boundary)[0] for boundary in (Boundary.NEUMANN, Boundary.PERIODIC)]
    ops += [Problem(boundary, (1.0, 1.0), "parabolic", 0.5, closed_form("0", 1.0)).at(24)[0]
            for boundary in (Boundary.NEUMANN, Boundary.PERIODIC)]
    worst = 0.0
    for op in ops:
        ones = np.ones(op.n)
        worst = max(worst, float(np.abs(op.matvec(ones) - op.b).max()))
    return worst < 1e-13, f"max |(K - b) 1| = {worst:.3e}"


def check_flow_positivity(rng) -> tuple[bool, str]:
    op, weight = _random_setup(rng, Boundary.DIRICHLET)
    pmap = period_map(op, weight, lam=float(rng.uniform(0.0, 2.0)), n_steps=128)
    low = float(pmap.matrix.min())
    return low >= 0.0, f"smallest period-map entry {low:.3e}"


def check_two_period_consistency(rng) -> tuple[bool, str]:
    op, weight = _random_setup(rng, Boundary.NEUMANN)
    lam = float(rng.uniform(0.0, 1.5))
    pmap = period_map(op, weight, lam=lam, n_steps=96)
    square = pmap.matrix @ pmap.matrix
    eye = np.eye(op.n)
    cols = [propagate(op, weight, lam, eye[:, j], 0.0, 2.0 * weight.period,
                      n_steps=192, record_every=192).final for j in range(op.n)]
    two = np.column_stack(cols)
    gap = float(np.abs(two - square).max() / max(np.abs(square).max(), 1e-300))
    return gap < 1e-9, f"relative gap between two periods and the squared map {gap:.3e}"


def check_shift_law(rng) -> tuple[bool, str]:
    op, weight = _random_setup(rng, Boundary.DIRICHLET)
    lam = float(rng.uniform(0.5, 2.0))
    c = float(rng.uniform(-0.4, 0.4))
    base = principal_spectrum_point(op, weight, lam, n_steps=256).mu_n
    shifted = principal_spectrum_point(op, weight.shifted(c), lam, n_steps=256).mu_n
    gap = abs(shifted - (base + lam * c))
    return gap < 1e-8, f"|mu(m + c) - mu(m) - lam c| = {gap:.3e}"


def check_weight_monotonicity(rng) -> tuple[bool, str]:
    op, weight = _random_setup(rng, Boundary.PERIODIC)
    bump = float(rng.uniform(0.05, 0.3))
    bigger = weight + closed_form(f"{bump!r} * (1 + cos(2 * pi * x)) / 2",
                                  period=weight.period)
    lam = float(rng.uniform(0.5, 1.5))
    lo = principal_spectrum_point(op, weight, lam, n_steps=256).mu_n
    hi = principal_spectrum_point(op, bigger, lam, n_steps=256).mu_n
    return hi >= lo - 1e-10, f"mu(bigger) - mu(base) = {hi - lo:.3e}"


def check_essential_floor(rng) -> tuple[bool, str]:
    op, weight = _random_setup(rng, Boundary.DIRICHLET)
    lam = float(rng.uniform(0.0, 2.0))
    rep = principal_spectrum_point(op, weight, lam, n_steps=256)
    mu, h_max = rep.mu_n, rep.h_hat_max
    return mu >= h_max - 1e-8, f"mu - envelope max = {mu - h_max:.3e}"


def check_time_averaging(rng) -> tuple[bool, str]:
    op, weight = _random_setup(rng, Boundary.NEUMANN)
    lam = float(rng.uniform(0.5, 1.5))
    mu = principal_spectrum_point(op, weight, lam, n_steps=256).mu_n
    m_hat = summarize(weight, op.grid).m_hat
    mu_avg = autonomous_spectrum_point(op, m_hat, lam).mu_n
    return mu >= mu_avg - 1e-8, f"mu(m) - mu(average) = {mu - mu_avg:.3e}"


def check_convexity(rng) -> tuple[bool, str]:
    op, weight = _random_setup(rng, Boundary.DIRICHLET)
    l1 = float(rng.uniform(0.2, 0.6))
    l2 = l1 + float(rng.uniform(0.5, 1.2))
    mus = [principal_spectrum_point(op, weight, lam, n_steps=512).mu_n
           for lam in (l1, 0.5 * (l1 + l2), l2)]
    slack = 0.5 * (mus[0] + mus[2]) - mus[1]
    return slack >= -1e-9, f"midpoint convexity slack {slack:.3e}"


def check_threshold_root(rng) -> tuple[bool, str]:
    a = float(rng.uniform(0.4, 0.8))
    weight = closed_form(
        f"cos(2 * pi * x) * ({a!r} + 0.3 * sin(2 * pi * t)) + 0.2", period=1.0)
    op, weight = Problem(Boundary.DIRICHLET, (1.0,), "parabolic", 0.3, weight).at(24)
    res = solve_lambda_p(op, weight)
    if res.status != "unique_root":
        return False, f"expected unique_root, got {res.status}"
    doubled = solve_lambda_p(op, 2.0 * weight)
    scale_gap = abs(doubled.lambda_p * 2.0 - res.lambda_p) / res.lambda_p
    ok = abs(res.mu_at_root) < 1e-8 and scale_gap < 1e-6
    return ok, (f"|mu at root| = {abs(res.mu_at_root):.3e}, "
                f"scaling defect {scale_gap:.3e}")


def check_linearized_growth(rng) -> tuple[bool, str]:
    op, weight = _random_setup(rng, Boundary.NEUMANN)
    lam = float(rng.uniform(0.5, 1.5))
    pmap = period_map(op, weight, lam, n_steps=256)
    delta = 1e-9
    u0 = delta * (1.0 + 0.5 * np.cos(2.0 * np.pi * op.grid.nodes[:, 0]))
    traj = simulate_kpp(op, weight, Nonlinearity("logistic", 1.0), lam, u0,
                        0.0, weight.period, n_steps=256, record_every=256)
    linear = pmap.matrix @ u0
    gap = float(np.abs(traj.final - linear).max() / np.abs(linear).max())
    return gap < 1e-6, f"relative gap to the linearization {gap:.3e}"


CHECKS = (
    ("kernel mass is normalized to one", check_kernel_mass),
    ("mass-conserving operators annihilate constants", check_constant_annihilation),
    ("period map is entrywise nonnegative", check_flow_positivity),
    ("two periods equal the squared period map", check_two_period_consistency),
    ("constant weight shift moves mu by lam times the shift", check_shift_law),
    ("mu is monotone in the weight", check_weight_monotonicity),
    ("mu dominates the essential envelope", check_essential_floor),
    ("time averaging can only lower mu", check_time_averaging),
    ("mu is midpoint-convex in lam", check_convexity),
    ("threshold root has small residual and inverse scaling", check_threshold_root),
    ("nonlinear flow matches its linearization for tiny data", check_linearized_growth),
)


def run_checks(seed: int = DEFAULT_SEED, names=None) -> tuple[CheckResult, ...]:
    """Run the battery (or the subset named by ``names``) with a seeded RNG.

    A name that is no check's label is a ``ValueError``, not a skipped check.
    """
    unknown = sorted(set(names or ()) - dict(CHECKS).keys())
    if unknown:
        raise ValueError(f"unknown check {', '.join(map(repr, unknown))}")
    selected = CHECKS if names is None else tuple(
        (label, fn) for label, fn in CHECKS if label in set(names))
    results = []
    for index, (label, fn) in enumerate(selected):
        rng = np.random.default_rng(seed + index)
        try:
            passed, detail = fn(rng)
        except Exception as exc:  # a crash is a failed check, not a crashed run
            passed, detail = False, f"raised {exc!r}"
        results.append(CheckResult(label, bool(passed), detail))
    return tuple(results)
