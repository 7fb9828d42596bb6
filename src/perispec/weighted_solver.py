"""Positive roots of ``lam -> mu(lam)``: the weighted threshold problem.

``mu(lam)`` is convex in ``lam`` with ``mu(0) < 0`` under the hostile-exterior
boundary and ``mu(0) = 0`` under the mass-conserving ones.  That shape drives
the search:

* Dirichlet-type: bracket the upward crossing above ``lam = 0``, then refine
  the sign change.  A unique positive root exists iff the accumulated best-case
  growth ``P`` is positive.
* Neumann-type / periodic: the curve leaves zero with slope proportional to
  the space-time integral of the weight, so a positive root requires an
  initial negative dip followed by the convex upturn.  The solver hunts the
  dip on a geometric ``lam`` ladder from ``DIP_EPS`` and then brackets the
  upward crossing above the dip.

Both boundaries bracket the crossing on one ladder: it starts at
``lam = 1`` (or twice the dip, when that is larger), doubles while the curve
is negative, and halves back toward the last negative point while it is
positive, so the bracket is normally a factor 2 wide wherever the root lies.

When the applicable existence condition fails, one-signedness of the curve
follows from analytic envelopes (``mu(lam) <= mu(0) + lam * P / T`` from
pointwise domination by the spatially-best weight, and convexity from zero for
the nonnegative-slope case); the solver records the certificate and a sampled
prefix of the curve instead of stepping the integrator at astronomically large
``lam`` where the required step count would explode.

Once the upward crossing is bracketed, Brent's method (``scipy.optimize.brentq``)
refines the root on that confirmed bracket to a relative width of ``XTOL_REL``.
``tol_root`` only decides signs while bracketing: a curve value counts as
positive or negative once it clears ``tol_root``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Boundary
from .operator import DispersalOperator
from .spectrum import (SConditions, SpectrumReport, autonomous_spectrum_point,
                       check_S_conditions, principal_spectrum_point)
from .weights import ConditionReport, Weight, summarize

STATUS_UNIQUE = "unique_root"
STATUS_NONE = "no_positive_root"
STATUS_ALL = "all_positive_roots"
STATUS_MARGINAL = "marginal"

LAMBDA_CAP = 1e6
TOL_ROOT = 1e-8
DIP_EPS = 1e-3
TOL_DIP = 1e-9
XTOL_REL = 1e-10
FLAT_SEARCH_CAP = 1024.0


@dataclass(frozen=True)
class LambdaPResult:
    status: str
    boundary: Boundary
    lambda_p: float | None
    mu_at_root: float | None
    bracket: tuple[float, float] | None
    curve: tuple[tuple[float, float], ...]  # sampled (lam, mu) pairs, sorted
    condition_report: ConditionReport
    evidence: str
    # the spectrum point the search computed at the root
    root_report: SpectrumReport | None = field(default=None, compare=False)


class _MuCache:
    """``mu(lam)`` evaluated once per ``lam``; ``reports`` keeps the report ``fn`` returned."""

    def __init__(self, fn):
        self.fn = fn
        self.reports: dict[float, SpectrumReport] = {}

    def __call__(self, lam: float) -> float:
        lam = float(lam)
        if lam not in self.reports:
            self.reports[lam] = self.fn(lam)
        return float(self.reports[lam].mu_n)

    def curve(self) -> tuple[tuple[float, float], ...]:
        return tuple(sorted((lam, float(r.mu_n)) for lam, r in self.reports.items()))


def _upward_crossing(mu: _MuCache, lo: float, lam: float, tol_root: float,
                     lam_cap: float):
    """Double ``lam`` until ``mu > tol_root``, then refine the root above ``lo``.

    ``mu(lo)`` must be negative.  A caller starts the ladder at ``lam_cap``
    when the cap lies below its usual start, so a cap is always searched.
    When ``mu`` is already positive at the start,
    the ladder halves back toward ``lo`` while it stays positive, so the
    bracket is a factor 2 wide either way, unless it reaches ``lo`` or meets
    a value within ``tol_root`` of zero.  Returns
    ``(root, mu(root), (lo, hi))``, or ``None`` when the curve stays at or
    below ``tol_root`` up to ``lam_cap``.
    """
    # imported here: loading scipy.optimize would make ``import perispec`` 5x slower
    from scipy.optimize import brentq

    while lam <= lam_cap:
        val = mu(lam)
        if val > tol_root:
            while lam > 2.0 * lo and mu(0.5 * lam) > tol_root:
                lam *= 0.5
            if lam > 2.0 * lo and mu(0.5 * lam) < -tol_root:
                lo = 0.5 * lam
            root = brentq(mu, lo, lam, xtol=XTOL_REL, rtol=XTOL_REL)
            return root, mu(root), (lo, lam)
        if val < -tol_root:
            lo = lam
        lam *= 2.0
    return None


def _solve_dirichlet(mu: _MuCache, cond: ConditionReport, tol_root: float,
                     lam_cap: float):
    mu(0.0)
    if not cond.d_holds:
        for lam in (1.0, 4.0, 16.0):
            mu(lam)
        note = "P is within tolerance of zero; " if cond.p_marginal else ""
        return (STATUS_NONE, None, None, None,
                note + "the curve is dominated by mu(0) + lam * P / T <= mu(0) < 0, "
                "so it stays negative for every positive lam")
    found = _upward_crossing(mu, 0.0, min(1.0, lam_cap), tol_root, lam_cap)
    if found is None:
        return (STATUS_NONE, None, None, None,
                f"no sign change found for lam up to {lam_cap:.3g}")
    root, mu_root, (lo, hi) = found
    return (STATUS_UNIQUE, root, mu_root, (lo, hi),
            f"sign change bracketed in [{lo:.6g}, {hi:.6g}] and refined")


def _solve_mass_conserving(mu: _MuCache, cond: ConditionReport, tol_root: float,
                           lam_cap: float):
    p_fails = cond.p_value <= cond.tol_p
    if p_fails:
        for lam in (1.0, 4.0, 16.0):
            mu(lam)
        return (STATUS_NONE, None, None, None,
                "P <= 0, so mu(lam) <= lam * P / T <= 0: the curve never reaches "
                "positive values and the only root is lam = 0")
    if cond.integral_marginal:
        # boundary of the existence condition: the curve leaves zero with
        # vanishing slope, so one-signedness is not decided by the iff result
        for lam in (DIP_EPS, 1e-2, 1e-1):
            mu(lam)
        return (STATUS_MARGINAL, None, None, None,
                "P > 0 but the space-time integral of the weight vanishes within "
                "tolerance: the existence condition sits exactly on its boundary, "
                "so neither a root nor one-signedness is certified")

    # hunt the initial negative dip on a geometric ladder
    lam = DIP_EPS
    dip_lam = None
    while lam <= lam_cap:
        val = mu(lam)
        if val < -TOL_DIP:
            dip_lam = lam
            break
        if val > tol_root:
            break
        if dip_lam is None and lam > FLAT_SEARCH_CAP:
            return (STATUS_MARGINAL, None, None, None,
                    f"curve stayed within +/-{TOL_DIP:.1e} of zero for lam up to "
                    f"{FLAT_SEARCH_CAP:.3g}; no sign structure to bracket")
        lam *= 2.0

    if dip_lam is None:
        if cond.time_space_integral >= -cond.tol_integral:
            return (STATUS_NONE, None, None, None,
                    "the space-time integral of the weight is nonnegative, so the "
                    "curve leaves zero with nonnegative slope and convexity keeps "
                    "it nonnegative: no positive root")
        # negative slope promised a dip but the ladder missed it: look closer to zero
        lam = DIP_EPS / 2.0
        while lam >= 1e-6:
            val = mu(lam)
            if val < -TOL_DIP:
                dip_lam = lam
                break
            lam /= 2.0
        if dip_lam is None:
            return (STATUS_MARGINAL, None, None, None,
                    "the weight promises an initial dip (negative space-time "
                    "integral) but none was resolved above the noise floor")

    found = _upward_crossing(mu, dip_lam, min(max(2.0 * dip_lam, 1.0), lam_cap), tol_root,
                             lam_cap)
    if found is None:
        return (STATUS_NONE, None, None, None,
                f"curve dipped negative at lam={dip_lam:.6g} but never re-crossed "
                f"zero below the cap {lam_cap:.3g}")
    root, mu_root, (lo, hi) = found
    return (STATUS_UNIQUE, root, mu_root, (lo, hi),
            f"dip at lam={dip_lam:.6g}, upward crossing bracketed in "
            f"[{lo:.6g}, {hi:.6g}] and refined")


def _solve_core(mu: _MuCache, boundary: Boundary, cond: ConditionReport,
                space_indep: bool, m_hat_mean: float, m_scale: float,
                tol_root: float, lam_cap: float) -> LambdaPResult:
    if boundary is Boundary.DIRICHLET:
        status, lam_p, mu_root, bracket, evidence = _solve_dirichlet(
            mu, cond, tol_root, lam_cap)
    elif space_indep:
        # mu(lam) = lam * mean(m): degenerate closed form
        tol_avg = 1e-9 * (1.0 + m_scale)
        if abs(m_hat_mean) <= tol_avg:
            status, lam_p, mu_root, bracket = STATUS_ALL, None, None, None
            evidence = ("spatially constant weight with zero time mean: "
                        "mu vanishes identically, every positive lam is a root")
        else:
            status, lam_p, mu_root, bracket = STATUS_NONE, None, None, None
            evidence = (f"spatially constant weight: mu(lam) = lam * {m_hat_mean:.6g} "
                        "is one-signed for lam > 0")
    else:
        status, lam_p, mu_root, bracket, evidence = _solve_mass_conserving(
            mu, cond, tol_root, lam_cap)
    return LambdaPResult(
        status=status,
        boundary=boundary,
        lambda_p=lam_p,
        mu_at_root=mu_root,
        bracket=bracket,
        curve=mu.curve(),
        condition_report=cond,
        evidence=evidence,
        root_report=mu.reports.get(lam_p),
    )


def solve_lambda_p(op: DispersalOperator, weight: Weight, *,
                   tol_root: float = TOL_ROOT,
                   lam_cap: float = LAMBDA_CAP) -> LambdaPResult:
    """Find the positive root of the principal-spectrum-point curve, if any;
    each ``mu(lam)`` takes its step count from the time-bar ladder."""
    summary = summarize(weight, op.grid)
    cond = ConditionReport.from_values(summary.p_value, summary.time_space_integral)
    mu = _MuCache(lambda lam: principal_spectrum_point(op, weight, lam))
    return _solve_core(mu, op.boundary, cond, summary.space_independent,
                       float(summary.m_hat.mean()), summary.sup_abs, tol_root, lam_cap)


@dataclass(frozen=True)
class UpperBoundResult:
    """Roots of the time-dependent problem and of its time-averaged companion."""

    time_dependent: LambdaPResult
    averaged: LambdaPResult
    bound_holds: bool | None  # None unless both problems have a unique root
    slack: float | None


def upper_bound_lambda_p(op: DispersalOperator, weight: Weight, *,
                         tol_root: float = TOL_ROOT,
                         lam_cap: float = LAMBDA_CAP) -> UpperBoundResult:
    """Compare the threshold of ``m`` with that of its time average.

    Averaging the weight in time can only raise the threshold, so
    ``lambda_p(m) <= lambda_p(m_hat) + 1e-8`` whenever both exist.  The
    averaged problem is autonomous and is solved by the same search logic on
    the exact spectral bound of the frozen generator (no time stepping): its
    ``root_report`` is the ``SpectrumReport`` of ``autonomous_spectrum_point``;
    the time-dependent search is ``solve_lambda_p``'s, on the ladder.
    """
    res_time = solve_lambda_p(op, weight, tol_root=tol_root, lam_cap=lam_cap)
    summary = summarize(weight, op.grid)
    m_hat = summary.m_hat
    mu_auto = _MuCache(lambda lam: autonomous_spectrum_point(op, m_hat, lam))
    cond_auto = ConditionReport.from_values(weight.period * summary.m_hat_max,
                                            summary.time_space_integral)
    spread = summary.m_hat_max - summary.m_hat_min
    indep = spread <= 1e-12 * (1.0 + abs(summary.m_hat_max))
    res_avg = _solve_core(mu_auto, op.boundary, cond_auto, indep,
                          float(m_hat.mean()), float(np.abs(m_hat).max()),
                          tol_root, lam_cap)

    bound = None
    slack = None
    if res_time.status == STATUS_UNIQUE and res_avg.status == STATUS_UNIQUE:
        slack = res_avg.lambda_p - res_time.lambda_p
        bound = res_time.lambda_p <= res_avg.lambda_p + 1e-8
    return UpperBoundResult(res_time, res_avg, bound, slack)


@dataclass(frozen=True)
class PeSufficiency:
    is_principal_eigenvalue: str  # "yes" | "unknown"
    basis: str | None             # "S1" | "S3" | "gap" when yes
    report: SpectrumReport
    s_conditions: SConditions     # at the root


def pe_sufficiency(op: DispersalOperator, weight: Weight,
                   result: LambdaPResult) -> PeSufficiency:
    """Decide whether the spectrum point at the root is a true eigenvalue.

    Analytic sufficiency (smooth flat interior maximum, or divergent contact
    integral) is preferred; the numerical gap classification is the fallback.
    The S-conditions are fitted once, at the root; they read only the time
    average of ``weight``, so the averaged root of ``upper_bound_lambda_p`` is
    checked the same way, against its own ``root_report``.
    """
    if result.status != STATUS_UNIQUE or result.lambda_p is None:
        raise ValueError("pe_sufficiency needs a unique_root result")
    report = result.root_report
    s = check_S_conditions(weight, op, result.lambda_p)
    if s.s1 == "yes":
        return PeSufficiency("yes", "S1", report, s)
    if s.s3 == "yes":
        return PeSufficiency("yes", "S3", report, s)
    if report.is_principal_eigenvalue == "yes":
        return PeSufficiency("yes", "gap", report, s)
    return PeSufficiency("unknown", None, report, s)
