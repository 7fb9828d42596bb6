"""Nonlinear persistence dynamics driven by the dispersal generator.

The population model couples the linear flow with a density-dependent death
term::

    du/dt = (K u - b u) + u * (lam * m(t, x) - crowding(u))

The crowding term vanishes at ``u = 0``, so the linearization at extinction is
exactly the weighted generator whose principal spectrum point the rest of the
package computes.  Persistence of the nonlinear dynamics therefore switches at
the positive root of ``mu(lam)``: below it every population dies out, above it
a unique positive time-periodic state attracts positive initial data.

The nonlinear flow has no stepper of its own: it is the ``evolution._flow``
handle with its own reaction half steps, so its dispersal step is the
linear flow's.  With ``lam m`` replaced by its mean over each half step, the
reaction ``u' = (lam m - crowding(u)) u`` is solved per node
(``Nonlinearity.reaction``): in closed form for the logistic penalty, by a
positive second-order step for the saturating one, so the state never turns
negative and no undershoot is scrubbed.  ``_kpp_flow`` sets the flow up
once per ``lam`` (``sup|m|`` from the weight's summary, the bound check, the
carrying scale); ``simulate_kpp`` and every orbit period run through it, and
it builds one ``_flow`` handle per step count, so every Poincare period of
an orbit shares its reaction tables and dispersal step.

The periodic state is found by iterating the period map ``P`` of the
nonlinear flow from a small positive constant.  Each period is one run of
that handle over ``[0, T]`` with the orbit's fixed step count, as
``simulate_kpp`` would run it; the count is rounded up to even.  The
orbit first looks for a certificate of persistence: when the principal
spectrum point ``mu(lam)`` of ``spectrum.principal_spectrum_point`` is
positive, its eigenfunction ``phi`` gives a sub-solution ``eps * phi`` once
``P(eps * phi) - eps * phi`` clears the order tolerance on every node for
some ``eps`` of a short ladder.  That check runs on the orbit's own map, so
the certificate's soundness does not rest on how ``phi`` was computed, and
its ``mu`` is the one the root search and ``spectrum`` report.  The
flow preserves order, so the iterates from any start above ``eps * phi``
stay above it and a positive periodic state exists.  Under that
certificate the iteration is accelerated by type-II Anderson mixing on
``G(u) = P(u) - u`` (Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011), with
each mixed iterate projected onto the certified order interval
``[eps * phi, carrying]``.  Without it the plain iteration runs, and it
alone can end in extinction: the sup norm falls below a floor, or one
linear period contracts the state uniformly.  Only an orbit without a
certificate builds its linearized period map, at its own step count, as
the vector action ``period_action`` that the contraction test applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import (ORDER_TOL, Trajectory, UnstableStepError, _flow, default_n_steps,
                        period_action)
from .operator import DispersalOperator
from .spectrum import PowerIterationError, principal_spectrum_point
from .weighted_solver import STATUS_UNIQUE, LambdaPResult, solve_lambda_p
from .weights import Weight, sup_abs

TOL_FIX = 1e-9
TOL_EXT = 1e-8
MAX_PERIODS = 500
# sub-solution amplitudes tried by the persistence certificate, as fractions
# of the carrying scale
CERT_EPS = (1e-1, 1e-2, 1e-3, 1e-4)
ANDERSON_DEPTH = 5
# states recorded along a persistent orbit's last period (about this many:
# one every n_steps // ORBIT_SNAPSHOTS steps, and the last)
ORBIT_SNAPSHOTS = 16


@dataclass(frozen=True)
class Nonlinearity:
    """Density-dependent per-capita crowding penalty.

    ``logistic`` uses ``crowding(u) = c * u``; ``saturating`` uses
    ``c * u / (1 + d * u)``, which caps the penalty at ``c / d`` and therefore
    needs ``c / d`` to exceed the best-case growth rate for the dynamics to
    stay bounded.
    """

    kind: str = "logistic"
    crowding: float = 1.0
    saturation: float = 0.0

    def __post_init__(self):
        if self.kind not in ("logistic", "saturating"):
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if not self.crowding > 0.0:
            raise ValueError("crowding coefficient must be positive")
        if self.saturation < 0.0:
            raise ValueError("saturation coefficient must be nonnegative")
        if self.kind == "logistic" and self.saturation != 0.0:
            raise ValueError("logistic crowding takes no saturation coefficient")

    def penalty(self, u):
        """Per-capita crowding at density ``u`` (elementwise)."""
        if self.saturation > 0.0:
            return self.crowding * u / (1.0 + self.saturation * u)
        return self.crowding * u

    def reaction(self, z: np.ndarray, tau: float):
        """``react(u, j, merge)`` for the Strang stepper: in place, the half
        step j of ``u' = (lam m - crowding(u)) u`` per node, with ``lam m``
        replaced by its mean ``z[j] / tau`` over the half step; with ``merge``
        the half steps j and j + 1.

        Logistic: the closed form ``u -> alpha u / (1 + c r u)``, with
        ``alpha = exp(z)`` and ``r = tau (exp(z) - 1) / z``.  It is a Moebius
        map, so two merged half steps are one again: ``alpha_j alpha_{j+1}``
        and ``c r_j + alpha_j c r_{j+1}``.  Saturating: the same closed form
        with the coefficient ``c / (1 + d u)`` frozen at the midpoint state,
        which the closed form over half the half step predicts; a second-order
        step that, like the exact flow, keeps ``u`` positive.
        """
        def rates(z, tau):
            with np.errstate(over="ignore", invalid="ignore"):
                nonzero = np.where(z == 0.0, 1.0, z)
                return np.exp(z), tau * np.where(z == 0.0, 1.0, np.expm1(z) / nonzero)

        alpha, rate = rates(z, tau)
        if self.saturation > 0.0:
            alpha_mid, rate_mid = rates(0.5 * z, 0.5 * tau)

            def react(u, j, merge):
                for i in (j, j + 1)[:1 + merge]:
                    mid = u * alpha_mid[i] / (1.0 + rate_mid[i] * self.penalty(u))
                    coef = rate[i] * self.crowding / (1.0 + self.saturation * mid)
                    u *= alpha[i] / (1.0 + coef * u)
            return react
        beta = self.crowding * rate
        with np.errstate(over="ignore", invalid="ignore"):
            merged = (alpha[:-1] * alpha[1:], beta[:-1] + alpha[:-1] * beta[1:])

        def react(u, j, merge):
            a, b = (merged[0][j], merged[1][j]) if merge else (alpha[j], beta[j])
            u *= a / (1.0 + b * u)
        return react

    def check_bounded(self, growth_sup: float) -> None:
        """Require the penalty to dominate the growth rate at large density."""
        if self.saturation > 0.0:
            cap = self.crowding / self.saturation
            if cap <= growth_sup:
                raise ValueError(
                    "saturating penalty caps at "
                    f"{cap:.6g} <= best-case growth {growth_sup:.6g}; "
                    "the dynamics would blow up")

    def carrying_scale(self, growth_sup: float) -> float:
        """Density where the penalty balances the best-case growth rate.

        Above this level the per-capita rate is negative everywhere, so the
        region ``[0, scale]`` absorbs the flow.  When the growth rate is
        nonpositive the scale degenerates; a positive fallback keeps initial
        conditions meaningful in extinction regimes.
        """
        if growth_sup <= 0.0:
            return 1.0 / self.crowding
        self.check_bounded(growth_sup)
        if self.saturation > 0.0:
            return growth_sup / (self.crowding - self.saturation * growth_sup)
        return growth_sup / self.crowding


def _kpp_flow(op: DispersalOperator, weight: Weight, nonlin: Nonlinearity, lam: float):
    """``(carrying, steps(duration, scale), run(u, t0, t1, n_steps, record_every=None))``;
    each ``run`` guards the ceiling ``10 * scale``,
    ``scale = max(carrying, max u, 1e-30)``.  The ``evolution._flow`` handle,
    with the reaction of ``Nonlinearity.reaction``, is built once per
    ``(t0, t1, n_steps)``."""
    growth_sup = abs(lam) * sup_abs(weight, op.grid)
    carrying = nonlin.carrying_scale(growth_sup)  # raises if crowding cannot bound growth
    flows = {}

    def steps(duration, scale):
        return default_n_steps(duration, 1.0, growth_sup + nonlin.penalty(scale))

    def run(u, t0, t1, n_steps, record_every=None):
        scale = max(carrying, float(u.max()), 1e-30)
        if n_steps is None:
            n_steps = steps(t1 - t0, scale)
        key = (t0, t1, n_steps)
        if key not in flows:
            flows[key] = _flow(op, weight, lam, t0, t1, n_steps, nonlin.reaction)
        return flows[key](u, record_every, 10.0 * scale)
    return carrying, steps, run


def simulate_kpp(op: DispersalOperator, weight: Weight, nonlin: Nonlinearity,
                 lam: float, u0, t0: float, t1: float, *,
                 n_steps: int | None = None, record_every: int = 1) -> Trajectory:
    """Integrate the nonlinear dynamics from ``u0`` over ``[t0, t1]``.

    The stepping is the linear flow's Strang stepper with the reaction's half
    steps of ``Nonlinearity.reaction``; the state stays nonnegative, and
    ``UnstableStepError`` is raised once its sup exceeds ``10 * scale``.
    """
    u0 = np.asarray(u0, dtype=float)
    if np.any(u0 < 0.0) or not np.all(np.isfinite(u0)):
        raise ValueError("initial state must be finite and nonnegative")
    if not np.any(u0 > 0.0):
        raise ValueError("initial state must not be identically zero")
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    _, _, run = _kpp_flow(op, weight, nonlin, lam)
    return run(u0, t0, t1, n_steps, record_every)


@dataclass(frozen=True)
class PeriodicOrbit:
    """Outcome of the Poincare iteration for one ``lam``."""

    verdict: str                       # "persistence" | "extinction" | "undecided"
    lam: float
    fixed_point: np.ndarray | None     # state at t = 0 when persistent
    residual: float                    # sup|P(u*) - u*| at the final iterate
    min_of_orbit: float
    sup_of_orbit: float
    periods_used: int
    uniqueness_gap: float | None       # gap between fixed points from two starts
    orbit_times: np.ndarray | None
    orbit_states: np.ndarray | None
    certificate: str | None = None     # extra evidence behind the verdict

    @property
    def persists(self) -> bool:
        return self.verdict == "persistence"


def _contraction_factor(linear, u):
    """Uniform contraction factor of one linear period ``linear`` (the
    orbit's linearized map) applied to ``u``.

    Crowding only removes mass, so the nonlinear flow is dominated by the
    linear one; if ``Phi u <= theta u`` with ``theta < 1`` the iterates decay
    at least geometrically from here on and extinction is certain.
    """
    lin = linear(u)
    positive = u > 0.0
    if np.any(lin[~positive] > 0.0):
        return math.inf
    if not positive.any():
        return 0.0
    return float((lin[positive] / u[positive]).max())


def _poincare_iterate(run, linear, u, period, n_steps, max_periods, floor):
    """Iterate the nonlinear period map ``run`` until it stabilizes or collapses;
    ``linear`` is the linearized period map of the contraction test."""
    prev_sup = float(np.abs(u).max())
    for k in range(1, max_periods + 1):
        nxt = run(u, 0.0, period, n_steps)
        sup = float(np.abs(nxt).max())
        diff = float(np.abs(nxt - u).max())
        if sup <= TOL_EXT * floor:
            return "extinction", nxt, diff, k, "sup norm fell below the extinction floor"
        if sup < 0.5 * floor and sup < prev_sup and k % 5 == 0:
            theta = _contraction_factor(linear, nxt)
            if theta < 1.0 - 1e-9:
                return ("extinction", nxt, diff, k,
                        f"one linear period contracts the state uniformly "
                        f"(factor {theta:.6g} < 1)")
        if diff < TOL_FIX * max(sup, 1e-300) and sup > 100.0 * TOL_EXT * floor:
            return "persistence", nxt, diff, k, None
        u = nxt
        prev_sup = sup
    return "undecided", u, float("nan"), max_periods, None


def _persistence_certificate(op, weight, lam, run, n_steps, carrying):
    """``(certificate, eps * phi, periods)`` from a sub-solution ``eps * phi``,
    or ``(None, None, periods)``.

    ``phi`` is the eigenfunction of ``principal_spectrum_point(op, weight,
    lam)``, tried only when its ``mu_n`` is positive; a point that raises
    ``PowerIterationError`` or ``UnstableStepError`` gives no certificate.
    The first ``eps`` of ``CERT_EPS`` (times the carrying scale) with
    ``P(eps * phi) - eps * phi`` above ``ORDER_TOL`` times the scale on every
    node, ``P`` the orbit's period map ``run`` at ``n_steps``, is the
    certificate; ``periods`` counts the KPP periods the ladder ran.
    """
    try:
        point = principal_spectrum_point(op, weight, lam)
    except (PowerIterationError, UnstableStepError):
        return None, None, 0
    if not point.mu_n > 0.0:
        return None, None, 0
    for k, frac in enumerate(CERT_EPS, start=1):
        sub = frac * carrying * point.eigenfunction
        gain = float((run(sub, 0.0, weight.period, n_steps) - sub).min())
        if gain > ORDER_TOL * carrying:
            return (f"P(eps*phi) exceeds eps*phi by at least {gain:.3e} on every node at "
                    f"eps = {frac:.0e} of the carrying scale (mu = {point.mu_n:.6g} > 0), "
                    "so the iterates stay above eps*phi"), sub, k
    return None, None, len(CERT_EPS)


def _anderson_iterate(run, u, period, n_steps, max_periods, floor, ceiling):
    """Type-II Anderson mixing of depth ``ANDERSON_DEPTH`` on ``G(u) = P(u) - u``.

    The mixed iterate minimizes the linearized residual over the last steps
    (``lstsq`` on the residual differences) and is projected onto
    ``[floor, ceiling]``, where ``floor`` is the certified sub-solution
    ``eps * phi``.  The history restarts when the residual grows, and when the
    mixed iterate falls below ``floor`` on some node: the secant model then
    heads for the zero state, the other root of ``G``, so the plain image
    ``P(u)``, which stays above ``floor``, is taken instead.  The stopping rule
    is the plain iteration's, met by a ``P(u)`` not below ``floor`` on any
    node, and the fixed point is that ``P(u)``.
    """
    xs, gs = [], []
    prev = math.inf
    for k in range(1, max_periods + 1):
        nxt = run(u, 0.0, period, n_steps)
        g = nxt - u
        sup = float(np.abs(nxt).max())
        diff = float(np.abs(g).max())
        if diff < TOL_FIX * sup and np.all(nxt >= floor):
            return "persistence", nxt, diff, k
        if diff > prev:
            xs, gs = [], []
        prev = diff
        xs.append(u)
        gs.append(g)
        del xs[:-ANDERSON_DEPTH - 1], gs[:-ANDERSON_DEPTH - 1]
        if len(xs) > 1:
            d_x = np.diff(xs, axis=0).T
            d_g = np.diff(gs, axis=0).T
            gamma = np.linalg.lstsq(d_g, g, rcond=None)[0]
            mixed = u + g - (d_x + d_g) @ gamma
            if np.all(mixed >= floor):
                nxt = mixed
            else:
                xs, gs = [], []
        u = np.clip(nxt, floor, ceiling)
    return "undecided", u, float("nan"), max_periods


def find_periodic_solution(op: DispersalOperator, weight: Weight,
                           nonlin: Nonlinearity, lam: float, *,
                           n_steps: int | None = None, max_periods: int = MAX_PERIODS,
                           check_uniqueness: bool = True) -> PeriodicOrbit:
    """Classify ``lam`` as persistent or extinct: a certificate first, then
    the accelerated or the plain Poincare iteration.

    The certificate of persistence is a sub-solution ``eps * phi`` from the
    eigenfunction of the principal spectrum point (see the module docstring);
    it needs ``mu(lam) > 0`` and one KPP period per ``eps`` tried.  Under it,
    Anderson mixing iterates the period map from a small positive constant
    until the relative change of one period falls below ``TOL_FIX``.  Without
    it, the plain iteration from the same start decides: persistence by the
    same stopping rule at a state bounded away from zero; extinction when the
    sup norm falls below ``TOL_EXT`` times the carrying scale, or when one
    linear period contracts the current state uniformly, which bounds all
    later iterates by a geometric decay.  ``periods_used`` counts the
    certificate's periods and those of the iteration from the small start;
    ``max_periods`` bounds the iteration from each start.  A second start
    near the carrying scale cross-checks uniqueness of the stabilized state.
    """
    if max_periods < 1:
        raise ValueError(f"max_periods must be at least 1, got {max_periods}")
    scale, steps, run = _kpp_flow(op, weight, nonlin, lam)
    period = weight.period
    if n_steps is None:
        n_steps = steps(period, scale)
    n_steps += n_steps % 2

    certificate, sub, cert_periods = _persistence_certificate(
        op, weight, lam, run, n_steps, scale)
    if certificate is None:
        linear = period_action(op, weight, lam, n_steps)

        def iterate(u0):
            return _poincare_iterate(run, linear, u0, period, n_steps, max_periods, scale)
    else:
        def iterate(u0):
            return _anderson_iterate(run, u0, period, n_steps, max_periods, sub,
                                     scale) + (certificate,)

    verdict, u_star, residual, used, reason = iterate(np.full(op.n, 0.1 * scale))
    used += cert_periods

    gap = None
    if verdict == "persistence" and check_uniqueness:
        verdict2, u_star2, _, _, _ = iterate(np.full(op.n, 0.9 * scale))
        if verdict2 == "persistence":
            gap = float(np.abs(u_star - u_star2).max() / max(np.abs(u_star).max(), 1e-300))

    if verdict != "persistence":
        return PeriodicOrbit(verdict, lam, None, residual, 0.0, 0.0, used,
                             gap, None, None, reason)

    # the orbit's own discrete map, so the residual is |P(u*) - u*| of the map
    # that decided the verdict
    snap = run(u_star, 0.0, period, n_steps, max(1, n_steps // ORBIT_SNAPSHOTS))
    orbit = snap.states
    return PeriodicOrbit(
        verdict="persistence",
        lam=lam,
        fixed_point=u_star,
        residual=float(np.abs(orbit[-1] - u_star).max()),
        min_of_orbit=float(orbit.min()),
        sup_of_orbit=float(orbit.max()),
        periods_used=used,
        uniqueness_gap=gap,
        orbit_times=snap.times,
        orbit_states=orbit,
        certificate=certificate,
    )


@dataclass(frozen=True)
class ThresholdScan:
    """Verdicts across a ladder of ``lam`` values against the linear threshold."""

    orbits: tuple[PeriodicOrbit, ...]
    lambda_result: LambdaPResult
    switch_bracket: tuple[float, float] | None
    monotone: bool
    consistent_with_root: bool | None


def threshold_scan(op: DispersalOperator, weight: Weight, nonlin: Nonlinearity,
                   lams, *, n_steps: int | None = None,
                   solver_result: LambdaPResult | None = None,
                   max_periods: int = MAX_PERIODS) -> ThresholdScan:
    """Run the persistence test at each ``lam`` and compare with the root.

    The scan records where the verdict switches from extinction to
    persistence, checks that the pattern is monotone (no persistence below an
    extinction), and, when the linear problem has a unique positive root,
    whether that root sits inside the switch bracket.  ``n_steps`` is each
    orbit's step count; the root search takes its own from the ladder.
    """
    lams = sorted(float(v) for v in lams)
    if not lams:
        raise ValueError("need at least one lam to scan")
    orbits = tuple(
        find_periodic_solution(op, weight, nonlin, lam, n_steps=n_steps,
                               max_periods=max_periods, check_uniqueness=False)
        for lam in lams)
    if solver_result is None:
        solver_result = solve_lambda_p(op, weight)
    return summarize_scan(orbits, solver_result)


def summarize_scan(orbits, solver_result: LambdaPResult) -> ThresholdScan:
    """Condense per-``lam`` orbits into the switch bracket and consistency flags."""
    orbits = tuple(sorted(orbits, key=lambda orbit: orbit.lam))
    last_ext = None
    first_per = None
    monotone = True
    seen_persistence = False
    for orbit in orbits:
        if orbit.verdict == "persistence":
            seen_persistence = True
            if first_per is None:
                first_per = orbit.lam
        elif orbit.verdict == "extinction":
            if seen_persistence:
                monotone = False
            last_ext = orbit.lam
    bracket = None
    if last_ext is not None and first_per is not None and last_ext < first_per:
        bracket = (last_ext, first_per)

    consistent = None
    if solver_result.status == STATUS_UNIQUE and bracket is not None:
        consistent = bracket[0] <= solver_result.lambda_p <= bracket[1]
    return ThresholdScan(orbits, solver_result, bracket, monotone, consistent)
