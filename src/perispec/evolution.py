"""Fixed-step RK4 propagation of the linear dispersal flow and of the KPP flow.

The period map (monodromy matrix) is obtained by propagating all canonical
basis fields at once as a matrix initial value problem.  A fixed classical RK4
step keeps the flow deterministic: identical inputs give bit-identical maps
regardless of evaluation schedule.

One stepper, ``_integrate``, serves both flows: the KPP flow of ``kpp`` is
the linear flow plus a per-capita crowding term that vanishes at ``u = 0``.
The weight values at the RK stage times come from two stage tables, each built
in one ``Weight.table`` call per integration: the half-step table at
``t_k + h/2`` and the end-step table at ``t_k + h``, whose row ends step k and
also starts step k + 1 (row 0 holds ``m(t0)``).

Exact positivity of the flow is only preserved up to the integrator's order,
so the period map clamps rounding-level negative entries (magnitude below
1e-12) to zero and warns about anything larger.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .operator import DispersalOperator
from .weights import Weight, sup_abs

MIN_STEPS_PER_PERIOD = 64
CLAMP_TOL = 1e-12


class UnstableStepError(RuntimeError):
    """Raised when the integration norm escapes its a-priori growth envelope."""


def default_n_steps(period: float, lam: float, m_sup: float) -> int:
    """Step count that resolves both the oscillation and the growth scale."""
    return max(MIN_STEPS_PER_PERIOD, math.ceil(8.0 * period * (1.0 + abs(lam) * m_sup)))


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray      # (k,)
    states: np.ndarray     # (k, n)
    sup_norms: np.ndarray  # (k,)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True)
class PeriodMap:
    """One-period solution operator ``Phi(T, 0)`` for a fixed ``lam``."""

    matrix: np.ndarray
    lam: float
    period: float
    n_steps: int

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _integrate(op: DispersalOperator, weight: Weight, lam: float, state: np.ndarray,
               t0: float, t1: float, n_steps: int, record_every: int | None = None,
               crowding=None, scale: float = 1.0):
    """Shared RK4 loop for vector and matrix states.

    Returns (recorded times, recorded states) when ``record_every`` is set,
    otherwise just the final state.  Without ``crowding`` the norm monitor
    raises once the state leaves the envelope
    exp((||b|| + |lam| sup|m| + 1) (t - t0)) * 10 * ||u0||, which no stable
    run can reach.  With a per-capita ``crowding(u)`` (vector states only) the
    right-hand side becomes ``K u + (lam m - b - crowding(u)) u`` and the
    guard is the invariant region ``0 <= u <= 10 * scale`` instead, after
    rounding-level undershoot below zero is scrubbed.
    """
    K, b, grid = op.K, op.b, op.grid
    is_matrix = state.ndim == 2
    h = (t1 - t0) / n_steps

    def rhs(m, U):
        if is_matrix:
            return K @ U + (lam * m - b)[:, None] * U
        if crowding is not None:
            return K @ U + (lam * m - b - crowding(U)) * U
        return K @ U + (lam * m - b) * U

    u0_norm = float(np.abs(state).max())
    b_norm = float(np.abs(b).max())
    log_u0 = math.log(max(u0_norm, 1e-300))

    # stage tables for t_k = t0 + k h: halves[k] holds m(t_k + h/2); ends[0]
    # holds m(t0) and ends[k + 1] holds m(t_k + h), which also starts step k + 1
    t = t0 + np.arange(n_steps) * h
    halves = weight.table(t + 0.5 * h, grid)
    ends = weight.table(np.concatenate(([t0], t + h)), grid)
    end_sup = np.abs(ends).max(axis=1)
    # largest |m| met by the end of each step, for the growth envelope
    m_seen = np.maximum.accumulate(np.maximum(np.maximum(end_sup[:-1], end_sup[1:]),
                                              np.abs(halves).max(axis=1))).tolist()
    ceiling = 10.0 * scale

    times = [t0]
    states = [state.copy()] if record_every else None
    u = state.astype(float)
    for k in range(n_steps):
        k1 = rhs(ends[k], u)
        k2 = rhs(halves[k], u + 0.5 * h * k1)
        k3 = rhs(halves[k], u + 0.5 * h * k2)
        k4 = rhs(ends[k + 1], u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        elapsed = (k + 1) * h
        if crowding is None:
            norm = float(np.abs(u).max())
            limit = log_u0 + math.log(10.0) + (b_norm + abs(lam) * m_seen[k] + 1.0) * elapsed
            if not math.isfinite(norm) or math.log(max(norm, 1e-300)) > limit:
                raise UnstableStepError(
                    f"unstable step size: norm {norm:.3e} escaped the growth envelope "
                    f"at t={t0 + elapsed:.6g} with n_steps={n_steps}")
        else:
            # the flow preserves nonnegativity; scrub rounding-level undershoot only
            u[(u < 0.0) & (u > -1e-12 * scale)] = 0.0
            norm = float(np.abs(u).max())
            if not math.isfinite(norm) or norm > ceiling or np.any(u < 0.0):
                raise UnstableStepError(
                    f"state left the invariant region near t={t0 + elapsed:.6g} "
                    f"(sup {norm:.3e}, ceiling {ceiling:.3e}); refine n_steps")
        if record_every and ((k + 1) % record_every == 0 or k + 1 == n_steps):
            times.append(t0 + elapsed)
            states.append(u.copy())

    if record_every:
        return np.array(times), np.stack(states)
    return u


def propagate(op: DispersalOperator, weight: Weight, lam: float, u0, t0: float, t1: float,
              n_steps: int | None = None, record_every: int = 1) -> Trajectory:
    """Propagate a field from ``t0`` to ``t1``; records every ``record_every`` steps."""
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (op.n,):
        raise ValueError(f"u0 has shape {u0.shape}, expected ({op.n},)")
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    if n_steps is None:
        n_steps = default_n_steps(t1 - t0, lam, sup_abs(weight, op.grid))
    times, states = _integrate(op, weight, lam, u0, t0, t1, n_steps, record_every=record_every)
    norms = np.abs(states).max(axis=1)
    return Trajectory(times, states, norms)


def _period_steps(op: DispersalOperator, weight: Weight, lam: float,
                  n_steps: int | None) -> int:
    if n_steps is None:
        return default_n_steps(weight.period, lam, sup_abs(weight, op.grid))
    return n_steps


def period_map(op: DispersalOperator, weight: Weight, lam: float,
               n_steps: int | None = None) -> PeriodMap:
    """Monodromy matrix over one weight period, clamped to nonnegative entries."""
    n_steps = _period_steps(op, weight, lam, n_steps)
    mat = _integrate(op, weight, lam, np.eye(op.n), 0.0, weight.period, n_steps)
    worst = float(mat.min())
    if worst < -CLAMP_TOL:
        # left in place as evidence; only rounding-level negatives are clamped
        warnings.warn(f"period map has a negative entry {worst:.3e}; step count {n_steps} "
                      "is too coarse for the positivity of the flow", stacklevel=2)
    mat[(mat < 0.0) & (mat > -CLAMP_TOL)] = 0.0
    mat.setflags(write=False)
    return PeriodMap(mat, float(lam), weight.period, n_steps)


def period_action(op: DispersalOperator, weight: Weight, lam: float,
                  n_steps: int | None = None):
    """The map ``v -> Phi(T, 0) v``: one weight period of the linear flow
    applied to a vector, without forming the monodromy matrix.

    The step count is fixed once, as ``period_map`` would choose it, so every
    application integrates the same discrete flow.
    """
    n_steps = _period_steps(op, weight, lam, n_steps)

    def apply(v):
        return _integrate(op, weight, lam, np.asarray(v, dtype=float), 0.0,
                          weight.period, n_steps)
    return apply


@dataclass(frozen=True)
class PairComparison:
    max_violation: float
    min_gap: float
    strictly_ordered: bool


@dataclass(frozen=True)
class ComparisonReport:
    """Order preservation of the flow on ordered (weight, state) pairs."""

    pairs: tuple[PairComparison, ...]
    max_violation: float
    tolerance: float
    passed: bool


def comparison_check(op: DispersalOperator, weight_pairs, field_pairs, t1: float,
                     lam: float = 1.0, n_steps: int | None = None) -> ComparisonReport:
    """Propagate ordered pairs and report how well ordering is preserved.

    ``weight_pairs`` and ``field_pairs`` are sequences of (lower, upper) pairs;
    a length-1 sequence is broadcast against the other.  Reports violations, by
    contract it never raises on them.
    """
    weight_pairs = list(weight_pairs)
    field_pairs = list(field_pairs)
    if len(weight_pairs) == 1:
        weight_pairs = weight_pairs * len(field_pairs)
    if len(field_pairs) == 1:
        field_pairs = field_pairs * len(weight_pairs)
    if len(weight_pairs) != len(field_pairs):
        raise ValueError("weight_pairs and field_pairs must have matching lengths")

    results = []
    scale = 1.0
    for (w_lo, w_hi), (u_lo, u_hi) in zip(weight_pairs, field_pairs):
        steps = n_steps
        if steps is None:
            m_sup = max(sup_abs(w_lo, op.grid), sup_abs(w_hi, op.grid))
            steps = default_n_steps(t1, lam, m_sup)
        lo = _integrate(op, w_lo, lam, np.asarray(u_lo, dtype=float), 0.0, t1, steps)
        hi = _integrate(op, w_hi, lam, np.asarray(u_hi, dtype=float), 0.0, t1, steps)
        gap = hi - lo
        scale = max(scale, float(np.abs(lo).max()), float(np.abs(hi).max()))
        results.append(PairComparison(
            max_violation=float(max(0.0, -gap.min())),
            min_gap=float(gap.min()),
            strictly_ordered=bool(gap.min() > 0.0),
        ))
    tol = 1e-10 * scale
    worst = max((r.max_violation for r in results), default=0.0)
    return ComparisonReport(tuple(results), worst, tol, worst <= tol)
