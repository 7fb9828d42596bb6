"""Fixed-step RK4 propagation of the linear dispersal flow and of the KPP flow.

The period map (monodromy matrix) is obtained by propagating all canonical
basis fields at once as a matrix initial value problem.  A fixed classical RK4
step keeps the flow deterministic: identical inputs give bit-identical maps
regardless of evaluation schedule.

One stepper, ``_integrate``, serves both flows: the KPP flow of ``kpp`` is
the linear flow plus a per-capita crowding term that vanishes at ``u = 0``.
The weight values at the RK stage times come from two stage tables, each built
in one ``Weight.table`` call per integration, or once per ``period_action``:
the half-step table at ``t_k + h/2`` and the end-step table at ``t_k + h``,
whose row ends step k and also starts step k + 1 (row 0 holds ``m(t0)``).

The stage scheme: each stage input ``u + c h k_i`` and the step's sum
``u + h/6 k1``, then ``+= h/3 k2``, ``+= h/3 k3``, ``+= h/6 k4``, live in
buffers allocated once per call and updated in place.  For the ``n x n``
state of a period map the right-hand side ``K U + (lam m - b) U`` is one
GEMM with a private copy of ``K`` whose diagonal is set to
``diag(K) + lam m - b`` before each stage, an O(n) write.  A vector state
keeps the product with ``K`` plus the diagonal product, and the product is
``op.matvec``: a GEMV in 1-D, two small GEMMs through the factored kernel
stencil in 2-D, which never read the dense ``K``.  A block of a few columns
(the positivity probe) goes through the same product, with no copy of
``K``: it is stepped as a C-ordered stack of its columns, and ``op.matvec``
gives each column the bits it gives that vector alone, so a block's columns
are their own vector periods bit for bit.  On 2-D Neumann 24x24 (64 steps,
one BLAS thread) a vector period took 4.0-4.2 ms and the probe's 8-column
period 17-20 ms, against 10.8-11.9 ms and 99-110 ms with the full-rank
stencil and a GEMM with ``K``.  For a vector or a block the copy of ``K``
and the strided diagonal writes cost more than the elementwise work they
save.  Folding the diagonal into the GEMM changes the rounding of a map by a
few ulps against the textbook ``K U + d U`` form; the saving needs that
change.
``op.K`` is never written, and every call owns its buffers, so concurrent
calls stay deterministic.

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
ORDER_TOL = 1e-10  # order violations of the discrete flow, relative to the state's scale


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


def _stage_tables(op: DispersalOperator, weight: Weight, lam: float, t0: float,
                  t1: float, n_steps: int):
    """``(halves, ends, m_seen)`` for ``n_steps`` RK4 steps over ``[t0, t1]``.

    With ``t_k = t0 + k h``, ``halves[k]`` holds ``lam m(t_k + h/2) - b``;
    ``ends[0]`` holds ``lam m(t0) - b`` and ``ends[k + 1]`` holds
    ``lam m(t_k + h) - b``, which also starts step k + 1.  ``m_seen[k]`` is
    the largest ``|m|`` met by the end of step k, for the growth envelope.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    h = (t1 - t0) / n_steps
    t = t0 + np.arange(n_steps) * h
    halves = weight.table(t + 0.5 * h, op.grid)
    ends = weight.table(np.concatenate(([t0], t + h)), op.grid)
    end_sup = np.abs(ends).max(axis=1)
    m_seen = np.maximum.accumulate(np.maximum(np.maximum(end_sup[:-1], end_sup[1:]),
                                              np.abs(halves).max(axis=1))).tolist()
    return lam * halves - op.b, lam * ends - op.b, m_seen


def _integrate(op: DispersalOperator, weight: Weight, lam: float, state: np.ndarray,
               t0: float, t1: float, n_steps: int, record_every: int | None = None,
               crowding=None, scale: float = 1.0, tables=None):
    """Shared RK4 loop for vector and matrix states.

    ``state`` is a vector, an ``n x n`` matrix (a period map's identity)
    whose columns are stepped together by one GEMM, or a block of another
    width whose columns are stepped as vectors.  Returns (recorded times,
    recorded states) when ``record_every`` is set (vector states), otherwise
    just the final state.  Without ``crowding`` the norm monitor raises once
    the state leaves the envelope
    exp((||b|| + |lam| sup|m| + 1) (t - t0)) * 10 * ||u0||, which no stable
    run can reach.  With a per-capita ``crowding(u)`` (vector states only) the
    right-hand side becomes ``K u + (lam m - b - crowding(u)) u`` and the
    guard is the invariant region ``0 <= u <= 10 * scale`` instead, after
    rounding-level undershoot below zero is scrubbed.  ``tables`` are the
    ``_stage_tables`` of the same arguments, built here when not given.
    """
    if tables is None:
        tables = _stage_tables(op, weight, lam, t0, t1, n_steps)
    halves, ends, m_seen = tables
    h = (t1 - t0) / n_steps

    u0_norm = float(np.abs(state).max())
    b_norm = float(np.abs(op.b).max())
    log_u0 = math.log(max(u0_norm, 1e-300))
    ceiling = 10.0 * scale

    # an n x n state (a period map's columns) steps as one matrix; any other
    # block's columns step as the rows of a stack, each through op.matvec
    matrix = np.shape(state) == (op.n, op.n)
    block = np.ndim(state) == 2 and not matrix
    # a C-ordered copy: the products' rounding depends on the memory layout
    u = np.array(np.transpose(state) if block else state, dtype=float, order="C")
    acc, y, slope = np.empty_like(u), np.empty_like(u), np.empty_like(u)
    if matrix:
        # K U + (lam m - b) U as one GEMM with a private copy of K whose
        # diagonal is rewritten, in O(n), to diag(K) + lam m - b at each stage
        A = np.array(op.K)
        diag = A.reshape(-1)[::A.shape[0] + 1]
        k_diag = diag.copy()

        def rhs(d, Y):
            np.add(k_diag, d, out=diag)
            np.matmul(A, Y, out=slope)
    else:
        def rhs(d, Y):
            if crowding is not None:
                d = d - crowding(Y)
            op.matvec(Y, out=slope)
            np.add(slope, d * Y, out=slope)

    times = [t0]
    states = [state.copy()] if record_every else None
    for k in range(n_steps):
        # stage inputs u + h/2 k1, u + h/2 k2, u + h k3; the step sums into
        # u + h/6 k1, then adds h/3 k2, h/3 k3 and h/6 k4, all in place
        rhs(ends[k], u)
        np.multiply(slope, 0.5 * h, out=y)
        y += u
        slope *= h / 6.0
        np.add(u, slope, out=acc)
        rhs(halves[k], y)
        np.multiply(slope, 0.5 * h, out=y)
        y += u
        slope *= h / 3.0
        acc += slope
        rhs(halves[k], y)
        np.multiply(slope, h, out=y)
        y += u
        slope *= h / 3.0
        acc += slope
        rhs(ends[k + 1], y)
        slope *= h / 6.0
        acc += slope
        u, acc = acc, u

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
    return u.T if block else u


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
    applied to a vector, or to each column of a block, without forming the
    monodromy matrix.

    The step count is fixed once, as ``period_map`` would choose it, so every
    application integrates the same discrete flow, and the stage tables are
    built once for all applications.
    """
    n_steps = _period_steps(op, weight, lam, n_steps)
    tables = _stage_tables(op, weight, lam, 0.0, weight.period, n_steps)

    def apply(v):
        return _integrate(op, weight, lam, np.asarray(v, dtype=float), 0.0,
                          weight.period, n_steps, tables=tables)
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
    tol = ORDER_TOL * scale
    worst = max((r.max_violation for r in results), default=0.0)
    return ComparisonReport(tuple(results), worst, tol, worst <= tol)
