"""Strang splitting propagation of the linear dispersal flow and of the KPP flow.

One step of length ``h`` from ``t_k`` is a half step of the reaction, one step
of the dispersal flow ``u' = K u - b u``, and the reaction's half step again
(Strang, SIAM J. Numer. Anal. 5, 1968; Hochbruck & Ostermann, Acta Numerica
19, 2010).  For the linear flow a reaction half step is the diagonal factor
``exp(z)``, with ``z`` ``lam`` times the integral of ``m`` over the half step
``[s, s + h/2]``.
The dispersal step is ``P = op.dispersal(h)``: the exact ``exp(h (K - b))``
in 1-D, a shifted Taylor-2 step in 2-D (see ``operator``).  Both factors are
nonnegative, so the period map, a product of them, is nonnegative by
construction: nothing is clamped.  The KPP flow of ``kpp`` hands in its own
reaction half steps.  Every integration, a period map, a vector period, a
trajectory, an order check or a KPP period, is one ``_flow`` handle: it
fetches the reaction factors and the dispersal step once, and each of its
runs steps a state through them.

A closed form's integral is the trapezoid rule
``h/4 * lam * (m(s) + m(s + h/2))``, on the lattice of half steps.  A sampled
weight is linear in time between its samples, and its integral is exact
(``Weight.antiderivative``): the trapezoid rule is exact for it only when the
samples lie on the half-step lattice, which 16 steps over 64 samples miss,
and then the levels' errors follow no smooth expansion (on the 2-D sweep
weight at ``lam`` = 0.25 the two-level error read -1.9e-8, +1.0e-7 and
-2.0e-9 at 16, 32 and 64 steps).  Freezing ``m`` at the step's midpoint
instead was 10 to 30 times further off on closed forms (travelling wave
7.4e-8 against 3.0e-9).

The second half step of step k and the first of step k + 1 meet between two
dispersal steps and act as one merged factor, except where a state is
recorded in between.  So a step costs one product with ``P`` (one GEMM with
a formed ``P`` for a period map's ``n x n`` state) and one diagonal
scaling.  The weight values come from one ``Weight.table`` (or
``Weight.antiderivative``) call per weight, grid, interval and step count,
kept with the weight and scaled by ``lam`` for each ``_flow`` handle.

The scheme is symmetric, so its error expands in even powers of ``h``:
``spectrum`` combines the maps of ``n/4``, ``n/2`` and ``n`` steps into a
two-level value and its time bar, and picks ``n`` by that bar.  A state is a
vector or an ``n x m`` block of columns.  Every run owns
its buffers, and ``P`` is read-only, so concurrent calls stay deterministic.
The flow's one failure is leaving the floating-point range: a diagonal factor
or the state overflows, and ``UnstableStepError`` says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operator import DispersalOperator
from .weights import Weight, kept_table, sup_abs

MIN_STEPS_PER_PERIOD = 64
ORDER_TOL = 1e-10  # order violations of the discrete flow, relative to the state's scale


class UnstableStepError(RuntimeError):
    """Raised when the state leaves the floating-point range, or the KPP flow
    its invariant region."""


def default_n_steps(period: float, lam: float, m_sup: float) -> int:
    """Step count ``max(64, ceil(8 T (1 + |lam| sup|m|)))``.

    The count of a KPP orbit, of ``propagate``, ``period_map`` and
    ``period_action`` called without one, and, rounded up to a power of two,
    the cap of a spectrum point's step ladder, which otherwise sets its
    count from a measured time bar (``spectrum``).  The splitting is stable
    and nonnegative at any step, as its diagonal factor is exact, so the
    ``lam`` term serves accuracy, not stability: it keeps a step's exponent
    ``h |lam| sup|m|`` below 1/8.
    """
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


def _half_steps(op: DispersalOperator, weight: Weight, lam: float, t0: float, t1: float,
                n_steps: int) -> np.ndarray:
    """``z[j] = lam * int m`` over the half step ``[s_j, s_j + h/2]``,
    ``s_j = t0 + j h/2``: the exponents of the ``2 n_steps`` reaction half
    steps over ``[t0, t1]``, step k made of half steps 2k and 2k + 1.  A
    sampled weight's interpolant is integrated exactly
    (``Weight.antiderivative``), a closed form by the trapezoid rule,
    ``h/4 * lam * (m(s_j) + m(s_j + h/2))``.  The differences of the
    antiderivative, or the sums ``m(s_j) + m(s_j + h/2)``, do not depend on
    ``lam``: one table call per weight, grid, ``[t0, t1]`` and ``n_steps``
    builds them, kept by ``weights.kept_table``, and each call multiplies."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    h = (t1 - t0) / n_steps

    def sums():
        times = t0 + np.arange(2 * n_steps + 1) * (0.5 * h)
        if weight.samples is not None:
            return np.diff(weight.antiderivative(times, op.grid), axis=0)
        m = weight.table(times, op.grid)
        return m[:-1] + m[1:]
    table = kept_table(weight, op.grid, ("half_steps", t0, t1, n_steps), sums)
    if weight.samples is not None:
        return lam * table
    return (0.25 * h * lam) * table


def _linear_reaction(z: np.ndarray, tau: float):
    """``react(u, j, merge)``: the linear flow's half step j, ``u *= exp(z[j])``,
    in place; with ``merge`` the half steps j and j + 1 as one factor.  A block's
    rows are scaled.  ``tau`` (the half step's length) is not needed, as the
    factor is exact.  Raises when a factor overflows."""
    with np.errstate(over="ignore"):
        f = np.exp(z)
        merged = f[:-1] * f[1:]
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(merged))):
        raise UnstableStepError(
            f"the diagonal factor exp(h/2 * lam * m) overflows (exponent up to "
            f"{float(z.max()):.3e} per half step); the state would leave the "
            "floating-point range")

    def react(u, j, merge):
        c = merged[j] if merge else f[j]
        u *= c[:, None] if u.ndim == 2 else c
    return react


def _flow(op: DispersalOperator, weight: Weight, lam: float, t0: float, t1: float,
          n_steps: int, reaction=_linear_reaction):
    """``run(state, record_every=None, ceiling=None)``: the Strang flow over
    ``[t0, t1]`` in ``n_steps`` steps, for vector and block states.

    The reaction's half steps ``reaction(z, h/2)`` (``_linear_reaction``, or
    ``Nonlinearity.reaction`` for the KPP flow) and the dispersal step
    ``op.dispersal(h)`` are fetched here, once for every ``run``, so a caller
    that integrates many times (an Arnoldi solve, an orbit) keeps its factor
    however the operator's cache moves on.  ``run`` returns the final state,
    or a ``Trajectory`` of every ``record_every``-th step and the last.  With
    ``ceiling`` (the KPP flow) the state's sup must stay at or below it after
    every step; the final state must be finite in any case.
    """
    z = _half_steps(op, weight, lam, t0, t1, n_steps)
    h = (t1 - t0) / n_steps
    react = reaction(z, 0.5 * h)
    disperse = op.dispersal(h)

    def run(state, record_every: int | None = None, ceiling: float | None = None):
        if record_every is not None and record_every < 1:
            raise ValueError(f"record_every must be at least 1, got {record_every}")
        u = np.array(state, dtype=float, order="C")
        buf = np.empty_like(u)
        times = [t0]
        states = [u.copy()] if record_every else None
        # an overflow shows as a non-finite state below, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            react(u, 0, False)
            for k in range(n_steps):
                disperse(u, buf)
                u, buf = buf, u
                last = k + 1 == n_steps
                record = bool(record_every) and ((k + 1) % record_every == 0 or last)
                if last or record:
                    react(u, 2 * k + 1, False)
                    if record:
                        times.append(t0 + (k + 1) * h)
                        states.append(u.copy())
                    if not last:
                        react(u, 2 * k + 2, False)
                else:
                    react(u, 2 * k + 1, True)
                if ceiling is not None and not float(u.max()) <= ceiling:
                    raise UnstableStepError(
                        f"state left the invariant region near t={t0 + (k + 1) * h:.6g} "
                        f"(sup {float(u.max()):.3e}, ceiling {ceiling:.3e}); refine n_steps")
        if not np.all(np.isfinite(u)):
            raise UnstableStepError(
                f"the state left the floating-point range over [{t0:.6g}, {t1:.6g}] "
                f"with n_steps={n_steps}")
        if record_every:
            states = np.stack(states)
            return Trajectory(np.array(times), states, np.abs(states).max(axis=1))
        return u
    return run


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
    return _flow(op, weight, lam, t0, t1, n_steps)(u0, record_every)


def period_map(op: DispersalOperator, weight: Weight, lam: float,
               n_steps: int | None = None) -> PeriodMap:
    """Monodromy matrix over one weight period: nonnegative by construction."""
    if n_steps is None:
        n_steps = default_n_steps(weight.period, lam, sup_abs(weight, op.grid))
    mat = _flow(op, weight, lam, 0.0, weight.period, n_steps)(np.eye(op.n))
    mat.setflags(write=False)
    return PeriodMap(mat, float(lam), weight.period, n_steps)


def period_action(op: DispersalOperator, weight: Weight, lam: float,
                  n_steps: int | None = None):
    """The map ``v -> Phi(T, 0) v``: one weight period of the linear flow
    applied to a vector, or to each column of a block, without forming the
    monodromy matrix: the ``_flow`` handle over ``[0, T]``.

    The step count is fixed once, as ``period_map`` would choose it, so every
    application integrates the same discrete flow, and the diagonal factors
    and the dispersal step are fetched once for all applications.
    """
    if n_steps is None:
        n_steps = default_n_steps(weight.period, lam, sup_abs(weight, op.grid))
    return _flow(op, weight, lam, 0.0, weight.period, n_steps)


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
        lo = _flow(op, w_lo, lam, 0.0, t1, steps)(u_lo)
        hi = _flow(op, w_hi, lam, 0.0, t1, steps)(u_hi)
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
