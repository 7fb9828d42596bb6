"""Principal spectrum points of the time-periodic dispersal flow.

The principal spectrum point is ``mu = ln(rho(Phi(T))) / T``, with ``Phi(T)``
the period map.  For a separable weight ``m1(x) + m2(t)`` the generator at
each time is the time-averaged one, ``K - b + lam * m_hat``, plus a multiple
of the identity, so the period map is that generator's flow times a scalar
and ``mu`` is exactly the generator's spectral bound: the exact route takes
it from the generator's Perron vector (Lanczos on vectors), with no time
stepping.  Any other weight, and a separable one whose Lanczos solve fails,
takes one Arnoldi solve (ARPACK via ``scipy.sparse.linalg.eigs``) for the
Perron root of the time-stepped map; only the map's form follows the grid
size ``n``.  Below ``_KRYLOV_MIN_N`` = 256 nodes Arnoldi applies the formed
``n x n`` map, started from the constant field; from 256 nodes on it applies
vector periods, started from the generator's Perron vector, as a dense map
costs ``n^3`` per time step and a vector period ``n^2`` (the crossover is
measured on non-separable weights).  ``period_map`` checks every entry of a
formed map for negative values; after vector periods, the map's columns at
the lowest-envelope nodes are checked instead.  Every product of ``K`` with a
vector here (Lanczos, the vector periods, the probe's block, the frozen
generator's image) goes through ``op.matvec``, which in 2-D reads the
factored kernel stencil instead of the dense ``K``, so the 2-D exact and
Arnoldi routes never read ``K``.

Whether ``mu`` is attained by an actual eigenfunction (rather than marking the
edge of the essential part of the spectrum) is decided by comparing ``mu``
against the sup of the local growth envelope ``h(x) = -b(x) + lam * m_hat(x)``
together with the eigen-residual.  On a fixed grid a dominant eigenvector
always exists; the continuum's eigenvalue-free regime shows up as ``mu``
hugging the envelope sup while the eigenvector mass concentrates near the
envelope maximizer, so the classifier reads such a point "marginal" and
reports localization diagnostics rather than pretending to decide the
continuum question from one grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .evolution import CLAMP_TOL, period_action, period_map
from .geometry import Boundary
from .operator import DispersalOperator
from .weights import Weight, summarize, time_average

POWER_REL_TOL = 1e-12
TOL_EIG = 1e-8
# From this many nodes on, a weight off the exact route applies vector
# periods instead of the formed map.  Summed over lam = 0.25, 0.5, 1, 2, 4 on
# non-separable weights (parabolic kernel, 64 steps, one BLAS thread), the
# formed map with its Perron solve against vector periods: 1-D Dirichlet
# (radius 1) n = 224 0.81 s vs 0.89 s, n = 256 1.10 s vs 1.00 s; 1-D Neumann
# (radius 0.5) n = 224 0.63 s vs 0.66 s, n = 256 0.97 s vs 0.96 s; 2-D Neumann
# (radius 0.5, vectors through the factored stencil, median of 5) n = 144
# 0.24 s vs 0.50 s, n = 196 0.43 s vs 0.43 s, n = 256 1.03 s vs 0.43 s.  The
# formed map dominates its side: at n = 64 to 255 the map took 6-700 ms and
# Arnoldi on it 0.7-1.8 ms.
_KRYLOV_MIN_N = 256
# A too-coarse step count turns the flow negative first where the envelope
# is lowest.  In 51 such 1-D cases at n = 256 (Lorentzian wells, 8 to 48
# steps) whose Perron vector stayed nonnegative, the map's columns at the 8
# lowest-envelope nodes held a negative entry in all 51, at the lowest node
# alone in 40.
_PROBE_COLUMNS = 8


class PowerIterationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SConditions:
    """Outcome of the three eigenvalue-sufficiency tests at a given ``lam``.

    s1: smooth envelope with a flat interior maximum ("yes"/"no"/"unknown";
        decidable only from analytic metadata attached to the weight).
    s2: oscillation bound |lam| * (max m_hat - min m_hat) < min b ("yes"/"no").
    s3: divergence of the integral of 1/(h_max - h), decided by a local fit of
        the envelope near its maximizer; the fitted contact exponent always
        accompanies the verdict ("yes"/"no"/"unknown").
    """

    s1: str
    s2: str
    s3: str
    s3_exponent: float
    s2_lhs: float
    s2_rhs: float

    @property
    def any_holds(self) -> bool:
        return "yes" in (self.s1, self.s2, self.s3)


@dataclass(frozen=True)
class SpectrumReport:
    mu_n: float
    lam: float
    eigenfunction: np.ndarray | None  # sup-normalized, nonnegative
    residual: float
    h_hat_min: float
    h_hat_max: float
    iterations: int
    localization_width: float         # eigenfunction mass fraction of the domain

    @property
    def is_principal_eigenvalue(self) -> str:
        """The verdict of ``classify_principal_eigenvalue``: "yes" or "marginal"."""
        return classify_principal_eigenvalue(self)


def _frozen_perron(op: DispersalOperator, m_hat: np.ndarray, lam: float) -> np.ndarray | None:
    """Perron vector of the time-averaged generator ``K - b + lam * m_hat``, or None.

    Lanczos (ARPACK through ``scipy.sparse.linalg.eigsh``) on ``K`` plus the
    shifted diagonal, applied to vectors, so no ``n x n`` matrix is formed.
    The diagonal is shifted by ``max(0, -min) + 1`` to make it positive, so a
    positive eigenvector belongs to the spectral radius: the constant start is
    returned when it is one to rounding, as Lanczos would restart from a
    random vector.  Otherwise the vector is scaled to sup 1 at a positive
    entry; None when Lanczos does not converge or the vector has a
    substantive negative entry.  It is the exact route's eigenfunction for a
    separable weight and Arnoldi's start for any other.
    """
    # imported here: loading scipy.sparse.linalg would slow ``import perispec``
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    diag = -op.b + lam * m_hat
    diag = diag + (max(0.0, -float(diag.min())) + 1.0)

    def matvec(v):
        v = v.ravel()
        return op.matvec(v) + diag * v

    start = np.ones(op.n)
    image = matvec(start)
    if float(image.max() - image.min()) <= 16 * np.finfo(float).eps * float(image.max()):
        return start
    try:
        _, vecs = eigsh(LinearOperator((op.n, op.n), matvec=matvec, dtype=float), k=1,
                        which="LA", v0=start, tol=0)
    except ArpackError:
        return None
    v = vecs[:, 0]
    v = v / v[int(np.argmax(np.abs(v)))]
    if float(v.min()) < -CLAMP_TOL:
        return None
    v[v < 0.0] = 0.0
    return v


def _krylov_perron(apply, n: int, start: np.ndarray | None = None):
    """Perron (ratio, vector, residual, applications) of a map given only as ``apply``.

    Arnoldi (ARPACK through ``scipy.sparse.linalg.eigs``) runs from ``start``,
    or from the constant field without one.  ``eigs`` needs ``n >= 3``: a
    smaller map is formed from its ``n`` columns, and LAPACK's ``eig`` gives
    its eigenpair of largest modulus.  The vector is the real part of the
    eigenvector, scaled to sup 1; rounding-level negatives are clamped, larger
    ones are an error, as is a root that is not real and positive and an
    ARPACK failure (a zero map stops it at once).  One more application gives
    the eigen-residual; every application is counted.  A nonnegative vector
    does not show that the map is nonnegative: see ``_probe_positivity``.
    """
    # imported here: loading scipy.sparse.linalg would slow ``import perispec``
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigs

    count = 0

    def matvec(v):
        nonlocal count
        count += 1
        return apply(v.ravel())

    if n < 3:
        vals, vecs = np.linalg.eig(np.stack([matvec(e) for e in np.eye(n)], axis=1))
        top = [int(np.argmax(np.abs(vals)))]
        vals, vecs = vals[top], vecs[:, top]
    else:
        try:
            vals, vecs = eigs(LinearOperator((n, n), matvec=matvec, dtype=float), k=1,
                              which="LM", v0=np.ones(n) if start is None else start,
                              tol=POWER_REL_TOL)
        except ArpackError as exc:
            raise PowerIterationError(f"Arnoldi did not converge: {exc}") from None
    root = complex(vals[0])
    if not root.real > 0.0 or abs(root.imag) > POWER_REL_TOL * abs(root):
        raise PowerIterationError(f"dominant Ritz value {root} is not a positive real root")
    ratio = root.real
    v = vecs[:, 0].real
    v = v / v[int(np.argmax(np.abs(v)))]
    worst = float(v.min())
    if worst < -CLAMP_TOL:
        raise PowerIterationError(
            f"dominant Ritz vector has a negative entry {worst:.3e}; it is not a Perron vector")
    v[v < 0.0] = 0.0
    residual = float(np.abs(matvec(v) - ratio * v).max())
    return ratio, v, residual, count


def _probe_positivity(apply, n: int, nodes: np.ndarray) -> None:
    """Warn when the map's columns at ``nodes`` have a substantive negative entry.

    The matrix-free counterpart of the check in ``period_map``: one period of
    the unit fields at ``nodes``, integrated as one block whose columns go
    through ``op.matvec`` as vectors do.
    """
    units = np.zeros((n, len(nodes)))
    units[nodes, np.arange(len(nodes))] = 1.0
    worst = float(apply(units).min())
    if worst < -CLAMP_TOL:
        warnings.warn(f"period map has a negative entry {worst:.3e} in its columns at the "
                      "lowest-envelope nodes; the step count is too coarse for the "
                      "positivity of the flow", stacklevel=3)


def localization_width(phi: np.ndarray, w: np.ndarray) -> float:
    """Participation-ratio width of a field, as a fraction of the domain."""
    mass2 = float(np.dot(w, phi * phi))
    mass4 = float(np.dot(w, phi ** 4))
    volume = float(w.sum())
    if mass4 == 0.0:
        return 0.0
    return mass2 * mass2 / mass4 / volume


def _report(op: DispersalOperator, lam: float, h: np.ndarray, mu: float, phi: np.ndarray,
            residual: float, iterations: int) -> SpectrumReport:
    """The one constructor of ``SpectrumReport``; ``h`` is the envelope ``-b + lam * m_hat``."""
    return SpectrumReport(mu_n=mu, lam=float(lam), eigenfunction=phi, residual=residual,
                          h_hat_min=float(h.min()), h_hat_max=float(h.max()),
                          iterations=iterations,
                          localization_width=localization_width(phi, op.quad_weights))


def essential_interval(op: DispersalOperator, weight: Weight, lam: float) -> tuple[float, float]:
    """Range of the local growth envelope ``-b + lam * m_hat`` over the grid."""
    h = -op.b + lam * time_average(weight, op.grid)
    return float(h.min()), float(h.max())


def classify_principal_eigenvalue(report: SpectrumReport) -> str:
    """'yes' when mu clears the envelope sup with a converged eigenpair, else 'marginal'.

    A point on the envelope sup reads 'marginal' whatever its residual: on
    one grid a dominant eigenvector always exists, and whether the continuum
    problem has an eigenfunction there shows only under refinement (see
    ``refinement_diagnostics``).
    """
    gap_tol = 1e-6 * (1.0 + abs(report.mu_n))
    if report.mu_n > report.h_hat_max + gap_tol and report.residual < TOL_EIG:
        return "yes"
    return "marginal"


def _fit_contact_exponent(h: np.ndarray, nodes: np.ndarray, spacing: float) -> float:
    """Contact exponent q of ``h_max - h(x) ~ |x - x*|^q`` near the argmax.

    A local quadratic fit first corrects the maximizer location (the grid
    argmax is offset from the true one by up to half a cell, which would bias
    a raw log-log fit); the exponent then comes from a log-log regression
    against the corrected maximizer.  Returns inf for a flat envelope.
    """
    dim = nodes.shape[1]
    h_max = float(h.max())
    h_range = h_max - float(h.min())
    if h_range <= 1e-12 * (1.0 + abs(h_max)):
        return math.inf
    j0 = int(np.argmax(h))
    x0 = nodes[j0]
    dist = np.sqrt(np.sum((nodes - x0) ** 2, axis=1))
    n_stencil = 7 if dim == 1 else 13
    stencil = np.argsort(dist)[:n_stencil]
    delta = nodes[stencil] - x0

    # quadratic model h ~ a + g . d + d^T H d / 2 on the stencil
    cols = [np.ones(len(stencil))]
    cols += [delta[:, i] for i in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            cols.append(delta[:, i] * delta[:, j])
    design = np.stack(cols, axis=1)
    coef, *_ = np.linalg.lstsq(design, h[stencil], rcond=None)
    grad = coef[1:1 + dim]
    hess = np.zeros((dim, dim))
    idx = 1 + dim
    for i in range(dim):
        for j in range(i, dim):
            hess[i, j] += coef[idx]
            hess[j, i] += coef[idx]
            idx += 1

    # the correction is only meaningful where the quadratic model actually
    # fits; near a kink or cusp it would shift the center arbitrarily and
    # bias the exponent upward
    fit_err = float(np.abs(design @ coef - h[stencil]).max())
    local_range = float(h[stencil].max() - h[stencil].min())
    quadratic_fits = fit_err <= 0.05 * local_range

    x_star = x0
    h_star = h_max
    eigvals = np.linalg.eigvalsh(hess)
    if quadratic_fits and eigvals.max() < 0.0:
        # proper interior cap: move to the model's critical point
        shift = np.linalg.solve(hess, -2.0 * grad) * 0.5
        if np.sqrt(np.sum(shift ** 2)) <= spacing:
            x_star = x0 + shift
        h_star = max(h_max, float(coef[0] + grad @ (x_star - x0) +
                                  0.5 * (x_star - x0) @ hess @ (x_star - x0)))

    r = np.sqrt(np.sum((nodes[stencil] - x_star) ** 2, axis=1))
    d = h_star - h[stencil]
    floor = 1e-13 * (1.0 + abs(h_max))
    usable = (r > 1e-3 * spacing) & (d > floor)
    if usable.sum() < 3:
        return math.inf
    slope, _ = np.polyfit(np.log(r[usable]), np.log(d[usable]), 1)
    return float(slope)


def check_S_conditions(weight: Weight, op: DispersalOperator, lam: float) -> SConditions:
    """The S-conditions at ``lam``: they read the time average, not a spectrum point."""
    grid = op.grid
    dim = grid.dim
    m_hat = time_average(weight, grid)
    m_spread = float(m_hat.max() - m_hat.min())

    s2_lhs = abs(lam) * m_spread
    s2_rhs = float(op.b.min())
    s2 = "yes" if s2_lhs < s2_rhs else "no"

    h = -op.b + lam * m_hat
    exponent = _fit_contact_exponent(h, grid.nodes, max(grid.spacing))
    s3 = "yes" if exponent >= dim - 0.1 else "no"

    s1 = _check_s1(weight, op, lam, m_hat)
    return SConditions(s1=s1, s2=s2, s3=s3, s3_exponent=exponent, s2_lhs=s2_lhs, s2_rhs=s2_rhs)


def _check_s1(weight: Weight, op: DispersalOperator, lam: float, m_hat: np.ndarray) -> str:
    grid = op.grid
    dim = grid.dim
    if grid.boundary is Boundary.NEUMANN:
        # the envelope maximizer moves with lam through the non-constant b;
        # no analytic metadata can pin it down, so never guess
        return "unknown"
    if lam == 0.0:
        return "yes"  # constant envelope: smooth with interior maximizers
    if lam < 0.0 or weight.s1_data is None:
        return "unknown"
    data = weight.s1_data
    if len(data.maximizer) != dim:
        return "unknown"
    if data.smoothness < dim or data.flat_order < dim - 1:
        return "no"
    if not all(0.0 < c < L for c, L in zip(data.maximizer, grid.box)):
        return "no"
    # consistency: the claimed maximizer must carry the grid maximum of m_hat
    x0 = np.asarray(data.maximizer)
    j_near = int(np.argmin(np.sum((grid.nodes - x0) ** 2, axis=1)))
    spread = float(m_hat.max() - m_hat.min())
    if m_hat[j_near] < m_hat.max() - max(1e-9, 0.05 * spread):
        return "unknown"
    return "yes"


def principal_spectrum_point(op: DispersalOperator, weight: Weight, lam: float,
                             n_steps: int | None = None) -> SpectrumReport:
    """Principal spectrum point via the period-map spectral radius.

    The route follows the weight's structure and the grid size (see the
    module docstring).  On the exact route ``iterations`` reads 0 and
    ``residual`` is the frozen generator's eigen-residual.  Otherwise
    ``iterations`` counts the map's applications: Arnoldi's, one for the
    residual, and on vector periods one for the positivity probe.
    """
    summary = summarize(weight, op.grid)
    m_hat = summary.m_hat
    if summary.separable:
        report = _frozen_point(op, m_hat, lam)
        if report is not None:
            return report
    h = -op.b + lam * m_hat
    if op.n < _KRYLOV_MIN_N:
        apply = period_map(op, weight, lam, n_steps=n_steps).matrix.__matmul__
        start = None
    else:
        apply = period_action(op, weight, lam, n_steps)
        start = None if summary.separable else _frozen_perron(op, m_hat, lam)
    ratio, phi, residual, iterations = _krylov_perron(apply, op.n, start)
    if op.n >= _KRYLOV_MIN_N:
        _probe_positivity(apply, op.n, np.argsort(h, kind="stable")[:_PROBE_COLUMNS])
        iterations += 1
    return _report(op, lam, h, math.log(ratio) / weight.period, phi, residual, iterations)


def lyapunov_estimate(op: DispersalOperator, weight: Weight, lam: float,
                      u0=None, n_periods: int = 50, n_steps: int | None = None) -> float:
    """Average exponential growth rate of a propagated field.

    Propagates the field one period at a time (same discretization as the
    spectral route, no matrix formed), renormalizing each period and
    averaging the log increments over the last half of the run: an
    independent route to ``principal_spectrum_point``'s ``mu``.
    """
    if n_periods < 10:
        raise ValueError("n_periods must be at least 10")
    if u0 is None:
        u = np.ones(op.n)
    else:
        u = np.asarray(u0, dtype=float)
        if u.shape != (op.n,) or np.any(u < 0.0) or not np.any(u > 0.0):
            raise ValueError("u0 must be a nonnegative, nonzero field on the grid")
        u = u / float(np.abs(u).max())
    apply = period_action(op, weight, lam, n_steps)
    increments = np.empty(n_periods)
    for k in range(n_periods):
        u = apply(u)
        nrm = float(np.abs(u).max())
        if nrm == 0.0:
            raise PowerIterationError("field vanished during Lyapunov estimation")
        increments[k] = math.log(nrm)
        u = u / nrm
    return float(increments[n_periods // 2:].mean() / weight.period)


def _frozen_point(op: DispersalOperator, m_field: np.ndarray,
                  lam: float) -> SpectrumReport | None:
    """Spectral bound of ``K - b + lam * m_field`` from ``_frozen_perron``, or None.

    ``mu`` is the quadrature Rayleigh ratio of the Perron vector, and the
    residual its eigen-residual under the generator; ``iterations`` reads 0.
    """
    phi = _frozen_perron(op, m_field, lam)
    if phi is None:
        return None
    h = -op.b + lam * m_field
    image = op.matvec(phi) + h * phi
    w_phi = op.quad_weights * phi
    mu = float(np.dot(w_phi, image)) / float(np.dot(w_phi, phi))
    residual = float(np.abs(image - mu * phi).max())
    return _report(op, lam, h, mu, phi, residual, 0)


def autonomous_spectrum_point(op: DispersalOperator, m_field: np.ndarray, lam: float) -> SpectrumReport:
    """Spectral bound of the frozen generator ``K - b + lam * m_field``.

    For a separable weight and its time average ``m_field`` this equals the
    periodic principal spectrum point, with no time-stepping error: its report
    is the one the exact route of ``principal_spectrum_point`` returns.
    """
    point = _frozen_point(op, np.asarray(m_field, dtype=float), lam)
    if point is None:
        raise PowerIterationError("no nonnegative Perron vector of the frozen generator")
    return point


def refinement_diagnostics(report_lo: SpectrumReport, report_hi: SpectrumReport) -> dict:
    """Compare eigenfunction localization across two grid resolutions.

    Shrinking localization width under refinement is the numerical signature
    of the eigenvalue-free regime (mass concentrating at the envelope
    maximizer); stable width indicates a genuine eigenfunction.
    """
    return {
        "width_coarse": report_lo.localization_width,
        "width_fine": report_hi.localization_width,
        "width_ratio": report_hi.localization_width / max(report_lo.localization_width, 1e-300),
        "gap_coarse": report_lo.mu_n - report_lo.h_hat_max,
        "gap_fine": report_hi.mu_n - report_hi.h_hat_max,
    }
