"""Principal spectrum points of the time-periodic dispersal flow.

The principal spectrum point is ``mu = ln(rho(Phi(T))) / T``, with ``Phi(T)``
the period map.  For a separable weight ``m1(x) + m2(t)``, and for any weight
at ``lam = 0``, the generator at each time is the time-averaged one,
``K - b + lam * m_hat``, plus a multiple of the identity, so the period map
is that generator's flow times a scalar and ``mu`` is exactly the
generator's spectral bound: the exact route takes it from the generator's
Perron vector, with no time stepping, and reports ``time_error`` 0.  Below
``_KRYLOV_MIN_N`` = 192 nodes that vector comes from LAPACK on the formed
symmetric generator, from 192 nodes on from Lanczos on vectors.

Any other point, and one whose Perron vector solve fails, is time stepped
at three levels, ``n/4``, ``n/2`` and ``n`` steps.  The Strang stepper of
``evolution`` is symmetric, so its error expands in even powers of the step,
and the two-level value ``two(n) = (4 mu_n - mu_{n/2}) / 3`` cancels the
``h^2`` term.  The point reports ``mu = two(n)`` with the time bar
``time_error = 2 |two(n/2) - two(n)| / (2^p - 1)``: the error of ``two(n)``
when the two-level error falls by ``2^p`` per halving, with a safety factor
of 2.  Where the dispersal factor is the exact ``E`` the observed order is
``p = 4`` (travelling wave at ``lam`` 13.77, n = 128: 4.8e-5, 4.0e-6, 2.6e-7
at 16, 32, 64 steps); on the 2-D Taylor-2 route the step is not symmetric,
its odd term shows, and ``p = 3`` (24x24 sweep weight at ``lam`` 0.25:
1.36e-7, 1.67e-8, 1.96e-9).  A caller's ``n_steps`` is rounded up to a
multiple of 4, raised to ``LADDER_MIN_STEPS`` = 32 if below it, and used as
``n``, so the coarsest level never takes fewer than 8 steps.  Without one,
``n`` is the least power of two from 32 whose bar is at most ``TIME_TOL``,
each rung adding one finer level to the ones before; the ladder stops at
``default_n_steps`` rounded up to a power of two.  The choice reads only the
problem and ``lam``, never an earlier coupling, so a point is the same bits
whatever ran before it and in whatever thread.

Each level is one Arnoldi solve (``_arnoldi_top``) for the Perron root of
its map, applied to vectors (``period_action``): from 3 nodes on no route
forms the ``n x n`` map, and a map on 1 or 2 nodes is formed from its
columns for LAPACK.  Arnoldi tests its top Ritz pair after every
application from ``min(n, 8)`` vectors on and stops once the Ritz estimate
of the relative residual, in the sup norm that the verdict reads, is below
``ARNOLDI_TOL``, so a map whose Perron root stands well apart takes 8
applications: every level of the travelling wave (n = 128 and 512) and of
the cusp does.  ARPACK, used before, filled its 20-vector basis first and
took 21 (Lehoucq, Sorensen & Yang, ARPACK Users' Guide, SIAM 1998).  After
``ARNOLDI_BASIS`` vectors it restarts by Krylov-Schur (``_thick_restart``).
Every level starts by one rule: the coarsest from the time-averaged
generator's Perron vector (from the constant field when that solve has
failed), the second from the first level's Perron vector, and each later
one from ``max(phi + (phi - prev) / 4, 0)``, with ``phi`` and ``prev`` the
Perron vectors of the two levels below.  The splitting error of a level's
vector leads with ``h^2``, as its ``mu``'s does, so that is the ``h^2``
Richardson prediction of the level's own vector; it keeps an entry of at
least 1 at ``phi``'s sup, so it never vanishes.  From the level
below's vector, an ``O(h^2)`` error away from its own, the finest level
took 16-26 applications on ``upper_bound``'s Dirichlet non-separable weight
(n = 128) and 14-19 on ``sweep_2d``'s sampled 24x24 one at the bench's
seeds 1 to 3; from the prediction it takes 8-16 and 8-12.
The eigenfunction, the residual and so the verdict come from the finest
level's map, and only that level spends an application on its residual.
Every map is nonnegative by construction, so no entry is checked.
Every product of ``K`` with a vector here (Lanczos, the vector periods, the
frozen generator's image) goes through ``op.matvec`` or ``op.dispersal``,
which in 2-D read the factored kernel stencil instead of the dense ``K`` from
256 nodes on, so the 2-D exact and Arnoldi routes never read ``K`` there.
The dense frozen solve below 192 nodes forms its generator from ``K``.

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
from dataclasses import dataclass

import numpy as np

from .evolution import default_n_steps, period_action
from .geometry import Boundary
from .operator import DispersalOperator
from .weights import Weight, summarize, time_average

# a dominant Ritz value is real when its imaginary part is below this, relative
POWER_REL_TOL = 1e-12
# Arnoldi's tolerance on the Ritz estimate of the relative residual.  On the
# bench's outputs at seeds 1 to 3 every residual stays at or below 9.6e-11
# (up to 1.5e-11 under ARPACK at 1e-8, whose mu was at most 4.6e-13 away).
# Traced rounds at seeds 1 to 3 take 785-817 map applications on
# threshold_kpp_1d (1500 under ARPACK) and 208-215 on sweep_2d (266-276).
# Estimated in the 2-norm, beta_j |e_j^T y| <= ARNOLDI_TOL |theta|, with each
# finer level started from the level below's vector, the rounds took 864-892
# and 244-250 (844-878 and 232-240 in the sup norm) and left a residual of
# 1.05e-10.
ARNOLDI_TOL = 1e-10
# the least basis from which Arnoldi may stop, the basis after which it
# restarts, the Schur vectors a restart keeps, and the restarts it may take.
# No solve of the bench's rounds restarts: the largest of 261 (seeds 1 to 3)
# takes 34 applications.  Nor did any of 214 solves on 2-D Neumann 48x48, 1-D
# periodic n = 512 and kernels of radius 0.03 to 0.1 whose top eigenvalues
# are close, warm from the level below or from the constant start: the
# largest took 38.  Under the Richardson start the largest of 81 solves on a
# like set takes 40, a coarsest level that stops at the first basis' last
# vector (48x48 at lam 0.5).  The cyclic shift on 64 nodes, whose spectrum
# is the unit circle, needs the restarts and converges in 198 applications
ARNOLDI_MIN_BASIS = 8
ARNOLDI_BASIS = 40
ARNOLDI_KEEP = 20
ARNOLDI_RESTARTS = 20
# the Ritz estimate to which Arnoldi refines a vector with an entry below
# -CLAMP_TOL.  On 1-D Neumann n = 256 (radius 0.05, lam 2) the Perron vector
# falls to 7e-13; at an estimate of ARNOLDI_TOL its computed vector read
# -1.5e-11 there, and one more application resolved it
ARNOLDI_FLOOR = 1e-14
TOL_EIG = 1e-8  # the verdict's eigen-residual bound: relative to r = exp(mu T) on a map
# the time bar a ladder point must meet.  Two-level errors against 2048
# steps at 16, 32 and 64 steps: 4.8e-5, 4.0e-6, 2.6e-7 on the travelling wave
# at lam 13.77 (n = 128); 2.4e-8, 1.5e-9, 9.5e-11 on the Dirichlet
# non-separable weight at lam 1.108; 1.4e-7, 1.7e-8, 2.0e-9 on the sampled
# 24x24 sweep weight at lam 0.25.  The smallest grid difference among them
# (N = 64 -> 128 on the Dirichlet weight) is 4.4e-5, 44 times this.
TIME_TOL = 1e-6
# the ladder's first rung, and the least step count of any time-stepped
# point's finest level, so a coarsest level takes at least 8 steps.  A 4-step
# level is not yet asymptotic: on the Dirichlet weight above, shifted in time
# by k/64 of the period, the 16-step error read 2.37e-8 at every k, but its
# bar from levels of 4, 8 and 16 steps ranged over 3.8e-9 to 1.1e-7 (6.2
# times too small at k = 6).  From levels of 8, 16 and 32 it read 2.95e-9 at
# every k, against an error of 1.51e-9.
LADDER_MIN_STEPS = 32
CLAMP_TOL = 1e-12  # rounding-level negatives of a Perron vector, clamped to zero
# From this many nodes on, the frozen generator is solved by Lanczos on
# vectors, below it by LAPACK on the formed generator (``_frozen_perron``)
_KRYLOV_MIN_N = 192


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
    residual: float                   # |M phi - r phi| / r, or the generator's (exact route)
    h_hat_min: float
    h_hat_max: float
    iterations: int
    localization_width: float         # eigenfunction mass fraction of the domain
    time_error: float = 0.0           # bar on mu's time-stepping error; 0 on the exact route
    n_steps: int = 0                  # the finest level's steps; 0 on the exact route

    @property
    def is_principal_eigenvalue(self) -> str:
        """'yes' when mu clears the envelope sup with a converged eigenpair, else 'marginal'.

        Converged means ``residual < TOL_EIG``: relative to the map's ratio on a
        time-stepped point, in units of ``mu`` on the exact route.

        A point on the envelope sup reads 'marginal' whatever its residual: on
        one grid a dominant eigenvector always exists, and whether the continuum
        problem has an eigenfunction there shows only under refinement (see
        ``refinement_diagnostics``).
        """
        gap_tol = 1e-6 * (1.0 + abs(self.mu_n))
        if self.mu_n > self.h_hat_max + gap_tol and self.residual < TOL_EIG:
            return "yes"
        return "marginal"


def _frozen_perron(op: DispersalOperator, m_hat: np.ndarray, lam: float) -> np.ndarray | None:
    """Perron vector of the time-averaged generator ``K - b + lam * m_hat``, or None.

    ``K`` plus the shifted diagonal is symmetric.  Below ``_KRYLOV_MIN_N``
    nodes its top eigenpair comes from LAPACK (``scipy.linalg.eigh`` on the
    formed matrix, that one pair only); from there on from Lanczos (ARPACK
    through ``scipy.sparse.linalg.eigsh``) applied to vectors, so no ``n x n``
    matrix is formed.  One call for ``m_hat = cos(2 pi x) - 0.2`` at
    ``lam`` = 2, Lanczos against LAPACK (median of 30, one BLAS thread):
    1.01 against 0.14 ms on 1-D Dirichlet at n = 64, 1.86 against 0.43 ms
    at n = 128, 2.68 against 1.01 ms at n = 192, and 1.68 against 0.44 ms
    (Neumann) and 1.31 against 0.43 ms (periodic) at n = 128.  The diagonal
    is shifted by ``max(0, -min) + 1`` to make it positive, so a positive
    eigenvector belongs to the spectral radius: the constant start is
    returned when it is one to rounding, as Lanczos would restart from a
    random vector: when its image is constant to ``n`` eps (a row of ``K``
    sums ``n`` products) of its summands' sizes,
    ``max(K 1) + max b + |lam| max|m_hat| + shift``, as a time average that
    is constant only to rounding enters times ``lam``.  Periodic travelling
    waves (n = 64 and 128, ``lam`` up to 500) spread by at most 10.7 eps of
    that sum, and at ``lam`` 50 by up to 88 eps of the image's largest entry;
    LAPACK spent 0.7 ms per point to return the constant field to 1.3e-14.
    Otherwise the vector is scaled to sup 1 at a positive entry; None when
    the solver fails or the vector has a substantive negative entry.  It is
    the exact route's eigenfunction for a separable weight and Arnoldi's
    start for any other.
    """
    diag = -op.b + lam * m_hat
    shift = max(0.0, -float(diag.min())) + 1.0
    diag = diag + shift

    def matvec(v):
        v = v.ravel()
        return op.matvec(v) + diag * v

    start = np.ones(op.n)
    k1 = op.matvec(start)
    image = k1 + diag
    size = float(k1.max() + op.b.max()) + abs(lam) * float(np.abs(m_hat).max()) + shift
    if float(image.max() - image.min()) <= op.n * np.finfo(float).eps * size:
        return start
    if op.n < _KRYLOV_MIN_N:
        # imported here: loading scipy.linalg would slow ``import perispec``
        from scipy.linalg import LinAlgError, eigh
        try:
            _, vecs = eigh(op.K + np.diag(diag), subset_by_index=[op.n - 1, op.n - 1])
        except LinAlgError:
            return None
    else:
        # imported here: loading scipy.sparse.linalg would slow ``import perispec``
        from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh
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


def _top_pair(H: np.ndarray):
    """The eigenpair of largest modulus of a small matrix, by LAPACK's ``eig``."""
    vals, vecs = np.linalg.eig(H)
    top = int(np.argmax(np.abs(vals)))
    return complex(vals[top]), vecs[:, top]


def _arnoldi_top(apply, n: int, start: np.ndarray, tol: float):
    """``(theta, x, applications)``: the Ritz pair of largest modulus of a
    map given only as ``apply``, by Arnoldi from ``start``.

    Each application extends the orthonormal basis by classical Gram-Schmidt
    run twice (CGS2), which keeps it orthogonal to rounding.  From
    ``min(n, ARNOLDI_MIN_BASIS)`` vectors on, the top Ritz pair
    ``(theta, x = V y)`` of the Hessenberg matrix is tested after every
    application.  Its residual is ``beta_j (e_j^T y) v_{j+1}``, and the solve
    stops at the first estimate ``beta_j |e_j^T y| |v_{j+1}|_inf / |x|_inf <=
    tol |theta|``, that residual in the sup norm of ``x`` scaled to sup 1, as
    ``_residual`` reads it, or when the basis spans the whole space.  A Ritz
    vector with an entry below ``-CLAMP_TOL`` (at sup 1) goes on to
    ``ARNOLDI_FLOOR``: a Perron vector's entries near 0 are resolved only to
    the vector's error, and a vector that keeps its negative entry there has
    one.  A basis that closes on an invariant subspace before ``n`` vectors
    goes on from a direction drawn from a generator seeded here, so the bits
    depend on nothing outside the call.  The first such subspace may miss
    the Perron vector (a start that is another eigenvector), so the solve
    does not stop there; once a drawn direction is in the basis, the
    subspace holds the Perron vector, its Ritz pairs are exact, and the test
    stops it.  Between full ``eig`` solves of the Hessenberg matrix, every
    ``ARNOLDI_MIN_BASIS`` vectors and wherever the test passes, the pair is
    carried to the next basis by one step of inverse iteration shifted by
    the last ``theta``: one ``k x k`` solve, 16 against 65 us for ``eig`` at
    16 vectors and 24 against 286 us at 34 (one BLAS thread).  After
    ``ARNOLDI_BASIS`` vectors the solve restarts (``_thick_restart``), at
    most ``ARNOLDI_RESTARTS`` times.
    """
    basis = min(n, ARNOLDI_BASIS)
    least = min(n, ARNOLDI_MIN_BASIS)
    floor = n * np.finfo(float).eps
    rng = None
    count = 0
    V = np.zeros((basis + 1, n))
    H = np.zeros((basis + 1, basis))
    x = np.asarray(start, dtype=float)
    V[0] = x / np.linalg.norm(x)
    first = 0
    for _ in range(ARNOLDI_RESTARTS + 1):
        y = None
        for j in range(first, basis):
            w = apply(V[j])
            count += 1
            size = np.linalg.norm(w)
            h = V[:j + 1] @ w
            w = w - h @ V[:j + 1]
            again = V[:j + 1] @ w
            w -= again @ V[:j + 1]
            H[:j + 1, j] = h + again
            beta = np.linalg.norm(w)
            k = j + 1
            if beta > floor * size:
                H[k, j] = beta
                V[k] = w / beta
            elif k < n:
                drawn = rng is not None
                if not drawn:
                    rng = np.random.default_rng(0)
                w = rng.uniform(-1.0, 1.0, n)
                w -= (V[:k] @ w) @ V[:k]
                w -= (V[:k] @ w) @ V[:k]
                V[k] = w / np.linalg.norm(w)
                y = None
                if not drawn:
                    continue
            if k < least:
                continue
            Hk = H[:k, :k]
            exact = y is None or k % ARNOLDI_MIN_BASIS == 0 or k == basis
            if not exact:
                shift = theta.real if theta.imag == 0.0 else theta
                try:
                    z = np.linalg.solve(Hk - shift * np.eye(k), np.append(y, 0.0))
                except np.linalg.LinAlgError:
                    exact = True
                else:
                    y = z / np.linalg.norm(z)
                    theta = complex(np.vdot(y, Hk @ y))
            while True:
                if exact:
                    theta, y = _top_pair(Hk)
                x = (y @ V[:k]).real
                estimate = H[k, j] * abs(y[-1]) * np.abs(V[k]).max() / np.abs(x).max()
                if k < n and estimate > tol * abs(theta):
                    break
                if not exact:
                    exact = True
                    continue
                if (k == n or estimate <= ARNOLDI_FLOOR * abs(theta)
                        or float((x / x[int(np.argmax(np.abs(x)))]).min()) >= -CLAMP_TOL):
                    return theta, x, count
                break
        first = _thick_restart(V, H, x)
    raise PowerIterationError(
        f"Arnoldi did not converge in {count} applications "
        f"({ARNOLDI_RESTARTS} restarts of {basis} vectors)")


def _thick_restart(V: np.ndarray, H: np.ndarray, x: np.ndarray) -> int:
    """Restart a full Arnoldi basis in place; returns the vectors kept.

    Krylov-Schur (Stewart, SIAM J. Matrix Anal. Appl. 23(3), 2001): the real
    Schur form of the Hessenberg matrix, sorted so the ``ARNOLDI_KEEP`` Ritz
    values of largest modulus lead, keeps their Schur vectors ``V Q`` and
    the residual direction, and the kept block ``T`` with the row
    ``beta e_j^T Q`` below it stands for ``H``.  The next application
    extends that basis, and the Ritz estimate keeps its form.  Where the
    sort fails the basis starts again from the Ritz vector ``x`` alone.
    """
    # imported here: loading scipy.linalg would slow ``import perispec``
    from scipy.linalg import LinAlgError, schur

    basis = H.shape[1]
    beta = H[basis, basis - 1]
    moduli = np.sort(np.abs(np.linalg.eigvals(H[:basis])))[::-1]
    cut = 0.5 * (moduli[ARNOLDI_KEEP - 1] + moduli[ARNOLDI_KEEP])
    try:
        T, Q, kept = schur(H[:basis], output="real",
                           sort=lambda re, im: math.hypot(re, im) > cut)
    except LinAlgError:
        kept = 0
    H[:] = 0.0
    if not 0 < kept < basis:
        V[0] = x / np.linalg.norm(x)
        return 0
    V[:kept] = Q[:, :kept].T @ V[:basis]
    V[kept] = V[basis]
    H[:kept, :kept] = T[:kept, :kept]
    H[kept, :kept] = beta * Q[basis - 1, :kept]
    return kept


def _krylov_perron(apply, n: int, start: np.ndarray | None = None,
                   tol: float = ARNOLDI_TOL):
    """Perron (ratio, vector, applications) of a map given only as ``apply``.

    Arnoldi (``_arnoldi_top``, to ``tol``) runs from ``start``, or
    from the constant field without one; on at most ``ARNOLDI_MIN_BASIS``
    nodes it spans the whole space before its first test.  A map on 1 or 2
    nodes is formed from its columns, and LAPACK's ``eig`` gives its
    eigenpair of largest modulus, so a two-node point is LAPACK's root of
    the formed map to the bit.  The vector is
    the real part of the eigenvector, scaled to sup 1; rounding-level
    negatives are clamped, larger ones are an error, as is a root that is not
    real and positive (a zero map gives 0) and a solve that does not
    converge.  Every application is counted; the residual is the caller's
    (``_residual``).
    """
    if n < 3:
        vals, vecs = np.linalg.eig(np.stack([apply(e) for e in np.eye(n)], axis=1))
        top = int(np.argmax(np.abs(vals)))
        root, v, count = complex(vals[top]), vecs[:, top].real, n
    else:
        root, v, count = _arnoldi_top(apply, n, np.ones(n) if start is None else start, tol)
    if not root.real > 0.0 or abs(root.imag) > POWER_REL_TOL * abs(root):
        raise PowerIterationError(f"dominant Ritz value {root} is not a positive real root")
    ratio = root.real
    v = v / v[int(np.argmax(np.abs(v)))]
    worst = float(v.min())
    if worst < -CLAMP_TOL:
        raise PowerIterationError(
            f"dominant Ritz vector has a negative entry {worst:.3e}; it is not a Perron vector")
    v[v < 0.0] = 0.0
    return ratio, v, count


def _residual(apply, ratio: float, v: np.ndarray) -> float:
    """``|M v - r v|_inf / r`` of a map's Perron pair, at one more application:
    the same number for the map ``c M``, so ``mu T`` far from 0 neither
    hides a defect nor fails on rounding."""
    return float(np.abs(apply(v) - ratio * v).max()) / ratio


def localization_width(phi: np.ndarray, w: np.ndarray) -> float:
    """Participation-ratio width of a field, as a fraction of the domain."""
    mass2 = float(np.dot(w, phi * phi))
    mass4 = float(np.dot(w, phi ** 4))
    volume = float(w.sum())
    if mass4 == 0.0:
        return 0.0
    return mass2 * mass2 / mass4 / volume


def _report(op: DispersalOperator, lam: float, h: np.ndarray, mu: float, phi: np.ndarray,
            residual: float, iterations: int, time_error: float = 0.0,
            n_steps: int = 0) -> SpectrumReport:
    """The one constructor of ``SpectrumReport``; ``h`` is the envelope ``-b + lam * m_hat``."""
    return SpectrumReport(mu_n=mu, lam=float(lam), eigenfunction=phi, residual=residual,
                          h_hat_min=float(h.min()), h_hat_max=float(h.max()),
                          iterations=iterations,
                          localization_width=localization_width(phi, op.quad_weights),
                          time_error=time_error, n_steps=n_steps)


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

    The route follows the weight's structure, ``lam`` and the grid size (see
    the module docstring).  On the exact route ``iterations``, ``n_steps``
    and ``time_error`` read 0 and ``residual`` is the frozen generator's
    eigen-residual.  Otherwise ``mu`` is the two-level value at ``n_steps``
    (rounded up to a multiple of 4 and raised to ``LADDER_MIN_STEPS``; the
    ladder's choice when None) with its time bar, ``iterations`` counts every
    level's map applications (Arnoldi's and the finest level's residual), and
    the eigenfunction and the relative residual ``|M phi - r phi| / r`` are
    the finest map's.  An ``n_steps`` below 1 raises ``ValueError``, on
    either route, as ``period_action``'s does.
    """
    if n_steps is not None and n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    summary = summarize(weight, op.grid)
    m_hat = summary.m_hat
    exact = summary.separable or lam == 0.0
    if exact:
        report = _frozen_point(op, m_hat, lam)
        if report is not None:
            return report
    if n_steps is None:
        n_steps = LADDER_MIN_STEPS
        cap = 1 << (default_n_steps(weight.period, lam, summary.sup_abs) - 1).bit_length()
    else:
        n_steps = max(LADDER_MIN_STEPS, n_steps + -n_steps % 4)
        cap = n_steps
    order = 4 if op.exact_dispersal else 3
    # an exact point is here only because its frozen solve failed
    start = None if exact else _frozen_perron(op, m_hat, lam)
    steps = n_steps // 4
    logs, two = [], []
    iterations = 0
    prev = None
    while True:
        apply = period_action(op, weight, lam, steps)
        ratio, phi, count = _krylov_perron(apply, op.n, start)
        iterations += count
        # from the third level on, the h^2 Richardson prediction of the next
        # level's vector; it keeps an entry >= 1 at phi's sup, so it never
        # vanishes
        start = phi if prev is None else np.maximum(phi + (phi - prev) / 4.0, 0.0)
        prev = phi
        logs.append(math.log(ratio))
        if len(logs) > 1:
            two.append((4.0 * logs[-1] - logs[-2]) / (3.0 * weight.period))
        if len(two) > 1:
            bar = 2.0 * abs(two[-2] - two[-1]) / (2 ** order - 1)
            if bar <= TIME_TOL or 2 * steps > cap:
                break
        steps *= 2
    return _report(op, lam, -op.b + lam * m_hat, two[-1], phi, _residual(apply, ratio, phi),
                   iterations + 1, bar, steps)


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
