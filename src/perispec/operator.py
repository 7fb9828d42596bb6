"""Dense discretization of the nonlocal dispersal generator.

The integral part is assembled by the Nystrom construction
``K[j, k] = kernel(x_k - x_j) * w_k``: row ``j`` is the midpoint quadrature of
the integral at node ``j``.  All entries are nonnegative, so the matrix flow
preserves ordering of states.

On the uniform midpoint grid ``x_k - x_j`` is the node offset ``k - j`` times
the spacing, and every quadrature weight is the cell volume, so ``K[j, k]``
depends on ``k - j`` alone.  The kernel (the wrapped kernel on periodic grids)
is evaluated once per offset, on a ``(2N - 1)^d`` stencil, and ``K`` is one
copy of that stencil laid out by sliding windows: Toeplitz in 1-D and
block-Toeplitz in 2-D.  Each offset is taken as ``|k - j|`` times the spacing
on every axis.  The kernels are even in each coordinate, so this changes
values by rounding at most, and it makes ``K`` exactly symmetric.

``matvec`` applies ``K`` to one vector.  In 1-D that is a GEMV with ``K``.
In 2-D ``K`` is never read: the vector, reshaped to ``V[k, l]``
(``N x N``), goes through the stencil quarter ``s[a, c]`` (offsets
``a, c >= 0``).  For the kernels here ``s`` is numerically of low rank
``R``, so ``assemble`` factors it once by a rank-revealing SVD,
``s[a, c] = sum_r P[a, r] Q[c, r]``, cut at numpy's ``matrix_rank``
tolerance ``sigma_max * N * eps``, and lays the factors out in two tables:

* ``W = V @ right``, ``right[l, (r, j)] = Q[|j - l|, r]`` (``N x RN``), so
  ``W[k, (r, j)]`` is the second-axis convolution of row ``k`` with factor
  ``r``;
* ``out = left @ W`` with ``W`` read as ``(k, r) x j`` and
  ``left[i, (k, r)] = P[|i - k|, r]`` (``N x NR``), which sums the first-axis
  convolution over ``k`` and ``r``.

The two GEMMs cost ``2 R N^3`` multiply-adds, against ``N^4`` for the GEMV,
and read tables of ``R N^2`` entries that stay in cache.  They are two
plain 2-D GEMMs: a batch axis of one cost 6% more at 24x24 (16.4 against
15.4 us).  One application, with one BLAS thread on 2-D Neumann grids with
the parabolic kernel of radius 0.5 (best of 7 rounds, the range over 3
processes; "unfactored" is the same pair of GEMMs through ``s`` itself,
``R = N``, summed by a 0/1 table).  The 2-core VM these come from changes
speed by 20-30% from one minute to the next, which the ranges include:

    ====  ==  ==========  ==========  =========
    N     R   factored    unfactored  GEMV
    ====  ==  ==========  ==========  =========
    16    5   6-9 us      9-13 us     10-13 us
    24    8   11-17 us    28-40 us    96-104 us
    32    10  35-36 us    129-134 us  349-361 us
    48    15  178-181 us  600-615 us  1.8 ms
    64    19  385-543 us  1.4-1.9 ms
    ====  ==  ==========  ==========  =========

The factored product differs from the GEMV by rounding, by the SVD's own
rounding, below the cut, and by the discarded singular values: to within a
few ulps of ``|left| (|V| |right|)`` plus ``sigma_max N eps`` and their sum,
times ``||v||_1``.

``dispersal(h)`` is one time step of length ``h`` of the dispersal flow
``u' = K u - b u``, the factor ``P`` of the Strang step in ``evolution``.  It
is built from powers of the nonnegative ``B = K - diag(b) + sigma I`` times
``exp(-h sigma)``, so it has no negative entry at any ``h``:

* 1-D, and 2-D below ``_FORMED_MIN_N`` = 256 nodes: the exact
  ``E = exp(h (K - diag b))``, formed, with ``sigma = max b``.  It comes from
  the Taylor series of ``h B``, scaled by a power of two until its norm is at
  most 1/2 and squared back; every term and every square is nonnegative.
* 2-D from 256 nodes: the Taylor-2 step
  ``exp(-h sigma) (I + h B + h^2 B^2 / 2)`` through two products by the
  stencil factors, so ``K`` is never read.  Its shift
  ``sigma = max(0, max b - 1/h)`` is the smallest that keeps every entry
  nonnegative, zero for any step with ``h max b <= 1``: then
  ``P = I + h A + h^2 A^2 / 2`` with ``A = K - diag b``, which keeps
  constants exactly where ``A`` annihilates them.  The shift
  ``max b`` instead would put its own ``h^3 (max b)^3 / 6`` defect on every
  mode.  A dense ``E`` does not pay here: at 24x24 one GEMV with it took
  75-98 us against 24-37 us for the Taylor-2 step, and building it 58-70 ms.

A formed ``E`` is built once per step size and kept with the operator, so it
is freed with the operator.  The operator keeps as many as fit in
``_FACTOR_BYTES`` = 32 MiB, and never fewer than ``_RUNG_FACTORS`` = 3, the
three levels of a spectrum point; past that the oldest goes.  At
n = 128 (128 KiB a factor) that is every step size a task touches: the
travelling wave's ``lambda_p`` touches 5, from 8 to 128 steps, and builds 5
factors, where a bound of three factors built 37 (about 1 ms each).  At
n = 2048 (32 MiB a factor) it is the three.

The subtraction field ``b`` encodes the boundary regime:

* Dirichlet-type: ``b = 1`` exactly (mass leaks into a hostile exterior);
* Neumann-type:   ``b`` = row sums of ``K``;
* periodic:       ``b`` = row sums of the wrapped-kernel matrix.

For the two mass-conserving regimes, ``b`` is taken as the row sums rather
than an independent quadrature so that the operator annihilates constants
exactly at the discrete level; the row-sum vector is the quadrature
representation of the kernel's unit mass and agrees with 1 up to the
quadrature error of the grid.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import (Boundary, Grid, Kernel, WrappedKernel, build_grid, make_kernel,
                       wrap_kernel)
from .weights import Weight, summarize

# 2-D grids form the dispersal factor as a matrix below this many nodes
_FORMED_MIN_N = 256
# formed dispersal factors kept per operator: as many as fit in this many
# bytes, so every coupling of a task shares them at small n, and never fewer
# than one rung's three levels (each is n^2 floats, 128 MiB at n = 4096)
_FACTOR_BYTES = 32 << 20
_RUNG_FACTORS = 3


@dataclass(frozen=True)
class DispersalOperator:
    kernel: Kernel | WrappedKernel
    grid: Grid
    K: np.ndarray  # (n, n), nonnegative
    b: np.ndarray  # (n,), positive
    left: np.ndarray | None = None   # (N, NR) in 2-D: left[i, (k, r)] = P[|i - k|, r]
    right: np.ndarray | None = None  # (N, RN) in 2-D: right[l, (r, j)] = Q[|j - l|, r]
    # formed dispersal factors by step size, and the lock that guards them
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False,
                                  compare=False)

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def boundary(self) -> Boundary:
        return self.grid.boundary

    @property
    def quad_weights(self) -> np.ndarray:
        return self.grid.quad_weights

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``K v`` for a vector ``v`` of length ``n``.

        A GEMV in 1-D.  In 2-D two GEMMs through the rank-``R`` factors of
        the stencil, ``2 R N^3`` multiply-adds, that never read ``K``: 11-17
        us at 24x24 (``R`` = 8) against 96-104 us for the GEMV, with the table
        for other sizes in the module docstring.
        """
        if self.left is None:
            return self.K @ v
        N = self.grid.n_per_axis
        W = np.reshape(v, (N, N)) @ self.right
        return (self.left @ W.reshape(-1, N)).ravel()

    @property
    def exact_dispersal(self) -> bool:
        """Whether ``dispersal`` steps by the formed exact ``E``; False on a
        2-D grid of ``_FORMED_MIN_N`` nodes or more, which takes Taylor-2 steps."""
        return self.grid.dim == 1 or self.n < _FORMED_MIN_N

    def dispersal_factor(self, h: float) -> np.ndarray | None:
        """The formed dispersal factor ``E`` of a step of length ``h`` (module
        docstring), or None where ``exact_dispersal`` is False.

        Built on first use for each step size and kept, read-only, with the
        operator, the oldest going first past the byte bound.
        """
        if not self.exact_dispersal:
            return None
        key = float(h)
        with self._lock:
            E = self._factors.get(key)
        if E is not None:
            return E
        sigma = float(self.b.max())
        E = _exp_nonnegative(self.K + np.diag(sigma - self.b), h)
        E *= math.exp(-h * sigma)
        E.setflags(write=False)
        with self._lock:
            E = self._factors.setdefault(key, E)
            keep = max(_RUNG_FACTORS, _FACTOR_BYTES // E.nbytes)
            while len(self._factors) > keep:
                del self._factors[next(iter(self._factors))]
        return E

    def dispersal(self, h: float):
        """``disperse(u, out)``: ``P u`` into ``out`` for one step of length
        ``h``, with ``u`` and ``out`` vectors of length ``n``, ``out``
        C-contiguous.

        A GEMV with the formed ``E``; from 256 nodes in 2-D, the Taylor-2
        step in Horner form, ``exp(-h sigma) (u + h (B u + h/2 B B u))`` (the
        factor ``exp(-h sigma)`` skipped when it is 1), on the vector's
        ``N x N`` field: each product by ``K`` is ``matvec``'s two GEMMs,
        inline, and the last one and the Horner steps write into ``out``.
        """
        E = self.dispersal_factor(h)
        if E is not None:
            def disperse(u, out):
                return np.matmul(E, u, out=out)
            return disperse
        sigma = max(0.0, float(self.b.max()) - 1.0 / h)
        scale = math.exp(-h * sigma)
        half_h = 0.5 * h
        N, left, right = self.grid.n_per_axis, self.left, self.right
        shift = (sigma - self.b).reshape(N, N)

        def disperse(u, out):
            # every temporary is the call's own: one closure may serve
            # several threads at once
            # matvec's two GEMMs on the N x N field, inline: a step through
            # two matvec calls and a copy into out took 29.1-29.6 us at
            # 24x24 against 27.1-27.2 us (best of 40, one BLAS thread)
            v, w = u.reshape(N, N), out.reshape(N, N)
            bv = left @ (v @ right).reshape(-1, N)
            bv += shift * v
            np.matmul(left, (bv @ right).reshape(-1, N), out=w)
            w += shift * bv
            w *= half_h
            w += bv
            w *= h
            w += v
            if scale != 1.0:
                w *= scale
            return out
        return disperse


def assemble(kernel: Kernel | WrappedKernel, grid: Grid) -> DispersalOperator:
    """Assemble the dense operator for ``kernel`` on ``grid``."""
    if grid.boundary is Boundary.PERIODIC:
        if not isinstance(kernel, WrappedKernel):
            raise ValueError("periodic grids need a wrapped kernel; call wrap_kernel first")
        if tuple(kernel.periods) != tuple(grid.box):
            raise ValueError(f"wrapped-kernel periods {kernel.periods} do not match the cell {grid.box}")
    elif isinstance(kernel, WrappedKernel):
        raise ValueError("wrapped kernels only make sense on periodic grids")
    if kernel.dim != grid.dim:
        raise ValueError(f"kernel dim {kernel.dim} does not match grid dim {grid.dim}")

    N = grid.n_per_axis
    axes = [np.abs(np.arange(1 - N, N)) * h for h in grid.spacing]
    offsets = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    stencil = kernel.evaluate(offsets) * grid.quad_weights[0]
    # window a holds offset a + c - (N - 1) at position c on each axis, so with
    # the window axes reversed (a = N - 1 - j) entry [j, k] holds offset k - j
    windows = sliding_window_view(stencil, (N,) * grid.dim)[(slice(None, None, -1),) * grid.dim]
    K = np.ascontiguousarray(windows).reshape(grid.n, grid.n)
    if grid.boundary is Boundary.DIRICHLET:
        b = np.ones(grid.n)
    else:
        b = K.sum(axis=1)
    left = right = None
    if grid.dim == 2:
        left, right = _factored_tables(stencil[N - 1:, N - 1:])
    K.setflags(write=False)
    b.setflags(write=False)
    return DispersalOperator(kernel, grid, K, b, left, right)


def _exp_nonnegative(B: np.ndarray, h: float) -> np.ndarray:
    """``exp(h B)`` of a nonnegative matrix ``B``, with no negative entry.

    ``h B`` is halved ``s`` times until its inf-norm is at most 1/2; the
    Taylor series runs until a term's inf-norm falls below one ulp of 1 (the
    sum is at least ``I``, and the tail after it is no larger), and the sum
    is squared ``s`` times.  Every term and product is nonnegative, so there
    is no cancellation.
    """
    norm = h * float(B.sum(axis=1).max())
    squarings = math.ceil(math.log2(norm / 0.5)) if norm > 0.5 else 0
    A = B * (h / 2.0 ** squarings)
    term = np.eye(len(B))
    total = term.copy()
    k = 1
    while True:
        term = term @ A
        term /= k
        total += term
        if float(term.sum(axis=1).max()) <= np.finfo(float).eps:
            break
        k += 1
    for _ in range(squarings):
        total = total @ total
    return total


def _factored_tables(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(left, right)`` of the stencil quarter ``s`` (module docstring).

    ``s = P Q^T`` from the SVD, cut at numpy's ``matrix_rank`` tolerance,
    with the singular values carried by ``P``.
    """
    N = s.shape[0]
    U, sigma, Vt = np.linalg.svd(s)
    rank = int(np.count_nonzero(sigma > sigma[0] * N * np.finfo(float).eps))
    P, Q = U[:, :rank] * sigma[:rank], Vt[:rank].T
    dist = np.abs(np.arange(N)[:, None] - np.arange(N)[None, :])
    left = np.ascontiguousarray(P[dist]).reshape(N, N * rank)
    right = np.ascontiguousarray(Q[dist].transpose(0, 2, 1)).reshape(N, rank * N)
    left.setflags(write=False)
    right.setflags(write=False)
    return left, right


@dataclass(frozen=True)
class Problem:
    """One problem at any grid size: boundary, box, kernel profile and radius, weight."""

    boundary: Boundary
    box: tuple[float, ...]
    profile: str
    radius: float
    weight: Weight

    def at(self, n_per_axis: int) -> tuple[DispersalOperator, Weight]:
        """The operator on ``n_per_axis`` cells per axis, and the weight summarized on its grid.

        Periodic grids get the kernel wrapped over the box.  A weight that does
        not fit the grid (a sampled weight with another node count, ``y`` on a
        1-D grid, a value that is not finite on the time lattice) raises
        ``Weight.table``'s ``ValueError`` here, not inside a task.
        """
        grid = build_grid(self.boundary, self.box, n_per_axis)
        kernel = make_kernel(self.profile, self.radius, dim=grid.dim)
        if grid.boundary is Boundary.PERIODIC:
            kernel = wrap_kernel(kernel, grid.box)
        op = assemble(kernel, grid)
        summarize(self.weight, grid)
        return op, self.weight
