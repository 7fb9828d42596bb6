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

``matvec`` applies ``K`` to a vector (matrix states keep the GEMM with ``K``).
In 1-D that is a GEMV with ``K``.  In 2-D the vector, reshaped to ``U[k, l]``
(``N x N``), goes through the stencil quarter ``s[a, c]`` (offsets
``a, c >= 0``) in two small GEMMs, with tables ``assemble`` builds once:

* ``W = U @ rows``, ``rows[l, (a, j)] = s[a, |j - l|]`` (``N x N^2``), so
  ``W[k, (a, j)]`` is the second-axis convolution of row ``k`` at offset ``a``;
* ``out = fold @ W`` with ``W`` read as ``(k, a) x j`` and the 0/1 matrix
  ``fold[i, (k, a)] = [a = |i - k|]`` (``N x N^2``), which sums
  ``W[k, (|i - k|, j)]`` over ``k``.

Both GEMMs cost ``n^2`` multiply-adds, as the GEMV does, but they read two
tables of ``n^1.5`` entries that stay in cache, where the GEMV streams all of
``K``.  With one BLAS thread on 2-D Neumann grids one application took
25-35 us against 84-100 us for the GEMV at 24x24, 113-133 us against
307-354 us at 32x32, and about the same at 16x16; at 8x8 it took 5-8 us
against 1-2 us.  A gather of ``W[k, |i - k|, j]`` by a precomputed index,
summed over ``k``, took 39-51 us at 24x24 and 90-95 us at 32x32, and lost at
8x8 and 16x16.  The sums run in another order than the GEMV's, so the
results move by rounding.

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

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import Boundary, Grid, Kernel, WrappedKernel
from .weights import Weight


@dataclass(frozen=True)
class DispersalOperator:
    kernel: Kernel | WrappedKernel
    grid: Grid
    K: np.ndarray  # (n, n), nonnegative
    b: np.ndarray  # (n,), positive
    rows: np.ndarray | None = None  # (N, N^2) in 2-D: rows[l, (a, j)] = s[a, |j - l|]
    fold: np.ndarray | None = None  # (N, N^2) in 2-D: fold[i, (k, a)] = [a = |i - k|]

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def boundary(self) -> Boundary:
        return self.grid.boundary

    @property
    def quad_weights(self) -> np.ndarray:
        return self.grid.quad_weights

    def matvec(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``K v`` for a vector ``v`` of length ``n``, written into ``out`` when given.

        A GEMV in 1-D; in 2-D two GEMMs through the stencil (module docstring).
        ``out`` must be a C-contiguous vector.
        """
        if self.rows is None:
            return np.matmul(self.K, v, out=out)
        N = self.grid.n_per_axis
        if out is None:
            out = np.empty(self.n)
        W = np.matmul(np.reshape(v, (N, N)), self.rows)
        np.matmul(self.fold, W.reshape(N * N, N), out=out.reshape(N, N))
        return out

    def weighted_inner(self, u, v) -> float:
        """Quadrature inner product; ``K`` is self-adjoint in it."""
        return float(np.dot(self.grid.quad_weights * np.asarray(u), np.asarray(v)))


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
    rows = fold = None
    if grid.dim == 2:
        s = stencil[N - 1:, N - 1:]
        dist = np.abs(np.arange(N)[:, None] - np.arange(N)[None, :])
        rows = np.ascontiguousarray(s[:, dist].transpose(1, 0, 2)).reshape(N, N * N)
        fold = (dist[:, :, None] == np.arange(N)).astype(float).reshape(N, N * N)
        rows.setflags(write=False)
        fold.setflags(write=False)
    K.setflags(write=False)
    b.setflags(write=False)
    return DispersalOperator(kernel, grid, K, b, rows, fold)


def apply_generator(op: DispersalOperator, weight: Weight, lam: float, t: float, u: np.ndarray) -> np.ndarray:
    """Apply ``K u - b u + lam * m(t, .) u`` to a field ``u``."""
    u = np.asarray(u, dtype=float)
    m = weight.evaluate(t, op.grid)
    return op.matvec(u) - op.b * u + lam * m * u
