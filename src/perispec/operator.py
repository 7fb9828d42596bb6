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

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def boundary(self) -> Boundary:
        return self.grid.boundary

    @property
    def quad_weights(self) -> np.ndarray:
        return self.grid.quad_weights

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
    K.setflags(write=False)
    b.setflags(write=False)
    return DispersalOperator(kernel, grid, K, b)


def apply_generator(op: DispersalOperator, weight: Weight, lam: float, t: float, u: np.ndarray) -> np.ndarray:
    """Apply ``K u - b u + lam * m(t, .) u`` to a field ``u``."""
    u = np.asarray(u, dtype=float)
    m = weight.evaluate(t, op.grid)
    return op.K @ u - op.b * u + lam * m * u
