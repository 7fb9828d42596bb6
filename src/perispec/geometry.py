"""Dispersal kernels, periodic wrapping, and midpoint quadrature grids.

Kernels are radial, compactly supported, and analytically normalized to unit
mass in their native dimension.  Grids carry midpoint nodes and uniform
quadrature weights; the midpoint rule keeps all weights positive, which the
rest of the package relies on for order preservation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

PROFILES = ("parabolic", "cosine", "indicator")


class Boundary(Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"
    PERIODIC = "periodic"


def _normalization(profile: str, r: float, dim: int) -> float:
    # Closed-form unit-mass constants per profile and dimension.
    if profile == "parabolic":
        return 3.0 / (4.0 * r) if dim == 1 else 2.0 / (math.pi * r * r)
    if profile == "cosine":
        if dim == 1:
            return math.pi / (4.0 * r)
        return math.pi / (4.0 * r * r * (math.pi - 2.0))
    if profile == "indicator":
        return 1.0 / (2.0 * r) if dim == 1 else 1.0 / (math.pi * r * r)
    raise ValueError(f"unknown kernel profile {profile!r}; expected one of {PROFILES}")


@dataclass(frozen=True)
class Kernel:
    """Radial compactly supported kernel with unit mass."""

    profile: str
    support_radius: float
    dim: int
    amplitude: float

    def radial(self, s):
        """Evaluate the radial profile at distances ``s >= 0``."""
        s = np.asarray(s, dtype=float)
        r = self.support_radius
        inside = s <= r
        if self.profile == "parabolic":
            vals = self.amplitude * (1.0 - (s / r) ** 2)
        elif self.profile == "cosine":
            vals = self.amplitude * np.cos(0.5 * math.pi * s / r)
        else:
            vals = np.full_like(s, self.amplitude)
        return np.where(inside, vals, 0.0)

    def evaluate(self, z):
        """Evaluate at displacements ``z``; the last axis is the coordinate axis."""
        z = np.asarray(z, dtype=float)
        if self.dim == 1:
            if z.ndim and z.shape[-1] == 1:
                z = z[..., 0]
            return self.radial(np.abs(z))
        if z.shape[-1] != self.dim:
            raise ValueError(f"displacement has {z.shape[-1]} coordinates, kernel has dim {self.dim}")
        return self.radial(np.sqrt(np.sum(z * z, axis=-1)))


def make_kernel(profile: str, support_radius: float, dim: int = 1) -> Kernel:
    """Build a unit-mass kernel.  ``profile`` is one of ``PROFILES``."""
    if profile not in PROFILES:
        raise ValueError(f"unknown kernel profile {profile!r}; expected one of {PROFILES}")
    if not support_radius > 0.0:
        raise ValueError("support_radius must be positive")
    if dim not in (1, 2):
        raise ValueError("only dim 1 and 2 are supported")
    return Kernel(profile, float(support_radius), dim, _normalization(profile, float(support_radius), dim))


@dataclass(frozen=True)
class WrappedKernel:
    """Lattice-periodized kernel: sum of the base kernel over all cell shifts.

    The shift range covers every translate whose support can meet the
    difference set of the cell, so the finite sum is exact.
    """

    base: Kernel
    periods: tuple[float, ...]
    shifts: np.ndarray  # (n_shifts, dim), read-only

    @property
    def dim(self) -> int:
        return self.base.dim

    def evaluate(self, z):
        z = np.asarray(z, dtype=float)
        if self.dim == 1 and (z.ndim == 0 or z.shape[-1] != 1):
            z = z[..., None]
        total = np.zeros(z.shape[:-1], dtype=float)
        for shift in self.shifts:
            total = total + self.base.evaluate(z + shift)
        return total


def wrap_kernel(kernel: Kernel, periods) -> WrappedKernel:
    """Periodize ``kernel`` over the lattice spanned by ``periods``."""
    periods = tuple(float(p) for p in np.atleast_1d(periods))
    if len(periods) != kernel.dim:
        raise ValueError(f"got {len(periods)} periods for a dim-{kernel.dim} kernel")
    if any(p <= 0.0 for p in periods):
        raise ValueError("periods must be positive")
    r = kernel.support_radius
    ranges = [np.arange(-(1 + math.ceil(r / p)), 2 + math.ceil(r / p)) for p in periods]
    mesh = np.meshgrid(*ranges, indexing="ij")
    counts = np.stack([m.ravel() for m in mesh], axis=-1).astype(float)
    shifts = counts * np.asarray(periods)
    shifts.setflags(write=False)
    return WrappedKernel(kernel, periods, shifts)


@dataclass(frozen=True)
class Grid:
    """Midpoint quadrature grid on a box ``[0, L_1] x ... x [0, L_d]``.

    Nodes are cell centers in lexicographic order (first axis slowest); the
    quadrature weight of every node is the cell volume.
    """

    boundary: Boundary
    box: tuple[float, ...]
    n_per_axis: int
    nodes: np.ndarray         # (n, dim)
    quad_weights: np.ndarray  # (n,)

    @property
    def dim(self) -> int:
        return len(self.box)

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / self.n_per_axis for L in self.box)


def build_grid(boundary: Boundary, box, n_per_axis: int) -> Grid:
    """Build a midpoint grid with ``n_per_axis`` cells per axis."""
    boundary = Boundary(boundary)
    box = tuple(float(L) for L in np.atleast_1d(box))
    if len(box) not in (1, 2):
        raise ValueError("only 1-D and 2-D boxes are supported")
    if any(L <= 0.0 for L in box):
        raise ValueError("box lengths must be positive")
    if not isinstance(n_per_axis, (int, np.integer)) or n_per_axis < 2:
        raise ValueError("n_per_axis must be an integer >= 2")
    axes = [(np.arange(n_per_axis) + 0.5) * (L / n_per_axis) for L in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    cell = float(np.prod([L / n_per_axis for L in box]))
    weights = np.full(nodes.shape[0], cell)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return Grid(boundary, box, int(n_per_axis), nodes, weights)
