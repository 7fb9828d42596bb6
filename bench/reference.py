"""Reference computation made apart from ``perispec``.

``K`` is built from the parabolic kernel formula on midpoint nodes,
``b`` is 1 for the hostile exterior (Dirichlet) and the row sums of ``K``
otherwise, and the top of the spectrum of the frozen generator
``K - diag(b) + lam*diag(m)`` comes from ``numpy.linalg.eigvalsh``.  Roots in
``lam`` come from ``scipy.optimize.brentq``.

For a separable weight ``m0(x) + g(t)`` with zero-mean ``g`` the period map
factors, so the frozen generator with ``m_hat = m0`` gives the program's
``mu(lam)`` and ``lambda_p`` exactly, up to the program's time stepping.
For any weight, ``mu(lam, m) >= mu(lam, m_hat)`` (time averaging lowers the
principal spectrum point), which bounds the non-separable cases.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

LAMBDA_CAP = 1e4


def midpoint_nodes(dim: int, n: int, length: float = 1.0):
    """Cell centres of ``[0, length]^dim``, first axis slowest; and the cell volume."""
    axis = (np.arange(n) + 0.5) * (length / n)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1), (length / n) ** dim


def parabolic_matrix(nodes: np.ndarray, cell: float, radius: float) -> np.ndarray:
    """Nystrom matrix of the unit-mass kernel ``c*(1 - (|z|/r)^2)`` on ``|z| <= r``."""
    dim = nodes.shape[1]
    amp = 3.0 / (4.0 * radius) if dim == 1 else 2.0 / (math.pi * radius * radius)
    d2 = ((nodes[None, :, :] - nodes[:, None, :]) ** 2).sum(axis=-1)
    return np.where(d2 <= radius * radius, amp * (1.0 - d2 / (radius * radius)), 0.0) * cell


def p_value(table: np.ndarray, period: float = 1.0) -> float:
    """``P``: the period integral of the spatial maximum, from equally spaced rows."""
    return float(table.max(axis=1).mean() * period)


class FrozenGenerator:
    """Dense ``K - diag(b)`` for a box ``[0, 1]^dim`` (Dirichlet or Neumann)."""

    def __init__(self, boundary: str, dim: int, n_per_axis: int, radius: float):
        if boundary not in ("dirichlet", "neumann"):
            raise ValueError(f"no reference for boundary {boundary!r}")
        self.boundary = boundary
        self.nodes, self.cell = midpoint_nodes(dim, n_per_axis)
        self.K = parabolic_matrix(self.nodes, self.cell, radius)
        self.b = np.ones(len(self.nodes)) if boundary == "dirichlet" else self.K.sum(axis=1)

    def mu(self, m: np.ndarray, lam: float) -> float:
        """Top eigenvalue of ``K - diag(b) + lam*diag(m)``."""
        gen = self.K + np.diag(lam * np.asarray(m) - self.b)
        return float(np.linalg.eigvalsh(gen)[-1])

    def root(self, m: np.ndarray) -> float | None:
        """Positive root of ``lam -> mu(m, lam)``, or None below ``LAMBDA_CAP``.

        Dirichlet curves start below zero; mass-conserving ones start at 0
        and need an initial dip, found on a ladder from ``1e-3``.
        """
        lo = 0.0 if self.boundary == "dirichlet" else 1e-3
        if self.mu(m, lo) >= 0.0:
            return None
        hi = max(2.0 * lo, 1.0)
        while self.mu(m, hi) <= 0.0:
            lo, hi = hi, 2.0 * hi
            if hi > LAMBDA_CAP:
                return None
        return brentq(lambda lam: self.mu(m, lam), lo, hi, xtol=1e-14, rtol=1e-15)
