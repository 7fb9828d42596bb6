"""Kernel normalization, periodic wrapping, and midpoint grid construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perispec.geometry import (
    Boundary,
    Kernel,
    build_grid,
    make_kernel,
    wrap_kernel,
)


def midpoint_mass_1d(kernel, n=8192):
    r = kernel.support_radius
    h = 2.0 * r / n
    s = -r + (np.arange(n) + 0.5) * h
    return float(np.sum(kernel.evaluate(s)) * h)


def midpoint_mass_2d(kernel, n=1024):
    r = kernel.support_radius
    h = 2.0 * r / n
    ax = -r + (np.arange(n) + 0.5) * h
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    return float(np.sum(kernel.evaluate(pts)) * h * h)


# ---------------------------------------------------------------- kernels

def test_parabolic_amplitude_closed_form():
    # 1-D: integral of a*(1 - s^2/r^2) over [-r, r] is a*4r/3, so a = 3/(4r)
    k = make_kernel("parabolic", 2.0, dim=1)
    assert k.amplitude == pytest.approx(3.0 / 8.0, rel=1e-15)
    # 2-D: a * pi r^2 / 2 = 1
    k2 = make_kernel("parabolic", 2.0, dim=2)
    assert k2.amplitude == pytest.approx(2.0 / (math.pi * 4.0), rel=1e-15)


def test_cosine_amplitude_closed_form():
    k = make_kernel("cosine", 0.5, dim=1)
    assert k.amplitude == pytest.approx(math.pi / 2.0, rel=1e-15)
    k2 = make_kernel("cosine", 0.5, dim=2)
    assert k2.amplitude == pytest.approx(math.pi / (math.pi - 2.0), rel=1e-15)


def test_indicator_amplitude_closed_form():
    k = make_kernel("indicator", 0.25, dim=1)
    assert k.amplitude == pytest.approx(2.0, rel=1e-15)
    k2 = make_kernel("indicator", 0.25, dim=2)
    assert k2.amplitude == pytest.approx(1.0 / (math.pi * 0.0625), rel=1e-15)


@pytest.mark.parametrize("profile", ["parabolic", "cosine", "indicator"])
@pytest.mark.parametrize("r", [0.3, 1.0, 2.5])
def test_unit_mass_1d(profile, r):
    k = make_kernel(profile, r, dim=1)
    assert midpoint_mass_1d(k) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("profile", ["parabolic", "cosine", "indicator"])
def test_unit_mass_2d(profile):
    k = make_kernel(profile, 0.8, dim=2)
    tol = 1e-4 if profile == "indicator" else 1e-5  # jump at the disk edge
    assert midpoint_mass_2d(k) == pytest.approx(1.0, abs=tol)


def test_indicator_mass_exact_when_cells_align():
    k = make_kernel("indicator", 1.0, dim=1)
    assert midpoint_mass_1d(k, n=16) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("profile", ["parabolic", "cosine", "indicator"])
def test_kernel_positive_at_origin_and_symmetric(profile):
    k = make_kernel(profile, 1.3, dim=1)
    assert k.evaluate(0.0) > 0.0
    z = np.linspace(-2.0, 2.0, 41)
    np.testing.assert_allclose(k.evaluate(z), k.evaluate(-z), rtol=0, atol=0)


@pytest.mark.parametrize("profile", ["parabolic", "cosine", "indicator"])
def test_kernel_compact_support(profile):
    k = make_kernel(profile, 0.7, dim=1)
    outside = np.array([0.7001, 1.0, 5.0, -0.7001])
    assert np.all(k.evaluate(outside) == 0.0)


def test_continuous_profiles_vanish_at_edge():
    for profile in ("parabolic", "cosine"):
        k = make_kernel(profile, 1.1, dim=1)
        assert abs(float(k.evaluate(1.1))) < 1e-14


def test_kernel_2d_radial_consistency():
    k = make_kernel("parabolic", 1.0, dim=2)
    pts = np.array([[0.3, 0.4], [0.5, 0.0], [0.0, 0.5]])
    np.testing.assert_allclose(k.evaluate(pts), k.radial([0.5, 0.5, 0.5]), rtol=1e-14)


def test_kernel_1d_accepts_trailing_axis():
    k = make_kernel("parabolic", 1.0, dim=1)
    flat = k.evaluate(np.array([0.1, 0.2]))
    column = k.evaluate(np.array([[0.1], [0.2]]))
    np.testing.assert_allclose(flat, column, rtol=0, atol=0)


def test_make_kernel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_kernel("gaussian", 1.0)
    with pytest.raises(ValueError):
        make_kernel("parabolic", 0.0)
    with pytest.raises(ValueError):
        make_kernel("parabolic", -1.0)
    with pytest.raises(ValueError):
        make_kernel("parabolic", 1.0, dim=3)


# ------------------------------------------------------------- wrapping

def brute_force_wrap(kernel, periods, z, k_range=12):
    """Reference periodization by direct lattice summation."""
    z = np.asarray(z, dtype=float)
    if kernel.dim == 1:
        total = np.zeros_like(z)
        for k in range(-k_range, k_range + 1):
            total = total + kernel.evaluate(z + k * periods[0])
        return total
    total = np.zeros(z.shape[:-1])
    for k1 in range(-k_range, k_range + 1):
        for k2 in range(-k_range, k_range + 1):
            shift = np.array([k1 * periods[0], k2 * periods[1]])
            total = total + kernel.evaluate(z + shift)
    return total


def test_wrapped_value_worked_example():
    # r = 1, p = 1.5: at z = 1 the only contributing translate is z - p = -0.5,
    # so the wrapped parabolic kernel equals 0.75 * (1 - 0.25) = 0.5625
    k = make_kernel("parabolic", 1.0, dim=1)
    wk = wrap_kernel(k, [1.5])
    assert float(wk.evaluate(np.array([1.0]))) == pytest.approx(0.5625, abs=1e-15)


def test_wrapped_value_unit_period_origin():
    k = make_kernel("parabolic", 1.0, dim=1)
    wk = wrap_kernel(k, [1.0])
    # translates at -1, 0, +1 contribute 0 + 0.75 + 0
    assert float(wk.evaluate(np.array([0.0]))) == pytest.approx(0.75, abs=1e-15)


@pytest.mark.parametrize("profile,r,p", [
    ("parabolic", 1.0, 0.6),
    ("cosine", 0.8, 1.1),
    ("indicator", 1.3, 0.9),
])
def test_wrap_matches_brute_force_1d(profile, r, p):
    # exactness is guaranteed on the difference set of the cell, z in [-p, p]
    k = make_kernel(profile, r, dim=1)
    wk = wrap_kernel(k, [p])
    z = np.linspace(-p, p, 257)
    np.testing.assert_allclose(wk.evaluate(z), brute_force_wrap(k, [p], z),
                               rtol=0, atol=1e-13)


def test_wrap_matches_brute_force_2d():
    k = make_kernel("parabolic", 0.9, dim=2)
    periods = (0.7, 1.2)
    wk = wrap_kernel(k, periods)
    rng = np.random.default_rng(7)
    z = rng.uniform(-1.0, 1.0, size=(40, 2)) * np.asarray(periods)
    np.testing.assert_allclose(wk.evaluate(z), brute_force_wrap(k, periods, z),
                               rtol=0, atol=1e-13)


def test_wrap_is_periodic_on_difference_set():
    k = make_kernel("cosine", 1.0, dim=1)
    p = 0.75
    wk = wrap_kernel(k, [p])
    z = np.linspace(0.0, p, 33)  # z and z - p both lie in [-p, p]
    np.testing.assert_allclose(wk.evaluate(z - p), wk.evaluate(z), atol=1e-13)


def test_wrap_reduces_to_base_for_large_period():
    k = make_kernel("parabolic", 0.5, dim=1)
    wk = wrap_kernel(k, [2.0])  # period > 2r: translates never overlap the cell
    z = np.linspace(-0.5, 0.5, 101)
    np.testing.assert_allclose(wk.evaluate(z), k.evaluate(z), rtol=0, atol=0)


def test_wrap_kernel_rejects_bad_periods():
    k = make_kernel("parabolic", 1.0, dim=1)
    with pytest.raises(ValueError):
        wrap_kernel(k, [1.0, 2.0])
    with pytest.raises(ValueError):
        wrap_kernel(k, [0.0])
    with pytest.raises(ValueError):
        wrap_kernel(k, [-1.0])


# ----------------------------------------------------------------- grids

def test_unit_interval_grid_nodes():
    g = build_grid(Boundary.DIRICHLET, (1.0,), 4)
    np.testing.assert_allclose(g.nodes[:, 0], [0.125, 0.375, 0.625, 0.875])
    np.testing.assert_allclose(g.quad_weights, 0.25)
    assert g.dim == 1 and g.n == 4
    assert g.spacing == (0.25,)


def test_periodic_cell_grid_nodes():
    g = build_grid(Boundary.PERIODIC, (2.0,), 2)
    np.testing.assert_allclose(g.nodes[:, 0], [0.5, 1.5])
    np.testing.assert_allclose(g.quad_weights, 1.0)


def test_square_grid_lexicographic_order():
    g = build_grid(Boundary.NEUMANN, (1.0, 1.0), 3)
    assert g.n == 9 and g.dim == 2
    np.testing.assert_allclose(g.quad_weights, 1.0 / 9.0)
    # first axis slowest
    np.testing.assert_allclose(g.nodes[0], [1.0 / 6.0, 1.0 / 6.0])
    np.testing.assert_allclose(g.nodes[1], [1.0 / 6.0, 0.5])
    np.testing.assert_allclose(g.nodes[3], [0.5, 1.0 / 6.0])


def test_grid_accepts_scalar_box():
    g = build_grid("dirichlet", 1.0, 8)
    assert g.box == (1.0,) and g.boundary is Boundary.DIRICHLET


@settings(max_examples=40, deadline=None)
@given(
    L1=st.floats(0.1, 10.0),
    L2=st.floats(0.1, 10.0),
    n=st.integers(2, 12),
    two_d=st.booleans(),
)
def test_quadrature_weights_sum_to_volume(L1, L2, n, two_d):
    box = (L1, L2) if two_d else (L1,)
    g = build_grid(Boundary.NEUMANN, box, n)
    assert float(g.quad_weights.sum()) == pytest.approx(np.prod(box), rel=1e-12)
    assert np.all(g.quad_weights > 0.0)
    # every node is interior to the box
    for ax, L in enumerate(box):
        assert np.all(g.nodes[:, ax] > 0.0) and np.all(g.nodes[:, ax] < L)


def test_build_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_grid(Boundary.DIRICHLET, (1.0,), 1)
    with pytest.raises(ValueError):
        build_grid(Boundary.DIRICHLET, (1.0,), 2.5)
    with pytest.raises(ValueError):
        build_grid(Boundary.DIRICHLET, (0.0,), 4)
    with pytest.raises(ValueError):
        build_grid(Boundary.DIRICHLET, (1.0, 1.0, 1.0), 4)
    with pytest.raises(ValueError):
        build_grid("absorbing", (1.0,), 4)


def test_grid_arrays_are_read_only():
    g = build_grid(Boundary.DIRICHLET, (1.0,), 4)
    with pytest.raises(ValueError):
        g.nodes[0, 0] = 7.0
    with pytest.raises(ValueError):
        g.quad_weights[0] = 7.0


def test_kernel_is_frozen():
    k = make_kernel("parabolic", 1.0)
    with pytest.raises(Exception):
        k.amplitude = 2.0
    assert isinstance(k, Kernel)
