"""Nystrom assembly of the dispersal operator and its structural identities."""

import dataclasses
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from perispec.geometry import Boundary, Grid, build_grid, make_kernel, wrap_kernel
import perispec.operator
from perispec.operator import _RUNG_FACTORS, Problem, assemble
from perispec.weights import WeightExprError, closed_form

from oracles import sample_closed_form


def make_op(boundary, box, n, profile="parabolic", r=1.0):
    kernel = make_kernel(profile, r, dim=len(box))
    if boundary is Boundary.PERIODIC:
        kernel = wrap_kernel(kernel, box)
    return assemble(kernel, build_grid(boundary, box, n))


def dirichlet_op(n=32, profile="parabolic", r=1.0):
    return make_op(Boundary.DIRICHLET, (1.0,), n, profile, r)


def neumann_op(n=32, profile="parabolic", r=1.0):
    return make_op(Boundary.NEUMANN, (1.0,), n, profile, r)


def periodic_op(n=32, profile="parabolic", r=1.0, p=1.0):
    return make_op(Boundary.PERIODIC, (p,), n, profile, r)


def pairwise_matrix(op):
    """The kernel evaluated at every node difference, pair by pair."""
    nodes = op.grid.nodes
    return op.kernel.evaluate(nodes[None, :, :] - nodes[:, None, :]) * op.quad_weights[None, :]


def analytic_parabolic_mass(x, r=1.0):
    """Integral of the unit-mass parabolic kernel over [0, 1] centered at x."""
    def g(s):
        s = min(s, r)
        return 3.0 / (4.0 * r) * (s - s ** 3 / (3.0 * r * r))
    return g(1.0 - x) + g(x)


# ------------------------------------------------------------ subtraction b

def test_dirichlet_b_is_one():
    op = dirichlet_op()
    np.testing.assert_array_equal(op.b, 1.0)


def test_neumann_b_equals_row_sums():
    op = neumann_op()
    np.testing.assert_allclose(op.b, op.K.sum(axis=1), rtol=0, atol=0)


def test_row_sums_match_analytic_mass():
    # midpoint-quadrature row sums converge to the exact kernel mass over the
    # domain; at the center x = 1/2 that mass is 1.5 * (0.5 - 0.125/3) = 0.6875
    op = neumann_op(n=64)
    assert analytic_parabolic_mass(0.5) == pytest.approx(0.6875, abs=1e-15)
    expected = np.array([analytic_parabolic_mass(x) for x in op.grid.nodes[:, 0]])
    np.testing.assert_allclose(op.b, expected, atol=1e-4)
    j_mid = np.argmin(np.abs(op.grid.nodes[:, 0] - 0.5))
    assert op.b[j_mid] == pytest.approx(0.6875, abs=1e-4)


def test_row_sums_converge_to_brute_force_quadrature():
    # independent fine quadrature of the retained mass, taken at the nodes
    yy = (np.arange(40000) + 0.5) / 40000.0
    kern = make_kernel("cosine", 0.6)

    def worst_error(n):
        op = neumann_op(n=n, profile="cosine", r=0.6)
        idx = [0, n // 3, n // 2]
        refs = [float(np.sum(kern.evaluate(yy - op.grid.nodes[j, 0])) / 40000.0)
                for j in idx]
        return float(np.abs(op.b[idx] - refs).max())

    e24, e96 = worst_error(24), worst_error(96)
    assert e96 < e24 / 8.0  # second-order quadrature
    assert e96 < 5e-5


def test_dirichlet_mass_leaks():
    # with a hostile exterior the kernel mass retained in the domain is < 1
    op = dirichlet_op(n=48)
    assert float(op.K.sum(axis=1).max()) < 1.0


def test_periodic_b_is_constant_near_one():
    op = periodic_op(n=48)
    assert float(np.ptp(op.b)) < 1e-12  # translation invariance on the lattice
    assert op.b[0] == pytest.approx(1.0, abs=1e-2)


def test_periodic_b_converges_to_one():
    errs = [abs(float(periodic_op(n=n).b[0]) - 1.0) for n in (8, 16, 32)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-3


@pytest.mark.parametrize("make_op", [neumann_op, periodic_op])
def test_constants_annihilated(make_op):
    op = make_op()
    ones = np.ones(op.n)
    np.testing.assert_allclose(op.K @ ones - op.b * ones, 0.0, atol=1e-13)


# --------------------------------------------------------------- structure

def test_entries_nonnegative_diagonal_positive():
    for op in (dirichlet_op(), neumann_op(), periodic_op()):
        assert np.all(op.K >= 0.0)
        assert np.all(np.diag(op.K) > 0.0)
        assert np.all(op.b > 0.0)


def test_matrix_encodes_kernel_samples():
    op = dirichlet_op(n=8)
    x = op.grid.nodes[:, 0]
    w = op.quad_weights
    expected = op.kernel.evaluate(x[None, :] - x[:, None]) * w[None, :]
    np.testing.assert_allclose(op.K, expected, rtol=0, atol=0)


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("box, n, profile, r", [
    ((1.0,), 24, "parabolic", 0.3),
    ((1.0,), 16, "cosine", 1.7),       # three wrapped translates meet on periodic grids
    ((1.0,), 24, "indicator", 1 / 3),  # the support edge on the node offset 8
    ((1.0, 0.7), 9, "parabolic", 0.5),
    ((1.3, 0.9), 8, "cosine", 1.7),
])
def test_matrix_is_symmetric_and_block_toeplitz(boundary, box, n, profile, r):
    op = make_op(boundary, box, n, profile, r)
    np.testing.assert_array_equal(op.K, op.K.T)
    # K[j, k] depends on k - j only: shifting both nodes along an axis keeps it
    dim = len(box)
    blocks = op.K.reshape((n,) * (2 * dim))
    for axis in range(dim):
        head, tail = [slice(None)] * (2 * dim), [slice(None)] * (2 * dim)
        head[axis] = head[dim + axis] = slice(1, None)
        tail[axis] = tail[dim + axis] = slice(None, -1)
        np.testing.assert_array_equal(blocks[tuple(head)], blocks[tuple(tail)])


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("profile", ["parabolic", "cosine"])
@pytest.mark.parametrize("box, n, r", [
    ((0.7,), 63, 0.3), ((1.3,), 127, 0.8), ((1.0, 0.7), 15, 0.8), ((1.3, 0.9), 23, 0.3),
])
def test_matrix_matches_pairwise_evaluation(boundary, profile, box, n, r):
    # each node difference of the pairwise build is rounded on its own, by up
    # to an ulp of the box length; the kernel's slope, at most 2 / r times its
    # peak for both profiles, carries that into K
    op = make_op(boundary, box, n, profile, r)
    eps = np.finfo(float).eps
    tol = op.K.max() * (2.0 / r * np.spacing(max(box)) + 4.0 * eps)
    assert np.abs(op.K - pairwise_matrix(op)).max() <= tol


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("profile", ["parabolic", "cosine", "indicator"])
@pytest.mark.parametrize("n", [8, 64, 128])
def test_matrix_is_bit_identical_on_power_of_two_grids(boundary, profile, n):
    # on the unit box with n a power of two every node difference is exact;
    # the radius stays within one period, where the pairwise build is symmetric
    for r in (0.5, 1.0):
        op = make_op(boundary, (1.0,), n, profile, r)
        np.testing.assert_array_equal(op.K, pairwise_matrix(op))


def test_assembly_holds_one_matrix_at_its_peak():
    # the stencil is (2N - 1)^2 entries; the pairwise build held an (n, n, 2)
    # difference array and kernel temporaries beside K, 5.1 times its size
    grid = build_grid(Boundary.NEUMANN, (1.0, 1.0), 32)
    kernel = make_kernel("parabolic", 0.5, dim=2)
    tracemalloc.start()
    try:
        op = assemble(kernel, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * op.K.nbytes


def grid_of(boundary, box, n):
    """``build_grid``'s grid, also at one node per axis, which it refuses."""
    if n > 1:
        return build_grid(boundary, box, n)
    nodes = np.array([[0.5 * L for L in box]])
    weights = np.array([float(np.prod(box))])
    return Grid(boundary, tuple(box), 1, nodes, weights)


STENCIL_CASES = [
    ((1.0, 1.0), 24, "parabolic", 0.5),
    ((1.0, 0.7), 9, "parabolic", 0.5),    # rectangular: the axes are told apart
    ((1.3, 0.9), 8, "cosine", 1.7),       # three wrapped translates meet on periodic grids
    ((1.0, 1.0), 12, "indicator", 1 / 3),  # the support edge on the node offset 4
    ((0.8, 1.1), 2, "parabolic", 0.9),
    ((0.8, 1.1), 1, "cosine", 0.6),
]


def two_dimensional_op(boundary, box, n, profile, r):
    kernel = make_kernel(profile, r, dim=2)
    if boundary is Boundary.PERIODIC:
        kernel = wrap_kernel(kernel, box)
    return assemble(kernel, grid_of(boundary, box, n))


def factored_bound(op, v):
    """How far the factored product may sit from ``K v``, entry by entry.

    The GEMMs (and the reference GEMV) round by a few ulps of
    ``|left| (|V| |right|)``.  The factors miss the stencil quarter ``s`` by
    the SVD's rounding, below the cut ``sigma_max N eps``, plus the discarded
    singular values; an entry of ``s`` moved by ``e`` moves ``K v`` by at most
    ``e ||v||_1``.
    """
    N = op.grid.n_per_axis
    rank = op.left.shape[1] // N
    eps = np.finfo(float).eps
    sigma = np.linalg.svd(op.K.reshape(N, N, N, N)[0, 0], compute_uv=False)
    magnitude = np.abs(op.left) @ (np.abs(v).reshape(N, N) @ np.abs(op.right)).reshape(N * rank, N)
    missed = sigma[0] * N * eps + sigma[rank:].sum()
    return 4.0 * eps * magnitude.ravel() + missed * np.abs(v).sum()


def bound_vectors(op, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=op.n), np.ones(op.n), np.eye(op.n)[-1]


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("box, n, profile, r", STENCIL_CASES)
def test_stencil_application_matches_the_matrix(boundary, box, n, profile, r):
    # an exact zero of K v comes out at rounding level, so the bound is taken
    # on the factors, not on K |v|
    op = two_dimensional_op(boundary, box, n, profile, r)
    for v in bound_vectors(op, n):
        image = op.matvec(v)
        assert np.all(np.abs(image - op.K @ v) <= factored_bound(op, v))


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("box, n, profile, r", STENCIL_CASES)
def test_factored_bound_catches_a_perturbed_factor(boundary, box, n, profile, r):
    # the entry that weighs the last node against itself, P[0, 0], moved by
    # 1e-12 relative: the bound is tight enough to see it
    op = two_dimensional_op(boundary, box, n, profile, r)
    left = np.array(op.left)
    left[-1, -(left.shape[1] // n)] *= 1.0 + 1e-12
    bad = dataclasses.replace(op, left=left)
    assert any(np.any(np.abs(bad.matvec(v) - op.K @ v) > factored_bound(op, v))
               for v in bound_vectors(op, n))


def test_stencil_rank_and_table_shapes():
    # the parabolic kernel's stencil quarter at 24x24, radius 0.5, is of rank 8
    op = make_op(Boundary.NEUMANN, (1.0, 1.0), 24, "parabolic", 0.5)
    assert op.left.shape == op.right.shape == (24, 8 * 24)
    assert not op.left.flags.writeable and not op.right.flags.writeable


@pytest.mark.parametrize("boundary", list(Boundary))
def test_one_dimensional_application_is_the_gemv(boundary):
    op = make_op(boundary, (1.0,), 48, "cosine", 0.7)
    v = np.random.default_rng(4).normal(size=op.n)
    assert op.left is None and op.right is None
    np.testing.assert_array_equal(op.matvec(v), op.K @ v)


def inner(op, u, v):
    """The quadrature inner product, in which ``K`` is self-adjoint."""
    return float(np.dot(op.quad_weights * u, v))


def test_self_adjoint_in_quadrature_inner_product():
    rng = np.random.default_rng(0)
    for op in (dirichlet_op(n=20), periodic_op(n=20)):
        u = rng.normal(size=op.n)
        v = rng.normal(size=op.n)
        lhs = inner(op, u, op.K @ v)
        rhs = inner(op, v, op.K @ u)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_neumann_green_identity():
    # <u, (K - b) u>_w = -1/2 sum_{jk} w_j w_k kappa_jk (u_j - u_k)^2, exactly
    op = neumann_op(n=20)
    rng = np.random.default_rng(1)
    u = rng.normal(size=op.n)
    quad_form = inner(op, u, op.K @ u - op.b * u)
    w = op.quad_weights
    kappa = op.K / w[None, :]
    diff2 = (u[:, None] - u[None, :]) ** 2
    reference = -0.5 * float(np.sum(w[:, None] * w[None, :] * kappa * diff2))
    assert quad_form == pytest.approx(reference, abs=1e-12)
    assert quad_form < 0.0  # strict for nonconstant u


def test_dirichlet_form_strictly_negative():
    op = dirichlet_op(n=20)
    rng = np.random.default_rng(2)
    for _ in range(5):
        u = rng.normal(size=op.n)
        assert inner(op, u, op.K @ u - op.b * u) < 0.0
    ones = np.ones(op.n)
    assert inner(op, ones, op.K @ ones - op.b * ones) < 0.0


def test_two_dimensional_assembly():
    grid = build_grid(Boundary.NEUMANN, (1.0, 1.0), 6)
    op = assemble(make_kernel("parabolic", 0.8, dim=2), grid)
    assert op.K.shape == (36, 36)
    np.testing.assert_allclose(op.b, op.K.sum(axis=1), rtol=0, atol=0)
    ones = np.ones(36)
    np.testing.assert_allclose(op.K @ ones - op.b * ones, 0.0, atol=1e-13)
    assert np.all(op.K >= 0.0)


# ---------------------------------------------------------------- wiring

def test_assemble_rejects_mismatched_kernels():
    k = make_kernel("parabolic", 1.0)
    wk = wrap_kernel(k, [1.0])
    with pytest.raises(ValueError):
        assemble(k, build_grid(Boundary.PERIODIC, (1.0,), 8))
    with pytest.raises(ValueError):
        assemble(wk, build_grid(Boundary.DIRICHLET, (1.0,), 8))
    with pytest.raises(ValueError):
        assemble(wrap_kernel(k, [2.0]), build_grid(Boundary.PERIODIC, (1.0,), 8))
    with pytest.raises(ValueError):
        assemble(make_kernel("parabolic", 1.0, dim=2), build_grid(Boundary.NEUMANN, (1.0,), 8))


@pytest.mark.parametrize("boundary, box", [
    (Boundary.DIRICHLET, (1.0,)),
    (Boundary.NEUMANN, (1.0,)),
    (Boundary.PERIODIC, (1.0,)),
    (Boundary.NEUMANN, (1.0, 0.5)),
    (Boundary.PERIODIC, (1.0, 0.5)),
])
def test_problem_builds_the_hand_built_operator(boundary, box):
    weight = closed_form("cos(2*pi*x) - 0.2 + sin(2*pi*t/T)", 1.0)
    op, w = Problem(boundary, box, "cosine", 0.7, weight).at(12)
    ref = make_op(boundary, box, 12, "cosine", 0.7)
    assert w is weight
    assert op.grid.boundary is boundary and op.grid.box == box
    for name in ("K", "b", "left", "right"):
        mine, theirs = getattr(op, name), getattr(ref, name)
        assert (mine is None and theirs is None) or np.array_equal(mine, theirs), name


@pytest.mark.parametrize("weight, error, message", [
    (sample_closed_form(closed_form("cos(2*pi*x)", 1.0),
                        build_grid(Boundary.NEUMANN, (1.0,), 12), 8),
     ValueError, "sampled weight has 12 nodes, grid has 24"),
    (closed_form("cos(2*pi*y)", 1.0), WeightExprError, "references y on a 1-D grid"),
    (closed_form("1/(x-0.3125)", 1.0), WeightExprError, "not finite on the grid"),
])
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_problem_refuses_a_weight_that_does_not_fit_the_grid(weight, error, message):
    # 0.3125 is the node 7.5/24
    with pytest.raises(error, match=message):
        Problem(Boundary.NEUMANN, (1.0,), "parabolic", 1.0, weight).at(24)


def test_matrices_read_only():
    op = dirichlet_op(n=8)
    with pytest.raises(ValueError):
        op.K[0, 0] = 5.0
    with pytest.raises(ValueError):
        op.b[0] = 5.0


def test_no_dispersal_factor_outlives_its_operator():
    # the factors live on the operator, not in a module cache keyed by its
    # id: once the operator goes, so do they, with no collector pass
    from perispec.spectrum import principal_spectrum_point

    op = Problem(Boundary.DIRICHLET, (1.0,), "parabolic", 1.0,
                 closed_form("cos(2*pi*x)*(1 + sin(2*pi*t/T)) - 0.2", 1.0)).at(32)[0]
    w = closed_form("cos(2*pi*x)*(1 + sin(2*pi*t/T)) - 0.2", 1.0)
    principal_spectrum_point(op, w, 1.0)
    refs = [weakref.ref(op.dispersal_factor(h)) for h in (1.0 / 32, 1.0 / 64)]
    gone = weakref.ref(op)
    del op
    assert gone() is None
    assert all(ref() is None for ref in refs)


def test_dispersal_factors_kept_are_the_most_recent_step_sizes(monkeypatch):
    # the cache holds what fits in its byte bound, the oldest out first, and
    # never fewer than one rung's three factors
    op = Problem(Boundary.NEUMANN, (1.0,), "parabolic", 0.5, closed_form("0", 1.0)).at(16)[0]
    factor_bytes = 16 * 16 * 8
    sizes = [1.0 / k for k in (8, 16, 24, 32, 40, 48)]
    # the default bound holds every one of them at this size
    factors = [op.dispersal_factor(h) for h in sizes]
    assert list(op._factors) == sizes
    assert op.dispersal_factor(sizes[0]) is factors[0]
    op = dataclasses.replace(op, left=None)
    # a copy of the operator starts with no factors of its own
    assert op._factors == {}
    monkeypatch.setattr(perispec.operator, "_FACTOR_BYTES", 4 * factor_bytes)
    factors = [op.dispersal_factor(h) for h in sizes[:5]]
    assert list(op._factors) == sizes[1:5]
    assert op.dispersal_factor(sizes[4]) is factors[4]
    # a bound below one factor still keeps the rung's three
    monkeypatch.setattr(perispec.operator, "_FACTOR_BYTES", factor_bytes // 2)
    op.dispersal_factor(sizes[5])
    assert list(op._factors) == sizes[3:] and _RUNG_FACTORS == 3


def test_concurrent_factor_requests_share_one_cache(monkeypatch):
    # more threads than cores ask for six step sizes at once, with a short
    # switch interval: each answer equals the serially built factor, and the
    # cache keeps its byte bound of four factors
    def make():
        return Problem(Boundary.DIRICHLET, (1.0,), "parabolic", 1.0,
                       closed_form("0", 1.0)).at(24)[0]
    sizes = [1.0 / k for k in (8, 16, 24, 32, 40, 48)]
    serial = make()
    reference = {h: np.array(serial.dispersal_factor(h)) for h in sizes}
    op = make()
    monkeypatch.setattr(perispec.operator, "_FACTOR_BYTES", 4 * 24 * 24 * 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            got = list(pool.map(lambda h: (h, op.dispersal_factor(h)), sizes * 20, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 120
    assert all(np.array_equal(E, reference[h]) for h, E in got)
    assert len(op._factors) <= 4

