"""Weight fields: evaluation, averaging functionals, and existence conditions."""

import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perispec.weights
from perispec.geometry import Boundary, build_grid
from perispec.weights import (
    ConditionReport,
    S1Data,
    WeightExprError,
    check_conditions,
    closed_form,
    from_samples,
    load_sampled_csv,
    p_functional,
    sample_closed_form,
    save_sampled_csv,
    space_independent,
    sup_abs,
    summarize,
    time_average,
)


@pytest.fixture
def grid():
    return build_grid(Boundary.DIRICHLET, (1.0,), 16)


# ----------------------------------------------------------- evaluation

def test_closed_form_evaluation(grid):
    w = closed_form("sin(2*pi*t/T) * x", 2.0)
    vals = w.evaluate(0.5, grid)  # sin(pi/2) = 1
    np.testing.assert_allclose(vals, grid.nodes[:, 0], rtol=1e-14)


def test_evaluation_is_time_periodic(grid):
    w = closed_form("sin(2*pi*t/T) + x", 0.7)
    for t in (0.0, 0.31, 0.69):
        np.testing.assert_allclose(w.evaluate(t + 0.7, grid), w.evaluate(t, grid),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(w.evaluate(t - 2.1, grid), w.evaluate(t, grid),
                                   rtol=0, atol=1e-12)


def test_constant_expression_broadcasts(grid):
    w = closed_form("0.25", 1.0)
    vals = w.evaluate(0.1, grid)
    assert vals.shape == (grid.n,)
    np.testing.assert_allclose(vals, 0.25)


def test_two_dimensional_expression():
    g = build_grid(Boundary.NEUMANN, (1.0, 2.0), 4)
    w = closed_form("x + 10*y", 1.0)
    vals = w.evaluate(0.0, g)
    np.testing.assert_allclose(vals, g.nodes[:, 0] + 10 * g.nodes[:, 1], rtol=1e-14)


def test_periodic_grid_wraps_coordinates():
    g = build_grid(Boundary.PERIODIC, (1.0,), 8)
    w = closed_form("cos(2*pi*x)", 1.0)
    vals = w.evaluate(0.0, g)
    np.testing.assert_allclose(vals, np.cos(2 * np.pi * g.nodes[:, 0]), rtol=1e-12)


# ------------------------------------------------------ expression safety

@pytest.mark.parametrize("expr", [
    "exp(t)",                 # unknown function
    "__import__('os')",       # call of a non-whitelisted callable
    "t if x > 0 else 0",      # conditional
    "x[0]",                   # subscript
    "x.real",                 # attribute access
    "t % 2",                  # modulo not allowed
    "lambda t: t",            # lambda
    "z + 1",                  # unknown name
    "sin(t, x)",              # arity
])
def test_expression_whitelist_rejects(expr):
    with pytest.raises(WeightExprError):
        closed_form(expr, 1.0)


def test_unparseable_expression_rejected():
    with pytest.raises(WeightExprError):
        closed_form("sin(", 1.0)


def test_y_on_one_dimensional_grid_rejected(grid):
    w = closed_form("y", 1.0)  # valid syntax, wrong dimension
    with pytest.raises(WeightExprError):
        w.evaluate(0.0, grid)


def test_non_finite_values_rejected(grid):
    w = closed_form("(x - x) ** (-1)", 1.0)
    with np.errstate(divide="ignore"), pytest.raises(WeightExprError):
        w.evaluate(0.0, grid)


def test_nonpositive_period_rejected():
    with pytest.raises(ValueError):
        closed_form("t", 0.0)
    with pytest.raises(ValueError):
        from_samples(np.zeros((4, 3)), -1.0)


# -------------------------------------------------------- sampled weights

def test_sampled_weight_hits_lattice_values(grid):
    rng = np.random.default_rng(3)
    samples = rng.normal(size=(8, grid.n))
    w = from_samples(samples, 1.0)
    for i in range(8):
        np.testing.assert_allclose(w.evaluate(i / 8.0, grid), samples[i], rtol=1e-14)


def test_sampled_weight_interpolates_linearly(grid):
    samples = np.stack([np.zeros(grid.n), np.ones(grid.n)])
    w = from_samples(samples, 1.0)
    np.testing.assert_allclose(w.evaluate(0.25, grid), 0.5)   # halfway 0 -> 1
    np.testing.assert_allclose(w.evaluate(0.75, grid), 0.5)   # wraps back toward row 0


def test_sampled_weight_node_count_checked(grid):
    w = from_samples(np.zeros((4, grid.n + 1)), 1.0)
    with pytest.raises(ValueError):
        w.evaluate(0.0, grid)
    with pytest.raises(ValueError):
        w.table([0.0, 0.5], grid)


# ----------------------------------------------------------- time tables

# inside the period, past T and negative, on and off the sample lattice
TABLE_TIMES = np.array([0.0, 0.1, 0.35, 0.7, 1.3, 1.4, 2.05, 7.77, -0.2, -0.7, -3.3, 0.7 / 8])


def assert_table_matches_rows(w, g, times=TABLE_TIMES):
    table = w.table(times, g)
    assert table.shape == (len(times), g.n)
    assert np.array_equal(table, np.stack([w.evaluate(t, g) for t in times]))


@pytest.mark.parametrize("boundary, box, n_per_axis, expr", [
    (Boundary.DIRICHLET, (1.0,), 16, "cos(2*pi*x) - 0.2 + 0.7*sin(2*pi*t/T + 0.3)"),
    (Boundary.NEUMANN, (1.0,), 16, "cos(2*pi*(x - 0.3 - t/T)) * (1 + x*t)"),
    (Boundary.NEUMANN, (1.0, 2.0), 5, "x + 10*y*sin(2*pi*t/T) - cos(t*y)"),
    (Boundary.PERIODIC, (1.0,), 12, "cos(2*pi*(x - t/T)) + x"),
    (Boundary.PERIODIC, (1.0, 1.0), 4, "sin(2*pi*(x + y - t/T)) * x"),
    (Boundary.DIRICHLET, (1.0,), 16, "sin(2*pi*t/T) - 0.25"),   # time only
    (Boundary.DIRICHLET, (1.0,), 16, "0.25"),                   # constant
    (Boundary.NEUMANN, (1.0, 2.0), 5, "-1.5"),                  # constant in 2-D
])
def test_closed_form_table_matches_rows(boundary, box, n_per_axis, expr):
    assert_table_matches_rows(closed_form(expr, 0.7), build_grid(boundary, box, n_per_axis))


def test_sampled_table_matches_rows(grid):
    w = from_samples(np.random.default_rng(8).normal(size=(8, grid.n)), 0.7)
    assert_table_matches_rows(w, grid)


def test_sampled_table_matches_scalar_interpolation(grid):
    samples = np.random.default_rng(9).normal(size=(8, grid.n))
    w = from_samples(samples, 0.7)
    rows = []
    for t in TABLE_TIMES:
        s = float(t) % 0.7 / 0.7 * 8
        i0 = math.floor(s) % 8
        frac = s - math.floor(s)
        rows.append((1.0 - frac) * samples[i0] + frac * samples[(i0 + 1) % 8])
    assert np.array_equal(w.table(TABLE_TIMES, grid), np.stack(rows))


def test_table_rejects_y_on_one_dimensional_grid(grid):
    with pytest.raises(WeightExprError):
        closed_form("y + t", 1.0).table([0.0, 0.5], grid)


def test_table_rejects_non_finite_values(grid):
    # finite everywhere except at one time of the table
    w = closed_form("x / (t - 0.5)", 1.0)
    w.table([0.0, 0.25], grid)
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(WeightExprError):
        w.table([0.0, 0.5], grid)


def test_from_samples_validation():
    with pytest.raises(ValueError):
        from_samples(np.zeros(5), 1.0)
    with pytest.raises(ValueError):
        from_samples(np.zeros((1, 5)), 1.0)
    bad = np.zeros((4, 5))
    bad[2, 3] = np.nan
    with pytest.raises(ValueError):
        from_samples(bad, 1.0)


def test_from_samples_copies_the_callers_array():
    a = np.ones((4, 3))
    w = from_samples(a, 1.0)
    assert w.samples is not a and not w.samples.flags.writeable
    a[0, 0] = 2.0
    assert w.samples[0, 0] == 1.0


def test_sampled_weights_compare_by_value():
    a = np.ones((4, 3))
    b = a.copy()
    b[1, 2] = 0.5
    w = from_samples(a, 1.0)
    assert w == from_samples(a.copy(), 1.0)
    assert w != from_samples(b, 1.0)
    assert w != from_samples(np.ones((4, 4)), 1.0)
    assert w != from_samples(a, 2.0)
    assert w != closed_form("1", 1.0) and closed_form("1", 1.0) != w
    assert w != "not a weight"


def test_sample_closed_form_matches_on_lattice(grid):
    w = closed_form("sin(2*pi*t/T) * (1 + x)", 0.5)
    ws = sample_closed_form(w, grid, 32)
    for i in range(32):
        t = i * 0.5 / 32
        np.testing.assert_allclose(ws.evaluate(t, grid), w.evaluate(t, grid), atol=1e-13)


def test_csv_round_trip(tmp_path, grid):
    rng = np.random.default_rng(11)
    w = from_samples(rng.normal(size=(6, grid.n)), 1.5)
    path = tmp_path / "weight.csv"
    save_sampled_csv(w, path)
    back = load_sampled_csv(path, 1.5)
    np.testing.assert_allclose(back.samples, w.samples, rtol=0, atol=0)
    assert back.period == 1.5


def test_csv_rejects_closed_form(tmp_path):
    w = closed_form("t", 1.0)
    with pytest.raises(ValueError):
        save_sampled_csv(w, tmp_path / "w.csv")


def test_csv_load_rejects_partial_lattice(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("# perispec-csv v1\nt_index,node_index,value\n0,0,1.0\n0,1,2.0\n1,0,3.0\n")
    with pytest.raises(ValueError):
        load_sampled_csv(path, 1.0)


def test_csv_load_matches_float_parsing_bit_for_bit(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.normal(size=(5, 7)) * 10.0 ** rng.integers(-300, 300, size=(5, 7))
    path = tmp_path / "w.csv"
    save_sampled_csv(from_samples(values, 1.0), path)
    rows = [ln.split(",") for ln in path.read_text().splitlines()[2:]]
    expected = np.array([float(r[2]) for r in rows]).reshape(5, 7)
    back = load_sampled_csv(path, 1.0).samples
    assert np.array_equal(back.view(np.int64), expected.view(np.int64))


CSV_HEAD = "t_index,node_index,value\n"


@pytest.mark.parametrize("body, message", [
    pytest.param("", "empty CSV", id="empty"),
    pytest.param("# perispec-csv v1\n", "empty CSV", id="schema-only"),
    pytest.param("t_index,node,value\n0,0,1.0\n", "expected columns", id="bad-header"),
    pytest.param(CSV_HEAD, "no samples", id="no-rows"),
    pytest.param(CSV_HEAD + "# only a comment\n", "no samples", id="comment-only"),
    pytest.param(CSV_HEAD + "0,0,1.0\n0,1,2.0\n1,0,3.0\n", "full 2 x 2 lattice",
                 id="partial-lattice"),
    pytest.param(CSV_HEAD + "0,0,1.0\n0,1,2.0\n1,0,3.0\n1,0,4.0\n", "missing entries",
                 id="duplicate-entry"),
    pytest.param(CSV_HEAD + "0,0,1.0\n0,1.5,2.0\n", "could not convert", id="fractional-index"),
    pytest.param(CSV_HEAD + "0,0,1.0\n1.0,0,2.0\n", "could not convert", id="float-index"),
    pytest.param(CSV_HEAD + "0,0,1.0\n0,x,2.0\n", "could not convert", id="non-numeric-index"),
    pytest.param(CSV_HEAD + "0,0,1.0\n0,1\n", "3 columns", id="short-row"),
    pytest.param(CSV_HEAD + "0,0,1.0\n-1,0,2.0\n", "negative", id="negative-index"),
])
def test_csv_load_rejects_malformed_files(tmp_path, body, message):
    path = tmp_path / "w.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match=message):
        load_sampled_csv(path, 1.0)


# --------------------------------------------------- algebra on weights

def test_shift_scale_add_laws(grid):
    w = closed_form("sin(2*pi*t/T) + cos(2*pi*x)", 1.0)
    t = 0.37
    base = w.evaluate(t, grid)
    np.testing.assert_allclose(w.shifted(0.4).evaluate(t, grid), base + 0.4, atol=1e-13)
    np.testing.assert_allclose(w.scaled(-2.5).evaluate(t, grid), -2.5 * base, atol=1e-13)
    np.testing.assert_allclose((3.0 * w).evaluate(t, grid), 3.0 * base, atol=1e-13)
    other = closed_form("x", 1.0)
    np.testing.assert_allclose((w + other).evaluate(t, grid),
                               base + grid.nodes[:, 0], atol=1e-13)


def test_shift_scale_on_sampled(grid):
    rng = np.random.default_rng(5)
    w = from_samples(rng.normal(size=(5, grid.n)), 1.0)
    t = 0.23
    base = w.evaluate(t, grid)
    np.testing.assert_allclose(w.shifted(-1.0).evaluate(t, grid), base - 1.0, atol=1e-13)
    np.testing.assert_allclose(w.scaled(0.5).evaluate(t, grid), 0.5 * base, atol=1e-13)


def test_add_requires_matching_period():
    a = closed_form("t", 1.0)
    b = closed_form("t", 2.0)
    with pytest.raises(ValueError):
        a + b


def test_maximizer_data_survives_shift_and_positive_scale():
    data = S1Data(smoothness=math.inf, maximizer=(0.5,), flat_order=1)
    w = closed_form("-(x - 0.5)**2", 1.0, s1_data=data)
    assert w.shifted(1.0).s1_data == data
    assert w.scaled(2.0).s1_data == data
    assert w.scaled(-1.0).s1_data is None  # max becomes min


# ----------------------------------------------------------- functionals

def test_time_average_of_pure_oscillation_vanishes(grid):
    w = closed_form("sin(2*pi*t/T)", 3.0)
    np.testing.assert_allclose(time_average(w, grid), 0.0, atol=1e-13)


def test_time_average_of_autonomous_weight_is_itself(grid):
    w = closed_form("cos(2*pi*x) - 0.2", 1.0)
    np.testing.assert_allclose(time_average(w, grid),
                               np.cos(2 * np.pi * grid.nodes[:, 0]) - 0.2, atol=1e-12)


def test_time_average_squared_oscillation(grid):
    # cos^2 averages to 1/2, so m_hat = g / 2
    w = closed_form("cos(2*pi*t/T)**2 * (1 + x)", 2.0)
    np.testing.assert_allclose(time_average(w, grid),
                               0.5 * (1 + grid.nodes[:, 0]), atol=1e-12)


def test_p_functional_pure_oscillation_is_zero(grid):
    w = closed_form("sin(2*pi*t/T)", 1.0)
    assert abs(p_functional(w, grid)) < 1e-13


def test_p_functional_autonomous_is_period_times_max(grid):
    w = closed_form("cos(2*pi*x) - 0.2", 4.0)
    expected = 4.0 * float((np.cos(2 * np.pi * grid.nodes[:, 0]) - 0.2).max())
    assert p_functional(w, grid) == pytest.approx(expected, rel=1e-12)


def test_p_functional_worked_example_odd_grid():
    # nodes of the odd grid contain x = 1/2 where -cos attains its max of 1,
    # so the spatial max is sin(2 pi t) + 1 and the integral is exactly T
    g = build_grid(Boundary.DIRICHLET, (1.0,), 5)
    w = closed_form("sin(2*pi*t/T) - cos(2*pi*x)", 1.0)
    assert p_functional(w, g) == pytest.approx(1.0, abs=1e-12)


def test_p_functional_grid_convergence():
    w = closed_form("sin(2*pi*t/T) - cos(2*pi*x)", 1.0)
    errs = []
    for n in (8, 32, 128):
        g = build_grid(Boundary.DIRICHLET, (1.0,), n)
        errs.append(abs(p_functional(w, g) - 1.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-4


def test_p_functional_time_quadrature_converges(grid, monkeypatch):
    # spatial max of sin(2 pi t) * (x - 1/2) is |sin| * (1/2 - h/2): kinked in t
    half = 0.5 - 0.5 * grid.spacing[0]
    exact = half * 2.0 / math.pi

    def p_on_lattice(n_time):
        # a fresh weight per lattice: the summary is kept per weight and grid
        monkeypatch.setattr(perispec.weights, "N_TIME", n_time)
        return p_functional(closed_form("sin(2*pi*t/T) * (x - 0.5)", 1.0), grid)
    assert p_on_lattice(4096) == pytest.approx(exact, rel=1e-6)
    e_coarse = abs(p_on_lattice(64) - exact)
    e_fine = abs(p_on_lattice(256) - exact)
    assert e_fine < e_coarse / 4.0  # second-order quadrature


@settings(max_examples=30, deadline=None)
@given(c=st.floats(0.05, 20.0), shift=st.floats(-3.0, 3.0))
def test_p_functional_scaling_and_shift_laws(c, shift):
    g = build_grid(Boundary.DIRICHLET, (1.0,), 9)
    w = closed_form("sin(2*pi*t/T) - cos(2*pi*x)*0.7", 1.3)
    p = p_functional(w, g)
    scale = 1.0 + abs(p)
    assert p_functional(w.scaled(c), g) == pytest.approx(c * p, abs=1e-11 * c * scale)
    assert p_functional(w.shifted(shift), g) == pytest.approx(p + shift * 1.3,
                                                              abs=1e-10 * scale)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-2.0, 2.0),
    b=st.floats(-2.0, 2.0),
    c=st.floats(-2.0, 2.0),
)
def test_p_dominates_average_max(a, b, c):
    # the best instantaneous growth accumulated over a period can only beat
    # sitting at the best average location
    g = build_grid(Boundary.DIRICHLET, (1.0,), 9)
    expr = f"({a!r})*sin(2*pi*t/T) + ({b!r})*cos(2*pi*x) + ({c!r})*x"
    w = closed_form(expr, 1.0)
    s = summarize(w, g)
    assert s.p_value >= 1.0 * s.m_hat_max - 1e-12 * (1.0 + abs(s.p_value))


# ------------------------------------------------------------- summaries

def test_summarize_fields(grid):
    w = closed_form("sin(2*pi*t/T) + 0.5*cos(2*pi*x)", 2.0)
    s = summarize(w, grid)
    np.testing.assert_allclose(s.m_hat, time_average(w, grid), atol=1e-14)
    assert s.p_value == pytest.approx(p_functional(w, grid), rel=1e-14)
    assert s.m_hat_max == pytest.approx(s.m_hat.max())
    assert s.m_hat_min == pytest.approx(s.m_hat.min())
    # integral of m over one period and the domain: the oscillation drops out
    assert s.time_space_integral == pytest.approx(0.0, abs=1e-12)
    assert s.sup_abs == pytest.approx(sup_abs(w, grid))
    assert s.sup_abs <= 1.5 + 1e-12


def test_time_space_integral_matches_quadrature(grid):
    w = closed_form("x - 0.25", 3.0)
    s = summarize(w, grid)
    expected = 3.0 * float(np.dot(grid.quad_weights, grid.nodes[:, 0] - 0.25))
    assert s.time_space_integral == pytest.approx(expected, rel=1e-12)


def test_space_independent_detection(grid):
    assert space_independent(closed_form("sin(2*pi*t/T)", 1.0), grid)
    assert space_independent(closed_form("0.3", 1.0), grid)
    assert not space_independent(closed_form("x", 1.0), grid)
    assert not space_independent(closed_form("sin(2*pi*t/T) + 0.001*x", 1.0), grid)


# products whose time factor vanishes at every time of the 256-interval
# lattice; on the offset lattice the 512 one is the same spatially varying
# row at every time, so its drift from that lattice's own mean would vanish
ALIASED = ["cos(2*pi*x)*sin(256*pi*t/T) - 0.1", "cos(2*pi*x)*sin(512*pi*t/T) - 0.1"]


@pytest.mark.parametrize("expr, separable", [
    ("0.3", True),
    ("sin(2*pi*t/T)", True),
    ("cos(2*pi*x) - 0.2 + sin(2*pi*t/T + 0.7)", True),
    ("x*x + 3*cos(2*pi*t/T)**2", True),
    ("cos(2*pi*x)*(1 + sin(2*pi*t/T))", False),
    ("cos(2*pi*(x - t/T))", False),
    ("cos(2*pi*x) + 1e-9*x*sin(2*pi*t/T)", False),
    *[(expr, False) for expr in ALIASED],
])
def test_separable_detection(grid, expr, separable):
    # m1(x) + m2(t): the fluctuation m - m_hat is constant in space at every time
    w = closed_form(expr, 1.0)
    assert summarize(w, grid).separable is separable
    if expr in ALIASED:
        assert not summarize(w, grid).space_independent
        # 32 rows sample the product only where it vanishes: that weight is -0.1
        constant = summarize(sample_closed_form(w, grid, 32), grid)
        assert constant.separable and constant.space_independent
    else:
        # linear interpolation between lattice rows keeps the structure
        assert summarize(sample_closed_form(w, grid, 32), grid).separable is separable
    # 100 rows fall between the lattice's times
    assert summarize(sample_closed_form(w, grid, 100), grid).separable is separable


def test_sampled_weight_reads_its_structure_on_its_own_rows(grid):
    # 512 rows: the 256-interval lattice meets only the even ones, which are
    # constant in space; the odd rows are not
    samples = np.full((512, grid.n), -0.1)
    samples[1::2] += np.cos(2 * np.pi * grid.nodes[:, 0])
    summary = summarize(from_samples(samples, 1.0), grid)
    assert not summary.separable and not summary.space_independent


@pytest.mark.parametrize("sampled", [False, True])
def test_summary_is_kept_per_weight_grid_and_lattice(grid, sampled):
    w = closed_form("sin(2*pi*t/T) + cos(2*pi*x) - 0.2", 1.0)
    if sampled:
        w = sample_closed_form(w, grid, 32)
    s = summarize(w, grid)
    assert summarize(w, grid) is s
    assert time_average(w, grid) is s.m_hat
    other_grid = build_grid(Boundary.DIRICHLET, (1.0,), 16)
    derived = [w.shifted(0.5), w.scaled(2.0), w + w, 3.0 * w]
    fresh = [summarize(v, grid) for v in derived]
    fresh.append(summarize(w, other_grid))
    assert all(f is not s for f in fresh)
    assert len({id(f) for f in fresh}) == len(fresh)
    np.testing.assert_allclose(summarize(w.shifted(0.5), grid).m_hat, s.m_hat + 0.5,
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(summarize(w + w, grid).m_hat, 2.0 * s.m_hat, rtol=1e-14)
    # the kept summaries take no part in equality
    u = closed_form("x", 1.0)
    summarize(u, grid)
    assert u == closed_form("x", 1.0)


def test_threads_asking_at_once_share_one_lattice(grid, monkeypatch):
    calls = []
    original = perispec.weights._time_lattice

    def slow(*args, **kwargs):
        calls.append(1)
        time.sleep(0.05)  # every thread asks while the first lattice is built
        return original(*args, **kwargs)
    monkeypatch.setattr(perispec.weights, "_time_lattice", slow)
    w = closed_form("sin(2*pi*t/T) + cos(2*pi*x)", 1.0)
    got = []
    threads = [threading.Thread(target=lambda: got.append(summarize(w, grid)))
               for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 1
    assert len(got) == 4 and all(s is got[0] for s in got)


# --------------------------------------------------- existence conditions

def test_conditions_pure_oscillation_marginal(grid):
    # spatial max integrates to exactly zero: no clause holds, and the sign
    # is flagged as untrustworthy
    rep = check_conditions(closed_form("sin(2*pi*t/T)", 1.0), grid)
    assert not rep.d_holds and not rep.n_holds and not rep.p_holds
    assert rep.p_marginal
    assert rep.marginal_for(Boundary.DIRICHLET)


def test_conditions_sign_changing_negative_mass(grid):
    # positive somewhere, negative total mass: every clause holds
    rep = check_conditions(closed_form("cos(2*pi*x) - 0.2", 1.0), grid)
    assert rep.p_value > 0 and rep.time_space_integral < 0
    assert rep.d_holds and rep.n_holds and rep.p_holds
    assert not rep.marginal_for(Boundary.NEUMANN)
    assert rep.holds_for(Boundary.DIRICHLET) and rep.holds_for(Boundary.PERIODIC)


def test_conditions_positive_mass(grid):
    # favorable on average: fine for a hostile exterior, fails the
    # mass-conserving integral clause
    rep = check_conditions(closed_form("1 + sin(2*pi*t/T)", 1.0), grid)
    assert rep.d_holds
    assert not rep.n_holds
    assert rep.holds_for(Boundary.DIRICHLET)
    assert not rep.holds_for(Boundary.NEUMANN)


def test_condition_report_from_values():
    rep = ConditionReport.from_values(2.0, -0.5)
    assert rep.d_holds and rep.n_holds and rep.p_holds
    assert rep.tol_p == pytest.approx(3e-9) and rep.tol_integral == pytest.approx(1.5e-9)
    # within tolerance of zero: the clause fails and is flagged marginal
    rep = ConditionReport.from_values(2.0, -1e-10)
    assert rep.d_holds and not rep.n_holds and not rep.p_holds
    assert rep.integral_marginal and rep.marginal_for(Boundary.PERIODIC)
    assert not rep.marginal_for(Boundary.DIRICHLET)


def test_conditions_everywhere_unfavorable(grid):
    rep = check_conditions(closed_form("-1 + 0.5*sin(2*pi*t/T)", 1.0), grid)
    assert rep.p_value < 0
    assert not rep.d_holds and not rep.n_holds
    assert not rep.marginal_for(Boundary.DIRICHLET)
