"""Time-periodic weight fields and the favorability functionals built on them.

A weight ``m(t, x)`` is either a closed-form expression in ``t`` and the
spatial coordinates, or a sampled time-by-node array.  Both kinds are periodic
in ``t`` by construction: closed forms are evaluated at ``t mod T`` and sampled
arrays index modulo their time lattice.

The two scalar functionals that drive the existence theory are

* ``time_average`` -- the per-node time mean, written ``m_hat`` throughout, and
* ``p_functional`` -- the time integral of the spatial maximum, i.e. the best
  instantaneous growth rate accumulated over one period.

Neither depends on the coupling ``lam``.  ``summarize`` is the one place they
are computed, with ``sup|m|`` and the space-time integral from one time
lattice and the weight's structure (separable ``m1(x) + m2(t)``,
space-independent) from rows that no oscillation in time can alias; the
other functionals are views of its ``WeightSummary``.  The
summary is kept on the weight, once per grid, so every spectrum point, root
search and orbit of one weight reads the same one.  Other lam-independent
tables of the weight on a grid (the stepper's half-step sums) are kept beside
it by ``kept_table``.
"""

from __future__ import annotations

import ast
import math
import threading
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .geometry import Boundary, Grid

# intervals per period of ``summarize``'s time lattice
N_TIME = 256
# where ``summarize``'s second lattice sits in each interval of the first
_LATTICE_OFFSET = (math.sqrt(5.0) - 1.0) / 2.0

_FUNCS = {"sin": np.sin, "cos": np.cos}
_NAMES = {"t", "x", "y", "pi", "T"}


class WeightExprError(ValueError):
    pass


def _validate_node(node: ast.AST) -> None:
    if isinstance(node, ast.Expression):
        _validate_node(node.body)
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise WeightExprError(f"non-numeric constant {node.value!r}")
    elif isinstance(node, ast.Name):
        if node.id not in _NAMES:
            raise WeightExprError(f"unknown name {node.id!r}; allowed: {sorted(_NAMES)}")
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)):
            raise WeightExprError(f"operator {type(node.op).__name__} not allowed")
        _validate_node(node.left)
        _validate_node(node.right)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.UAdd, ast.USub)):
            raise WeightExprError(f"unary {type(node.op).__name__} not allowed")
        _validate_node(node.operand)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
            raise WeightExprError("only sin(...) and cos(...) calls are allowed")
        if len(node.args) != 1 or node.keywords:
            raise WeightExprError(f"{node.func.id} takes exactly one positional argument")
        _validate_node(node.args[0])
    else:
        raise WeightExprError(f"syntax element {type(node).__name__} not allowed in weight expressions")


@lru_cache(maxsize=512)
def _compile_expr(expr: str):
    """Compile a whitelisted arithmetic expression; returns (callable, used names)."""
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise WeightExprError(f"cannot parse weight expression {expr!r}: {exc}") from exc
    _validate_node(tree)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    code = compile(tree, "<weight-expr>", "eval")

    def fn(t, x, y, period):
        env = {"t": t, "x": x, "y": y, "pi": math.pi, "T": period}
        env.update(_FUNCS)
        return eval(code, {"__builtins__": {}}, env)

    return fn, frozenset(used)


@dataclass(frozen=True)
class S1Data:
    """Analytic facts about ``m_hat`` supplied with a closed-form weight.

    ``smoothness`` is the differentiability order of the time-averaged field,
    ``maximizer`` its (claimed) interior argmax, and ``flat_order`` the highest
    derivative order that vanishes there.  Used only to decide the smooth
    interior-maximum sufficiency test; absent data means "unknown", never a
    guess.
    """

    smoothness: float
    maximizer: tuple[float, ...]
    flat_order: int = 1


@dataclass(frozen=True)
class Weight:
    """Time-periodic weight; exactly one of ``expr`` / ``samples`` is set."""

    period: float
    expr: str | None = None
    samples: np.ndarray | None = None  # (n_time_lattice, n_nodes)
    s1_data: S1Data | None = None
    # (grid, {key: table}) by id(grid): ``summarize``'s result and
    # ``kept_table``'s tables; ``replace`` starts afresh
    _tables: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __eq__(self, other):
        # the generated ``__eq__`` compares ``samples`` inside a tuple, which
        # raises for arrays of more than one element
        if other.__class__ is not self.__class__:
            return NotImplemented
        if (self.samples is None) != (other.samples is None):
            return False
        return (self.period == other.period and self.expr == other.expr
                and self.s1_data == other.s1_data
                and (self.samples is None or np.array_equal(self.samples, other.samples)))

    def evaluate(self, t: float, grid: Grid) -> np.ndarray:
        """Field values at all grid nodes at time ``t`` (wrapped into [0, T))."""
        return self.table(np.array([float(t)]), grid)[0]

    def table(self, times, grid: Grid) -> np.ndarray:
        """Field values at many times: a ``(len(times), n)`` array, one row per time.

        Times are wrapped into [0, T).  Closed forms are evaluated in one call
        with the times as a column broadcast against the node row; sampled
        weights interpolate linearly between neighboring lattice rows.
        """
        tau = np.mod(np.asarray(times, dtype=float), self.period)
        if self.expr is not None:
            fn, used = _compile_expr(self.expr)
            pts = grid.nodes
            if grid.boundary is Boundary.PERIODIC:
                pts = np.mod(pts, np.asarray(grid.box))
            if "y" in used and grid.dim < 2:
                raise WeightExprError("weight expression references y on a 1-D grid")
            x = pts[:, 0]
            y = pts[:, 1] if grid.dim > 1 else None
            vals = fn(tau[:, None], x, y, self.period)
            vals = np.broadcast_to(np.asarray(vals, dtype=float), (tau.size, grid.n)).copy()
            if not np.all(np.isfinite(vals)):
                raise WeightExprError(f"weight expression {self.expr!r} is not finite on the grid")
            return vals
        samples = self.samples
        if samples.shape[1] != grid.n:
            raise ValueError(f"sampled weight has {samples.shape[1]} nodes, grid has {grid.n}")
        n_time = samples.shape[0]
        s = tau / self.period * n_time
        floor = np.floor(s)
        i0 = floor.astype(int) % n_time
        frac = (s - floor)[:, None]
        return (1.0 - frac) * samples[i0] + frac * samples[(i0 + 1) % n_time]

    def antiderivative(self, times, grid: Grid) -> np.ndarray:
        """``int_0^t m`` of a sampled weight's interpolant at many times: a
        ``(len(times), n)`` array, exact for the interpolant ``table`` reads,
        which is linear between lattice rows.  Whole periods add the period's
        integral, so the times need not lie in [0, T)."""
        samples = self.samples
        if samples is None:
            raise ValueError("antiderivative needs a sampled weight")
        if samples.shape[1] != grid.n:
            raise ValueError(f"sampled weight has {samples.shape[1]} nodes, grid has {grid.n}")
        n_time = samples.shape[0]
        dt = self.period / n_time
        ahead = np.roll(samples, -1, axis=0)
        # the integral from 0 to each lattice time, the period's last
        cumulative = np.concatenate([np.zeros((1, grid.n)),
                                     np.cumsum((0.5 * dt) * (samples + ahead), axis=0)])
        periods, tau = np.divmod(np.asarray(times, dtype=float), self.period)
        s = tau / dt
        i0 = np.minimum(np.floor(s).astype(int), n_time - 1)
        frac = (s - i0)[:, None]
        slope = ahead[i0] - samples[i0]
        return (periods[:, None] * cumulative[-1] + cumulative[i0]
                + dt * frac * (samples[i0] + 0.5 * frac * slope))

    def shifted(self, c: float) -> "Weight":
        """The weight ``m + c``; analytic maximizer data survives a shift."""
        if self.expr is not None:
            return replace(self, expr=f"({self.expr}) + ({c!r})")
        return replace(self, samples=_frozen(self.samples + float(c)))

    def scaled(self, c: float) -> "Weight":
        """The weight ``c * m``; maximizer data survives only positive scaling."""
        data = self.s1_data if c > 0 else None
        if self.expr is not None:
            return replace(self, expr=f"({c!r}) * ({self.expr})", s1_data=data)
        return replace(self, samples=_frozen(float(c) * self.samples), s1_data=data)

    def __add__(self, other: "Weight") -> "Weight":
        if not isinstance(other, Weight):
            return NotImplemented
        if other.period != self.period:
            raise ValueError("cannot add weights with different periods")
        if self.expr is not None and other.expr is not None:
            return Weight(self.period, expr=f"({self.expr}) + ({other.expr})")
        if self.samples is not None and other.samples is not None:
            if self.samples.shape != other.samples.shape:
                raise ValueError("cannot add sampled weights with different lattices")
            return Weight(self.period, samples=_frozen(self.samples + other.samples))
        raise ValueError("cannot add a closed-form weight to a sampled weight")

    def __mul__(self, c):
        return self.scaled(float(c))

    __rmul__ = __mul__


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def closed_form(expr: str, period: float, s1_data: S1Data | None = None) -> Weight:
    """Build a closed-form weight; the expression is validated eagerly."""
    if not period > 0.0:
        raise ValueError("period must be positive")
    _compile_expr(expr)
    return Weight(float(period), expr=expr, s1_data=s1_data)


def from_samples(samples, period: float) -> Weight:
    """Build a sampled weight from a (time lattice, node) array, copied."""
    samples = np.array(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("samples must be a (n_time >= 2, n_nodes) array")
    if not period > 0.0:
        raise ValueError("period must be positive")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    return Weight(float(period), samples=_frozen(samples))


def _time_lattice(weight: Weight, grid: Grid) -> np.ndarray:
    """The ``(N_TIME + 1, n)`` values at the times ``0..T`` of the lattice, ends included."""
    return weight.table(np.arange(N_TIME + 1) * (weight.period / N_TIME), grid)


@dataclass(frozen=True)
class WeightSummary:
    m_hat: np.ndarray         # per-node time average
    p_value: float
    time_space_integral: float  # integral of m over one period and the domain
    m_hat_max: float
    m_hat_min: float
    sup_abs: float
    space_independent: bool   # every time slice spatially constant up to rounding
    separable: bool           # m - m_hat spatially constant at every time: m1(x) + m2(t)


_SUMMARY_LOCK = threading.Lock()


def _grid_tables(weight: Weight, grid: Grid) -> dict:
    """The weight's kept tables on ``grid``; the caller holds ``_SUMMARY_LOCK``.
    They are kept with the grid, so the key's grid id cannot be reused while
    the entry lives."""
    return weight._tables.setdefault(id(grid), (grid, {}))[1]


def summarize(weight: Weight, grid: Grid) -> WeightSummary:
    """The lam-independent data of ``weight`` on ``grid``, built once per grid:
    kept on the weight with the grid, and built under a lock, so threads asking
    at once share it."""
    with _SUMMARY_LOCK:
        tables = _grid_tables(weight, grid)
        if "summary" in tables:
            return tables["summary"]
        table = _time_lattice(weight, grid)
        coeff = np.ones(N_TIME + 1)
        coeff[0] = coeff[-1] = 0.5
        m_hat = (coeff[:, None] * table).sum(axis=0) / N_TIME
        p_value = float((coeff * table.max(axis=1)).sum() / N_TIME * weight.period)
        integral = float(weight.period * np.dot(grid.quad_weights, m_hat))
        sup = float(np.abs(table).max())
        # The structure flags are read on a sampled weight's own rows, which
        # decide them at every time (the weight is linear in time between
        # them), and on a closed form's lattice and on a second one offset by
        # an irrational fraction of an interval: an oscillation at a multiple
        # of the lattice frequency vanishes at every time of the first.  The
        # drift is taken against the first lattice's m_hat on both.
        if weight.samples is not None:
            rows = weight.samples
        else:
            offset = (np.arange(N_TIME) + _LATTICE_OFFSET) * (weight.period / N_TIME)
            rows = np.concatenate([table, weight.table(offset, grid)])
        tol = 1e-12 * (1.0 + sup)
        space_independent = float(np.ptp(rows, axis=1).max()) <= tol
        # m - m_hat is spatially constant at every time for m1(x) + m2(t)
        separable = float(np.ptp(rows - m_hat, axis=1).max()) <= tol
        summary = WeightSummary(
            m_hat=_frozen(m_hat),
            p_value=p_value,
            time_space_integral=integral,
            m_hat_max=float(m_hat.max()),
            m_hat_min=float(m_hat.min()),
            sup_abs=sup,
            space_independent=space_independent,
            separable=separable,
        )
        tables["summary"] = summary
    return summary


def kept_table(weight: Weight, grid: Grid, key, build) -> np.ndarray:
    """``build()``, a lam-independent table of ``weight`` on ``grid``, built
    once per ``key`` under ``summarize``'s lock and kept read-only beside the
    grid's summary."""
    with _SUMMARY_LOCK:
        tables = _grid_tables(weight, grid)
        if key not in tables:
            tables[key] = _frozen(build())
        return tables[key]


def time_average(weight: Weight, grid: Grid) -> np.ndarray:
    """Per-node time mean over one period (composite trapezoid rule)."""
    return summarize(weight, grid).m_hat


def p_functional(weight: Weight, grid: Grid) -> float:
    """Time integral of the spatial maximum: trapezoid of ``max_x m(t, x)``.

    For a time-independent weight this is exactly ``T * max m``.
    """
    return summarize(weight, grid).p_value


def sup_abs(weight: Weight, grid: Grid) -> float:
    """Sup of |m| over the sample lattice; used for step-size heuristics."""
    return summarize(weight, grid).sup_abs


def space_independent(weight: Weight, grid: Grid) -> bool:
    """True when every time slice is spatially constant up to rounding.

    Decided on ``summarize``'s rows: the largest spatial range across slices
    must stay below 1e-12 relative to the field scale.
    """
    return summarize(weight, grid).space_independent


@dataclass(frozen=True)
class ConditionReport:
    """Evaluation of the existence conditions for a positive threshold.

    The hostile-exterior condition needs only ``p_value > 0``; the
    mass-conserving boundaries additionally need the time-space integral of the
    weight to be negative.  ``marginal`` flags mark clauses within tolerance of
    zero, where the discrete sign is not trustworthy.
    """

    p_value: float
    time_space_integral: float
    d_holds: bool
    n_holds: bool
    p_marginal: bool
    integral_marginal: bool
    tol_p: float
    tol_integral: float

    @classmethod
    def from_values(cls, p_value: float, time_space_integral: float) -> "ConditionReport":
        """Judge the conditions from the two functionals, within relative 1e-9."""
        tol_p = 1e-9 * (1.0 + abs(p_value))
        tol_i = 1e-9 * (1.0 + abs(time_space_integral))
        p_positive = p_value > tol_p
        return cls(
            p_value=p_value,
            time_space_integral=time_space_integral,
            d_holds=p_positive,
            n_holds=p_positive and time_space_integral < -tol_i,
            p_marginal=abs(p_value) <= tol_p,
            integral_marginal=abs(time_space_integral) <= tol_i,
            tol_p=tol_p,
            tol_integral=tol_i,
        )

    def holds_for(self, boundary: Boundary) -> bool:
        return self.d_holds if boundary is Boundary.DIRICHLET else self.n_holds

    def marginal_for(self, boundary: Boundary) -> bool:
        if boundary is Boundary.DIRICHLET:
            return self.p_marginal
        return self.p_marginal or self.integral_marginal


def check_conditions(weight: Weight, grid: Grid) -> ConditionReport:
    summary = summarize(weight, grid)
    return ConditionReport.from_values(summary.p_value, summary.time_space_integral)


# one row of a sampled-weight CSV; the indices must parse as integers
_CSV_ROW = np.dtype([("t_index", np.int64), ("node_index", np.int64), ("value", float)])


def _content_line(fh) -> str | None:
    """The next line of ``fh`` that is neither blank nor a ``#`` comment."""
    for line in iter(fh.readline, ""):
        if line.strip() and not line.startswith("#"):
            return line
    return None


def load_sampled_csv(path, period: float) -> Weight:
    """Read a sampled weight from (t_index, node_index, value) rows."""
    with open(path) as fh:
        header = _content_line(fh)
        if header is None:
            raise ValueError(f"{path}: empty CSV")
        columns = header.strip().split(",")
        if columns != list(_CSV_ROW.names):
            raise ValueError(f"{path}: expected columns t_index,node_index,value, got {columns}")
        start = fh.tell()
        if _content_line(fh) is None:
            raise ValueError(f"{path}: no samples")
        fh.seek(start)
        try:
            rows = np.loadtxt(fh, delimiter=",", dtype=_CSV_ROW, comments="#", ndmin=1)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    t_idx, n_idx = rows["t_index"], rows["node_index"]
    if t_idx.min() < 0 or n_idx.min() < 0:
        raise ValueError(f"{path}: negative t_index or node_index")
    n_time, n_nodes = int(t_idx.max()) + 1, int(n_idx.max()) + 1
    if len(rows) != n_time * n_nodes:
        raise ValueError(f"{path}: expected a full {n_time} x {n_nodes} lattice, got {len(rows)} rows")
    samples = np.full((n_time, n_nodes), np.nan)
    samples[t_idx, n_idx] = rows["value"]
    if not np.all(np.isfinite(samples)):
        raise ValueError(f"{path}: lattice has missing entries")
    return from_samples(samples, period)
