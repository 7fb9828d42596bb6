"""Spans and counters recorded around ``perispec``'s layers, from outside.

``install`` replaces public functions in every ``perispec`` module namespace
that binds them, so each caller's global lookup finds the wrapper.  A
wrapped call records a span (name, start, end, parent); spans of one workload
share its id.  ``Weight.evaluate`` runs ~1e5 times per round, so it gets a
call counter and a time sum instead of a span per call.  Spans stay in
memory until ``layer_metrics`` condenses them.

Self time is a span's duration minus the union of its child spans.  A span
opened in a CLI worker thread, which has no open span of its own, takes the
current task span as its parent.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# (metric prefix, module that defines the function, function name)
LAYERS = (
    ("operator.assemble", "operator", "assemble"),
    ("weights.load_samples", "weights", "load_sampled_csv"),
    ("evolution.period_map", "evolution", "period_map"),
    ("evolution.propagate", "evolution", "propagate"),
    ("spectrum.mu_eval", "spectrum", "principal_spectrum_point"),
    ("spectrum.autonomous", "spectrum", "autonomous_spectrum_point"),
    ("weighted_solver.solve", "weighted_solver", "solve_lambda_p"),
    ("kpp.orbit", "kpp", "find_periodic_solution"),
    ("kpp.simulate", "kpp", "simulate_kpp"),
    ("io.write", "_io", "write_csv"),
    ("io.write", "_io", "write_json"),
    ("io.write", "_io", "write_text"),
)
# λ-independent weight tables; counted where other modules call them, so a
# table one of them builds through another (check_conditions -> summarize)
# counts once
TABLES = ("sup_abs", "time_average", "summarize", "check_conditions",
          "space_independent", "p_functional")
TABLE_SPAN = "weights.table"

# (name, unit, better): every metric ``layer_metrics`` reports
PER_LAYER = (
    ("operator.assemble_s", "s", "lower"),
    ("weights.load_samples_s", "s", "lower"),
    ("weights.evaluate_calls", "count", "lower"),
    ("weights.evaluate_s", "s", "lower"),
    ("weights.table_builds", "count", "lower"),
    ("weights.table_s", "s", "lower"),
    ("evolution.period_maps", "count", "lower"),
    ("evolution.period_map_s", "s", "lower"),
    ("evolution.rk_steps", "count", "lower"),
    ("evolution.gflop", "GFLOP", "lower"),
    ("evolution.gflop_per_s", "GFLOP/s", "higher"),
    ("evolution.propagate_s", "s", "lower"),
    ("spectrum.mu_evals", "count", "lower"),
    ("spectrum.mu_eval_s", "s", "lower"),
    ("spectrum.power_iterations", "count", "lower"),
    ("spectrum.power_iterations_per_mu", "ratio", "lower"),
    ("spectrum.autonomous_evals", "count", "lower"),
    ("spectrum.autonomous_s", "s", "lower"),
    ("weighted_solver.solves", "count", "lower"),
    ("weighted_solver.solve_s", "s", "lower"),
    ("weighted_solver.mu_evals_per_root", "ratio", "lower"),
    ("kpp.orbits", "count", "lower"),
    ("kpp.poincare_periods", "count", "lower"),
    ("kpp.periods_per_orbit", "ratio", "lower"),
    ("kpp.simulate_s", "s", "lower"),
    ("kpp.rk_steps", "count", "lower"),
    ("io.write_s", "s", "lower"),
    ("io.bytes_written", "bytes", "lower"),
    ("trace.task_wall_s", "s", "lower"),
)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float


class Tracer:
    def __init__(self, workload_id: str):
        self.workload_id = workload_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.evaluate_s = 0.0
        self.task_span: int | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else self.task_span
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, name, time.perf_counter()

    def close(self, token) -> None:
        sid, parent, name, start = token
        end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(Span(sid, parent, name, start, end))

    def count(self, name: str, n=1) -> None:
        with self._lock:
            self.counts[name] += n

    def add_evaluate(self, seconds: float) -> None:
        with self._lock:
            self.counts["weights.evaluate_calls"] += 1
            self.evaluate_s += seconds

    def task(self, name: str):
        """Open the root span of one CLI call; returns the token for ``end_task``."""
        token = self.open(f"task.{name}")
        self.task_span = token[0]
        return token

    def end_task(self, token) -> None:
        self.close(token)
        self.task_span = None


def _after_period_map(tracer, args, kwargs, result):
    tracer.count("evolution.rk_steps", result.n_steps)
    tracer.count("evolution.flop", 8 * result.n ** 3 * result.n_steps)


def _after_mu_eval(tracer, args, kwargs, result):
    tracer.count("spectrum.power_iterations", result.iterations)


def _after_orbit(tracer, args, kwargs, result):
    tracer.count("kpp.poincare_periods", result.periods_used)


def _after_simulate(tracer, args, kwargs, result):
    # every caller in the package passes n_steps; None would mean the default
    tracer.count("kpp.rk_steps", kwargs.get("n_steps") or 0)


def _after_write(tracer, args, kwargs, result):
    tracer.count("io.bytes_written", os.path.getsize(args[0]))


AFTER = {"evolution.period_map": _after_period_map,
         "spectrum.mu_eval": _after_mu_eval,
         "kpp.orbit": _after_orbit,
         "kpp.simulate": _after_simulate,
         "io.write": _after_write}


def _wrap(tracer: Tracer, span_name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = tracer.open(span_name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(token)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result
    return wrapper


def install(tracer: Tracer):
    """Wrap the layers of the imported ``perispec``; returns an undo function."""
    import perispec.cli  # noqa: F401  (binds the CLI's names before they are wrapped)
    from perispec.weights import Weight

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "perispec" or name.startswith("perispec."))]
    replaced = []

    def replace_everywhere(original, wrapper, skip=None):
        for mod in modules:
            if mod is skip:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    replaced.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    for prefix, module, fname in LAYERS:
        original = getattr(sys.modules[f"perispec.{module}"], fname)
        replace_everywhere(original, _wrap(tracer, prefix, original, AFTER.get(prefix)))
    weights_mod = sys.modules["perispec.weights"]
    for fname in TABLES:
        original = getattr(weights_mod, fname)
        replace_everywhere(original, _wrap(tracer, TABLE_SPAN, original),
                           skip=weights_mod)

    original_evaluate = Weight.evaluate

    @functools.wraps(original_evaluate)
    def evaluate(self, t, grid):
        start = time.perf_counter()
        try:
            return original_evaluate(self, t, grid)
        finally:
            tracer.add_evaluate(time.perf_counter() - start)

    Weight.evaluate = evaluate

    def undo():
        Weight.evaluate = original_evaluate
        for mod, attr, original in reversed(replaced):
            setattr(mod, attr, original)

    return undo


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-round layer metrics: counts, self times and their ratios."""
    children = defaultdict(list)
    for s in tracer.spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    self_s = defaultdict(float)
    calls = Counter()
    for s in tracer.spans:
        self_s[s.name] += (s.end - s.start) - _union_length(children[s.id])
        calls[s.name] += 1

    # μ evaluations made inside a root solve, found by walking up the parents
    parent_of = {s.id: s.parent for s in tracer.spans}
    name_of = {s.id: s.name for s in tracer.spans}

    def inside_solve(sid):
        while sid is not None:
            if name_of.get(sid) == "weighted_solver.solve":
                return True
            sid = parent_of.get(sid)
        return False

    mu_in_solves = sum(1 for s in tracer.spans
                       if s.name == "spectrum.mu_eval" and inside_solve(s.parent))
    task_wall = sum(s.end - s.start for s in tracer.spans if s.name.startswith("task."))

    c = tracer.counts
    gflop = c["evolution.flop"] / 1e9
    out = {
        "operator.assemble_s": self_s["operator.assemble"],
        "weights.load_samples_s": self_s["weights.load_samples"],
        "weights.evaluate_calls": c["weights.evaluate_calls"],
        "weights.evaluate_s": tracer.evaluate_s,
        "weights.table_builds": calls[TABLE_SPAN],
        "weights.table_s": self_s[TABLE_SPAN],
        "evolution.period_maps": calls["evolution.period_map"],
        "evolution.period_map_s": self_s["evolution.period_map"],
        "evolution.rk_steps": c["evolution.rk_steps"],
        "evolution.gflop": gflop,
        "evolution.propagate_s": self_s["evolution.propagate"],
        "spectrum.mu_evals": calls["spectrum.mu_eval"],
        "spectrum.mu_eval_s": self_s["spectrum.mu_eval"],
        "spectrum.power_iterations": c["spectrum.power_iterations"],
        "spectrum.autonomous_evals": calls["spectrum.autonomous"],
        "spectrum.autonomous_s": self_s["spectrum.autonomous"],
        "weighted_solver.solves": calls["weighted_solver.solve"],
        "weighted_solver.solve_s": self_s["weighted_solver.solve"],
        "kpp.orbits": calls["kpp.orbit"],
        "kpp.poincare_periods": c["kpp.poincare_periods"],
        "kpp.simulate_s": self_s["kpp.simulate"],
        "kpp.rk_steps": c["kpp.rk_steps"],
        "io.write_s": self_s["io.write"],
        "io.bytes_written": c["io.bytes_written"],
        "trace.task_wall_s": task_wall,
    }
    out = {k: v / rounds for k, v in out.items()}

    def ratio(num, den):
        return num / den if den else 0.0

    out["evolution.gflop_per_s"] = ratio(gflop, self_s["evolution.period_map"])
    out["spectrum.power_iterations_per_mu"] = ratio(
        c["spectrum.power_iterations"], calls["spectrum.mu_eval"])
    out["weighted_solver.mu_evals_per_root"] = ratio(
        mu_in_solves, calls["weighted_solver.solve"])
    out["kpp.periods_per_orbit"] = ratio(c["kpp.poincare_periods"], calls["kpp.orbit"])
    return out
