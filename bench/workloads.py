"""Workload inputs, generated from a seed.

A workload is a list of ``perispec`` CLI task calls.  Each call gets an INI
config (and, for the 2-D sweep, a sample CSV) that this module writes into a
work directory; the program sees only those files.

The seed draws the phases and amplitudes of the weights.  Every drawn
parameter is one the problem's answer and its work are invariant under:

* the amplitude and phase of a space-independent, zero-mean oscillation
  ``A*sin(2*pi*t/T + phi)`` (it factors out of the period map);
* a translation by whole cells on a periodic grid;
* a time shift of a non-separable weight by whole sample intervals or RK4
  steps (the period map is conjugated, its spectrum kept).

So every seed keeps each problem in its classification, and keeps the
program's step counts and root-search paths (power-iteration counts move by
a few in ten thousand), while the program still reads different inputs.
The ``kpp_scan`` call takes no seeded parameter at all: its ``1.02 *
lambda_p`` verdict is a known failure and must be made on fixed inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference

PERIOD = 1.0
N_SAMPLE_TIMES = 64           # time samples per period in the 2-D CSVs
SWEEP_LAMBDAS = (0.25, 0.5, 1.0, 2.0)
KPP_FACTORS = (0.5, 0.98, 1.02, 1.25, 2.0)


@dataclass(frozen=True)
class Problem:
    """One discretized problem handed to the program.

    ``weight(t, nodes)`` is the bench's own numpy form of the weight, used
    by the reference; ``expr`` or ``samples`` is what the program reads.
    ``separable`` marks ``m0(x) + g(t)`` with zero-mean ``g``: its spectrum
    curve is that of the frozen generator with ``m_hat``.
    """

    name: str
    boundary: str
    dim: int
    n_per_axis: int
    radius: float
    weight: Callable[[float, np.ndarray], np.ndarray]
    separable: bool
    expr: str | None = None
    samples: str | None = None  # CSV file name inside the work directory

    def nodes(self) -> np.ndarray:
        return reference.midpoint_nodes(self.dim, self.n_per_axis)[0]

    def spec(self) -> dict:
        """What the set-up probe needs to build the problem."""
        return {"boundary": self.boundary, "dim": self.dim,
                "n_per_axis": self.n_per_axis, "radius": self.radius,
                "period": PERIOD, "expr": self.expr, "samples": self.samples}


@dataclass(frozen=True)
class Task:
    """One CLI call: ``perispec TASK config.ini [--threads N]``."""

    name: str
    task: str
    problem: Problem
    operations: int
    threads: int = 1
    section: dict = field(default_factory=dict)  # the task's config section


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    tasks: tuple[Task, ...]
    params: dict  # the drawn parameters, echoed into the run's result file
    kpp_lambda_ref: float | None = None

    @property
    def operations_per_round(self) -> int:
        return sum(t.operations for t in self.tasks)

    def problems(self) -> list[Problem]:
        seen = {}
        for t in self.tasks:
            seen.setdefault(t.problem.name, t.problem)
        return list(seen.values())


def _f(value: float) -> str:
    return repr(float(value))


def _d(value: float, digits: int = 6) -> str:
    """A drawn parameter at fixed width, so every seed's config has one length."""
    return f"{value:.{digits}f}"


def _separable_1d(name, boundary, radius, n, amp, phi) -> Problem:
    """The quick-start weight ``cos(2*pi*x) - 0.2 + A*sin(2*pi*t/T + phi)``."""
    expr = f"cos(2*pi*x) - 0.2 + {_d(amp)}*sin(2*pi*t/T + {_d(phi)})"

    def weight(t, nodes):
        x = nodes[:, 0]
        return np.cos(2 * np.pi * x) - 0.2 + amp * np.sin(2 * np.pi * t / PERIOD + phi)

    return Problem(name, boundary, 1, n, radius, weight, True, expr=expr)


def _travelling_1d(n, shift_cells, phi) -> Problem:
    """Periodic travelling wave; ``lambda_p`` is near 13.8."""
    x0 = shift_cells / n  # exact in seven decimals for n = 128
    expr = (f"cos(2*pi*(x - {_d(x0, 7)} - t/T)) - 0.2 "
            f"+ 0.5*sin(2*pi*t/T + {_d(phi)})")

    def weight(t, nodes):
        x = nodes[:, 0]
        return (np.cos(2 * np.pi * (x - x0 - t / PERIOD)) - 0.2
                + 0.5 * np.sin(2 * np.pi * t / PERIOD + phi))

    return Problem("periodic_travelling", "periodic", 1, n, 0.5, weight, False,
                   expr=expr)


def _nonseparable_1d(n, shift_samples, phi) -> Problem:
    """``cos(2*pi*x)*(1 + sin(2*pi*(t + t0)/T)) - 0.2 + 0.5*sin(2*pi*t/T + phi)``.

    ``t0`` is a whole number of 64ths of the period, which is the program's
    RK4 step at the couplings its root search visits.  The time average is
    ``cos(2*pi*x) - 0.2``, the quick-start ``m_hat``.
    """
    t0 = shift_samples * PERIOD / N_SAMPLE_TIMES
    expr = (f"cos(2*pi*x)*(1 + sin(2*pi*(t + {_d(t0)})/T)) - 0.2 "
            f"+ 0.5*sin(2*pi*t/T + {_d(phi)})")

    def weight(t, nodes):
        x = nodes[:, 0]
        return (np.cos(2 * np.pi * x) * (1 + np.sin(2 * np.pi * (t + t0) / PERIOD)) - 0.2
                + 0.5 * np.sin(2 * np.pi * t / PERIOD + phi))

    return Problem("dirichlet_nonseparable", "dirichlet", 1, n, 1.0, weight,
                   False, expr=expr)


def _wave_2d(nodes):
    x, y = nodes[:, 0], nodes[:, 1]
    return np.cos(2 * np.pi * x) * np.cos(np.pi * y)


def _sampled_2d(name, separable, amp, phi, shift_samples) -> Problem:
    """2-D Neumann weight given as samples on ``N_SAMPLE_TIMES`` times.

    Separable: ``s(x, y) - 0.2 + A*sin(2*pi*t/T + phi)``.  Non-separable:
    ``s(x, y)*(1 + sin(2*pi*(t + t0)/T)) - 0.2 + A*sin(2*pi*t/T + phi)``
    with ``t0`` a whole number of sample intervals.  Both have the time
    average ``s - 0.2`` (up to the zero-mean oscillation), with
    ``s = cos(2*pi*x)*cos(pi*y)``.
    """
    t0 = shift_samples * PERIOD / N_SAMPLE_TIMES

    def weight(t, nodes):
        osc = amp * np.sin(2 * np.pi * t / PERIOD + phi)
        if separable:
            return _wave_2d(nodes) - 0.2 + osc
        pulse = 1.0 + np.sin(2 * np.pi * (t + t0) / PERIOD)
        return _wave_2d(nodes) * pulse - 0.2 + osc

    return Problem(name, "neumann", 2, 24, 0.5, weight, separable,
                   samples=f"{name}.csv")


def sample_table(problem: Problem, n_time: int = N_SAMPLE_TIMES) -> np.ndarray:
    """The ``(n_time, n)`` samples a sampled problem hands to the program."""
    nodes = problem.nodes()
    return np.stack([problem.weight(i * PERIOD / n_time, nodes)
                     for i in range(n_time)])


def make_plan(workload: str, seed: int) -> Plan:
    rng = random.Random(f"{workload}:{seed}")

    # six decimals, so every seed writes configs of the same length
    def amp():
        return round(rng.uniform(0.8, 1.2), 6)

    def phase():
        return round(rng.uniform(0.0, 2.0 * math.pi), 6)

    if workload == "threshold_kpp_1d":
        n = 128
        params = {"dirichlet_amp": amp(), "dirichlet_phase": phase(),
                  "neumann_amp": amp(), "neumann_phase": phase(),
                  "periodic_shift_cells": rng.randrange(n),
                  "periodic_phase": phase(),
                  "nonseparable_shift_samples": rng.randrange(N_SAMPLE_TIMES),
                  "nonseparable_phase": phase()}
        p = params
        tasks = (
            Task("lambda_p_dirichlet", "lambda_p",
                 _separable_1d("dirichlet_separable", "dirichlet", 1.0, n,
                               p["dirichlet_amp"], p["dirichlet_phase"]), 1),
            Task("lambda_p_neumann", "lambda_p",
                 _separable_1d("neumann_separable", "neumann", 0.5, n,
                               p["neumann_amp"], p["neumann_phase"]), 1),
            Task("lambda_p_periodic", "lambda_p",
                 _travelling_1d(n, p["periodic_shift_cells"], p["periodic_phase"]), 1),
            Task("upper_bound_dirichlet", "upper_bound",
                 _nonseparable_1d(n, p["nonseparable_shift_samples"],
                                  p["nonseparable_phase"]), 1),
        )
        kpp_task, lam_ref = _kpp_task()
        return Plan(workload, seed, tasks + (kpp_task,), params, kpp_lambda_ref=lam_ref)

    if workload == "sweep_2d":
        params = {"separable_amp": amp(), "separable_phase": phase(),
                  "nonseparable_amp": amp(), "nonseparable_phase": phase(),
                  "nonseparable_shift_samples": rng.randrange(N_SAMPLE_TIMES)}
        p = params
        section = {"lambdas": ", ".join(_f(v) for v in SWEEP_LAMBDAS)}
        problems = (
            _sampled_2d("neumann2d_separable", True, p["separable_amp"],
                        p["separable_phase"], 0),
            _sampled_2d("neumann2d_nonseparable", False, p["nonseparable_amp"],
                        p["nonseparable_phase"], p["nonseparable_shift_samples"]),
        )
        tasks = tuple(Task(f"spectrum_{prob.name}", "spectrum", prob,
                           len(SWEEP_LAMBDAS), threads=2, section=section)
                      for prob in problems)
        return Plan(workload, seed, tasks, params)

    raise ValueError(f"unknown workload {workload!r}")


def _kpp_task() -> tuple[Task, float]:
    """``kpp_scan`` on the quick-start problem at n = 64, around the reference
    ``lambda_p``; the task and that ``lambda_p``."""
    problem = _separable_1d("dirichlet_quickstart", "dirichlet", 1.0, 64, 1.0, 0.0)
    gen = reference.FrozenGenerator(problem.boundary, problem.dim,
                                    problem.n_per_axis, problem.radius)
    # the mean over equally spaced times is exact for one time harmonic
    lam_ref = gen.root(sample_table(problem).mean(axis=0))
    section = {"lambdas": ", ".join(_f(f * lam_ref) for f in KPP_FACTORS),
               "nonlinearity": "logistic"}
    return Task("kpp_scan_dirichlet", "kpp_scan", problem, 1 + len(KPP_FACTORS),
                section=section), lam_ref


def _write_samples(path: Path, table: np.ndarray) -> None:
    lines = ["# perispec-csv v1", "t_index,node_index,value"]
    for ti, row in enumerate(table):
        lines.extend(f"{ti},{ni},{float(v)!r}" for ni, v in enumerate(row))
    path.write_text("\n".join(lines) + "\n")


def write_inputs(plan: Plan, workdir: Path) -> dict[str, Path]:
    """Write each task's config (and sample CSVs); returns config paths by task."""
    workdir.mkdir(parents=True, exist_ok=True)
    for problem in plan.problems():
        if problem.samples is not None:
            _write_samples(workdir / problem.samples, sample_table(problem))
    configs = {}
    for task in plan.tasks:
        prob = task.problem
        lines = ["[problem]", f"boundary = {prob.boundary}",
                 "box = " + ", ".join(["1"] * prob.dim),
                 f"n_per_axis = {prob.n_per_axis}", "kernel = parabolic",
                 f"support_radius = {_f(prob.radius)}", "",
                 "[weight]", f"period = {_f(PERIOD)}"]
        lines.append(f"expr = {prob.expr}" if prob.expr is not None
                     else f"samples = {prob.samples}")
        if task.section:
            lines += ["", f"[{task.task}]"]
            lines += [f"{k} = {v}" for k, v in task.section.items()]
        path = workdir / f"{task.name}.ini"
        path.write_text("\n".join(lines) + "\n")
        configs[task.name] = path
    return configs
