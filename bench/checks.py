"""Checks of the program's written outputs against the reference and the theory.

Each ``check_*`` function reads one task's output directory and returns the
number of its operations that failed (the program gave no answer) and a list
of wrong answers.  A wrong answer makes the run incorrect; a failed
operation is only counted.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import reference
import workloads

TOL_LAMBDA = 1e-7   # |lambda_p - reference| / max(1, reference)
TOL_MU = 1e-7       # |mu - reference| / (1 + |reference|)
TOL_CONVEX = 1e-9   # slack of a chord test, relative to 1 + |mu|
TOL_ROOT = 1e-8     # the program's default tol_root
TOL_BOUND = 1e-8    # lambda_p(m) <= lambda_p(m_hat) + TOL_BOUND
TOL_ZERO = 1e-10    # |mu(0)| for the mass-conserving boundaries
N_TIME = 256        # time lattice of the existence condition, as the program's


def read_csv(path: Path):
    """Columns and rows of a ``# perispec-csv v1`` file."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def read_curve(path: Path) -> list[tuple[float, float]]:
    columns, rows = read_csv(path)
    i_lam, i_mu = columns.index("lam"), columns.index("mu")
    return [(float(r[i_lam]), float(r[i_mu])) for r in rows]


class Reference:
    """Reference facts about one problem, computed from the bench's own weight."""

    def __init__(self, problem: workloads.Problem):
        self.problem = problem
        table = workloads.sample_table(
            problem, workloads.N_SAMPLE_TIMES if problem.samples else N_TIME)
        self.m_hat = table.mean(axis=0)
        self.p_value = reference.p_value(table, workloads.PERIOD)
        self.integral = float(self.m_hat.mean() * workloads.PERIOD)  # unit box
        self.mass_conserving = problem.boundary != "dirichlet"
        self.root_exists = self.p_value > 0.0 and (
            not self.mass_conserving or self.integral < 0.0)
        self.gen = None
        if problem.boundary != "periodic":
            self.gen = reference.FrozenGenerator(problem.boundary, problem.dim,
                                                 problem.n_per_axis, problem.radius)
        self._root = None

    def mu_averaged(self, lam: float) -> float:
        return self.gen.mu(self.m_hat, lam)

    def root_averaged(self) -> float | None:
        if self._root is None:
            self._root = self.gen.root(self.m_hat) if self.gen else None
        return self._root


def _close(value, ref, tol, scale) -> bool:
    return value is not None and math.isfinite(value) and abs(value - ref) <= tol * scale


def check_convex(points, mass_conserving: bool, label: str) -> list[str]:
    """Chord test on consecutive triples; (0, 0) joins mass-conserving curves."""
    errors = []
    pts = sorted(points)
    zero = [mu for lam, mu in pts if lam == 0.0]
    if mass_conserving:
        if zero and abs(zero[0]) > TOL_ZERO:
            errors.append(f"{label}: mu(0) = {zero[0]!r}, expected 0")
        if not zero:
            pts = [(0.0, 0.0)] + pts
    for (la, ma), (lb, mb), (lc, mc) in zip(pts, pts[1:], pts[2:]):
        chord = ma + (mc - ma) * (lb - la) / (lc - la)
        if mb > chord + TOL_CONVEX * (1.0 + abs(mb)):
            errors.append(f"{label}: not convex at lam = {lb!r} "
                          f"(mu {mb!r} above chord {chord!r})")
    return errors


def check_root(res: dict, ref: Reference, label: str,
               exact: float | None = None) -> list[str]:
    """A root result against the existence condition, the residual tolerance,
    the time-averaging bound and, for separable weights, the reference root."""
    errors = []
    expected = "unique_root" if ref.root_exists else "no_positive_root"
    if res["status"] != expected:
        return [f"{label}: status {res['status']}, expected {expected} "
                f"(P = {ref.p_value:.6g}, integral = {ref.integral:.6g})"]
    if expected != "unique_root":
        return errors
    lam, mu = res["lambda_p"], res["mu_at_root"]
    if not abs(mu) <= TOL_ROOT:
        errors.append(f"{label}: |mu at the root| = {abs(mu):.3e} > {TOL_ROOT}")
    if exact is not None and not _close(lam, exact, TOL_LAMBDA, max(1.0, exact)):
        errors.append(f"{label}: lambda_p = {lam!r}, reference {exact!r}")
    bound = ref.root_averaged()
    if bound is not None and not lam <= bound + TOL_BOUND:
        errors.append(f"{label}: lambda_p = {lam!r} exceeds the averaged root {bound!r}")
    return errors


def check_lambda_p(outdir: Path, ref: Reference) -> tuple[int, list[str]]:
    res = json.loads((outdir / "summary.json").read_text())["result"]
    exact = ref.root_averaged() if ref.problem.separable else None
    errors = check_root(res, ref, "lambda_p", exact)
    errors += check_convex(read_curve(outdir / "curve.csv"), ref.mass_conserving, "curve.csv")
    return 0, errors


def check_upper_bound(outdir: Path, ref: Reference) -> tuple[int, list[str]]:
    summary = json.loads((outdir / "summary.json").read_text())
    errors = check_root(summary["time_dependent"], ref, "time-dependent root")
    avg = summary["averaged"]
    exact = ref.root_averaged()
    if exact is None or avg["status"] != "unique_root":
        errors.append(f"averaged root: status {avg['status']}, reference {exact!r}")
    elif not _close(avg["lambda_p"], exact, TOL_LAMBDA, max(1.0, exact)):
        errors.append(f"averaged root = {avg['lambda_p']!r}, reference {exact!r}")
    if summary["bound_holds"] is not True:
        errors.append(f"bound_holds = {summary['bound_holds']!r}")
    for name in ("curve_time.csv", "curve_averaged.csv"):
        errors += check_convex(read_curve(outdir / name), ref.mass_conserving, name)
    return 0, errors


def check_spectrum(outdir: Path, ref: Reference) -> tuple[int, list[str]]:
    """``mu(lam)`` against ``mu(lam, m_hat) <= mu <= mu(0) + lam*P/T``; equal
    to the lower end for a separable weight."""
    errors = []
    columns, rows = read_csv(outdir / "spectrum.csv")
    i_lam, i_mu = columns.index("lam"), columns.index("mu_n")
    points = [(float(r[i_lam]), float(r[i_mu])) for r in rows]
    summary = json.loads((outdir / "summary.json").read_text())
    if [(p["lam"], p["mu_n"]) for p in summary["results"]] != points:
        errors.append("summary.json and spectrum.csv disagree")
    if sorted(lam for lam, _ in points) != sorted(workloads.SWEEP_LAMBDAS):
        errors.append(f"spectrum points at {[lam for lam, _ in points]}")
    mu0 = 0.0 if ref.mass_conserving else ref.gen.mu(ref.m_hat, 0.0)
    for lam, mu in points:
        low = ref.mu_averaged(lam)
        tol = TOL_MU * (1.0 + abs(low))
        high = mu0 + lam * ref.p_value / workloads.PERIOD
        if not math.isfinite(mu):
            errors.append(f"mu({lam!r}) = {mu!r}")
        elif ref.problem.separable and not abs(mu - low) <= tol:
            errors.append(f"mu({lam!r}) = {mu!r}, reference {low!r}")
        elif not low - tol <= mu <= high + tol:
            errors.append(f"mu({lam!r}) = {mu!r} outside [{low!r}, {high!r}]")
    errors += check_convex(points, ref.mass_conserving, "spectrum.csv")
    return 0, errors


def check_kpp_scan(outdir: Path, ref: Reference, lam_ref: float) -> tuple[int, list[str]]:
    """One root solve and one verdict per coupling: extinction below the
    reference ``lambda_p``, persistence with a positive orbit minimum above.
    ``undecided`` and a root solve without a unique root are failed
    operations."""
    errors = []
    failed = 0
    summary = json.loads((outdir / "summary.json").read_text())
    threshold = summary["threshold"]
    if threshold["status"] != "unique_root":
        failed += 1
    elif not _close(threshold["lambda_p"], lam_ref, TOL_LAMBDA, max(1.0, lam_ref)):
        errors.append(f"threshold lambda_p = {threshold['lambda_p']!r}, reference {lam_ref!r}")
    columns, rows = read_csv(outdir / "scan.csv")
    col = {name: i for i, name in enumerate(columns)}
    expected = sorted(f * lam_ref for f in workloads.KPP_FACTORS)
    if len(rows) != len(expected):
        errors.append(f"{len(rows)} verdicts for {len(expected)} couplings")
    for row, lam_expected in zip(rows, expected):
        lam, verdict = float(row[col["lam"]]), row[col["verdict"]]
        if abs(lam - lam_expected) > 1e-12 * lam_expected:
            errors.append(f"verdict for lam = {lam!r}, expected {lam_expected!r}")
        if verdict == "undecided":
            failed += 1
        elif lam < lam_ref and verdict != "extinction":
            errors.append(f"lam = {lam!r} below lambda_p: {verdict}")
        elif lam > lam_ref and not (verdict == "persistence"
                                    and float(row[col["min_of_orbit"]]) > 0.0):
            errors.append(f"lam = {lam!r} above lambda_p: {verdict}, "
                          f"orbit minimum {row[col['min_of_orbit']]}")
    return failed, errors


def check_task(task: workloads.Task, outdir: Path, code: int, ref: Reference,
               plan: workloads.Plan) -> tuple[int, list[str]]:
    """Failed operations and wrong answers of one task call."""
    if code not in (0, 1):  # 2: bad config, 3: numerical failure
        return task.operations, []
    if task.task == "lambda_p":
        failed, errors = check_lambda_p(outdir, ref)
    elif task.task == "upper_bound":
        failed, errors = check_upper_bound(outdir, ref)
    elif task.task == "spectrum":
        failed, errors = check_spectrum(outdir, ref)
    else:
        failed, errors = check_kpp_scan(outdir, ref, plan.kpp_lambda_ref)
    if code == 1:
        errors.append("the task reported its own acceptance condition as failed")
    return failed, [f"{task.name}: {e}" for e in errors]
