"""Command-line front end: config ingestion, outputs, determinism, exit codes."""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import perispec.cli
import perispec.spectrum
import perispec.validate
import perispec.weighted_solver
import perispec.weights
from perispec.cli import main
from perispec.evolution import period_action
from perispec.geometry import Boundary, build_grid
from perispec.operator import Problem
from perispec.spectrum import principal_spectrum_point
from perispec.weights import closed_form, summarize

from oracles import sample_closed_form, save_sampled_csv

BASE_PROBLEM = """
[problem]
boundary = dirichlet
box = 1
n_per_axis = 24
kernel = parabolic
support_radius = 1.0

[weight]
period = 1.0
expr = sin(2*pi*t/T) + cos(2*pi*x) - 0.2
"""


def write_ini(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(task, config, outdir, *extra):
    argv = [task]
    if config is not None:
        argv.append(config)
    argv += ["--output-dir", str(outdir)]
    argv += list(extra)
    return main(argv)


# ------------------------------------------------------------------- tasks

def test_spectrum_task_writes_all_outputs(tmp_path):
    cfg = write_ini(tmp_path, BASE_PROBLEM + "\n[spectrum]\nlambdas = 0, 0.5, 1\n")
    out = tmp_path / "out"
    assert run("spectrum", cfg, out) == 0
    csv_text = (out / "spectrum.csv").read_text()
    assert csv_text.startswith("# perispec-csv v1\n")
    lines = csv_text.strip().splitlines()
    assert lines[1].startswith("lam,mu_n,residual,")
    assert len(lines) == 5  # schema + header + 3 rows
    summary = json.loads((out / "summary.json").read_text())
    assert summary["task"] == "spectrum"
    assert len(summary["results"]) == 3
    assert (out / "report.txt").read_text().startswith("principal spectrum points")


def test_spectrum_csv_floats_have_full_precision(tmp_path):
    cfg = write_ini(tmp_path, BASE_PROBLEM + "\n[spectrum]\nlambdas = 0.7\n")
    out = tmp_path / "out"
    assert run("spectrum", cfg, out) == 0
    row = (out / "spectrum.csv").read_text().strip().splitlines()[2].split(",")
    summary = json.loads((out / "summary.json").read_text())
    # the CSV cell must round-trip to the exact float in the JSON summary
    assert float(row[1]) == summary["results"][0]["mu_n"]


def test_spectrum_outputs_carry_each_points_time_error(tmp_path):
    # 0 on the exact route (lam = 0), the time bar of the ladder's step count
    # on the time-stepped points
    cfg = write_ini(tmp_path, BASE_PROBLEM.replace(
        "expr = sin(2*pi*t/T) + cos(2*pi*x) - 0.2", f"expr = {NONSEPARABLE_EXPR}")
        + "\n[spectrum]\nlambdas = 0, 1\n")
    out = tmp_path / "out"
    assert run("spectrum", cfg, out) == 0
    lines = (out / "spectrum.csv").read_text().strip().splitlines()
    columns = lines[1].split(",")
    bars = [float(line.split(",")[columns.index("time_error")]) for line in lines[2:]]
    summary = json.loads((out / "summary.json").read_text())
    assert [r["time_error"] for r in summary["results"]] == bars
    op, w = Problem(Boundary.DIRICHLET, (1.0,), "parabolic", 1.0,
                    closed_form(NONSEPARABLE_EXPR, 1.0)).at(24)
    assert bars[0] == 0.0
    assert bars[1] == principal_spectrum_point(op, w, 1.0).time_error
    assert 0.0 < bars[1] <= perispec.spectrum.TIME_TOL


def test_lambda_p_task(tmp_path):
    cfg = write_ini(tmp_path, BASE_PROBLEM)
    out = tmp_path / "out"
    assert run("lambda_p", cfg, out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["result"]["status"] == "unique_root"
    assert summary["result"]["lambda_p"] > 0
    assert abs(summary["result"]["mu_at_root"]) < 1e-8
    assert summary["principal_eigenvalue"]["is_principal_eigenvalue"] == "yes"
    curve = (out / "curve.csv").read_text().splitlines()
    assert curve[0] == "# perispec-csv v1"
    assert curve[1] == "lam,mu"
    assert len(curve) > 4


@pytest.fixture
def lattice_calls(monkeypatch):
    """A list that grows by one entry per weight time lattice built."""
    calls = []
    original = perispec.weights._time_lattice

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(perispec.weights, "_time_lattice", counting)
    return calls


def test_lambda_p_task_builds_one_time_lattice(tmp_path, lattice_calls):
    # the root search and the eigenvalue check at the root share one summary
    cfg = write_ini(tmp_path, BASE_PROBLEM)
    assert run("lambda_p", cfg, tmp_path / "out") == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["principal_eigenvalue"]["is_principal_eigenvalue"] == "yes"
    assert len(lattice_calls) == 1


@pytest.mark.parametrize("task, section, threads", [
    ("spectrum", "\n[spectrum]\nlambdas = 0, 0.5, 1, 2\n", "2"),
    ("kpp_scan", "\n[kpp_scan]\nlambdas = 0.5, 1.4\n", "1"),
])
def test_task_builds_one_time_lattice(tmp_path, lattice_calls, task, section, threads):
    # the weight keeps its summary: every coupling, worker thread, orbit and
    # the kpp_scan root search read the one lattice
    cfg = write_ini(tmp_path, BASE_PROBLEM + section)
    assert run(task, cfg, tmp_path / "out", "--threads", threads) == 0
    assert len(lattice_calls) == 1


def count_calls(monkeypatch, *functions):
    """Calls of each function by its name, rebound in every ``perispec`` module that
    binds it, as a tracer that wraps public names sees them."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "perispec" or name.startswith("perispec."))]
    counts = {fn.__name__: [] for fn in functions}

    def counting(fn):
        def wrapper(*args, **kwargs):
            counts[fn.__name__].append(1)
            return fn(*args, **kwargs)
        return wrapper
    for fn in functions:
        wrapper = counting(fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)
    return counts


@pytest.mark.parametrize("task, section", [
    ("lambda_p", ""),
    ("upper_bound", ""),
    ("spectrum", "\n[spectrum]\nlambdas = 0, 0.5, 1\n"),
    ("kpp_scan", "\n[kpp_scan]\nlambdas = 0.5, 1.4\n"),
])
def test_tasks_go_through_the_public_entry_points(tmp_path, monkeypatch, problem_at_calls,
                                                  task, section):
    # every spectrum point and root search of a task is a call of the
    # public function, so wrapping those names counts the work; the problem
    # is built once, at the config's grid size; the S-conditions are fitted
    # once per spectrum row and once at a lambda_p root, never in a search
    counts = count_calls(monkeypatch, perispec.spectrum.principal_spectrum_point,
                         perispec.weighted_solver.solve_lambda_p,
                         perispec.spectrum.check_S_conditions)
    cfg = write_ini(tmp_path, BASE_PROBLEM + section)
    assert run(task, cfg, tmp_path / "out") == 0
    assert problem_at_calls == [24]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    points = len(counts["principal_spectrum_point"])
    solves = len(counts["solve_lambda_p"])
    fits = len(counts["check_S_conditions"])
    if task == "lambda_p":
        assert "principal_eigenvalue" in summary
        assert solves == 1 and points == summary["result"]["curve_points"] and fits == 1
    elif task == "upper_bound":
        assert solves == 1 and points == summary["time_dependent"]["curve_points"]
        assert fits == 0
    elif task == "spectrum":
        assert solves == 0 and points == fits == 3
    else:
        assert solves == 1 and points >= summary["threshold"]["curve_points"] and fits == 0


NONSEPARABLE_EXPR = "cos(2*pi*x)*(1 + sin(2*pi*t/T)) - 0.2 + sin(2*pi*t/T)"


def count_period_maps(monkeypatch, steps=None):
    """The ``lam`` of every period map that ``spectrum`` builds from here on,
    as an action on vectors; with ``steps``, its step count goes there."""
    lams = []
    original = perispec.spectrum.period_action

    def counting(op, weight, lam, n_steps=None):
        lams.append(lam)
        if steps is not None:
            steps.append(n_steps)
        return original(op, weight, lam, n_steps)
    monkeypatch.setattr(perispec.spectrum, "period_action", counting)
    return lams


@pytest.mark.parametrize("boundary", ["dirichlet", "neumann", "periodic"])
def test_lambda_p_task_builds_one_map_per_lam(tmp_path, monkeypatch, boundary):
    # a non-separable weight builds its map on 24 nodes, a vector action
    # once per lam at each of the spectrum point's step counts, the ladder's doubling levels from
    # 8 steps on; the eigenvalue check at the root reuses the root search's
    # spectrum point, and the Dirichlet search's mu(0) takes the exact route
    steps = []
    lams = count_period_maps(monkeypatch, steps)
    cfg = write_ini(tmp_path, BASE_PROBLEM.replace("dirichlet", boundary).replace(
        "expr = sin(2*pi*t/T) + cos(2*pi*x) - 0.2", f"expr = {NONSEPARABLE_EXPR}"))
    assert run("lambda_p", cfg, tmp_path / "out") == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["result"]["status"] == "unique_root"
    assert "principal_eigenvalue" in summary
    curve = [float(line.split(",")[0]) for line in
             (tmp_path / "out" / "curve.csv").read_text().splitlines()[2:]]
    stepped = [lam for lam in curve if lam != 0.0]
    assert (0.0 in curve) == (boundary == "dirichlet")
    assert sorted(set(lams)) == sorted(stepped)
    for lam in stepped:
        counts = [n for at, n in zip(lams, steps) if at == lam]
        assert len(counts) >= 3 and counts == [8 << k for k in range(len(counts))]
    assert summary["result"]["lambda_p"] in lams


@pytest.mark.parametrize("boundary", ["dirichlet", "neumann", "periodic"])
def test_separable_lambda_p_task_builds_no_map(tmp_path, monkeypatch, boundary):
    # m1(x) + m2(t): every spectrum point is the frozen generator's, with no
    # period map
    lams = count_period_maps(monkeypatch)
    cfg = write_ini(tmp_path, BASE_PROBLEM.replace("dirichlet", boundary))
    assert run("lambda_p", cfg, tmp_path / "out") == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["result"]["status"] == "unique_root"
    assert "principal_eigenvalue" in summary
    assert lams == []


@pytest.mark.parametrize("task, section", [
    ("spectrum", "\n[spectrum]\nlambdas = 0, 0.5, 1, 2\n"),
    ("lambda_p", ""),
    ("upper_bound", ""),
])
def test_separable_tasks_step_no_time(tmp_path, monkeypatch, task, section):
    # m1(x) + m2(t): every spectrum point is the frozen generator's
    def forbidden(*args, **kwargs):
        raise AssertionError("a separable weight was stepped in time")
    monkeypatch.setattr(perispec.spectrum, "period_action", forbidden)
    cfg = write_ini(tmp_path, BASE_PROBLEM + section)
    assert run(task, cfg, tmp_path / "out") == 0


def test_lambda_p_degenerate_status(tmp_path):
    cfg = write_ini(tmp_path, BASE_PROBLEM.replace("dirichlet", "neumann")
                    .replace("sin(2*pi*t/T) + cos(2*pi*x) - 0.2", "sin(2*pi*t/T)"))
    out = tmp_path / "out"
    assert run("lambda_p", cfg, out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["result"]["status"] == "all_positive_roots"
    assert "principal_eigenvalue" not in summary


PE_PROBLEM = """
[problem]
boundary = dirichlet
box = 1
n_per_axis = 64
kernel = parabolic
support_radius = {radius}

[weight]
period = 1.0
expr = {expr}
{extra}
"""


@pytest.mark.parametrize("expr, radius, extra, lambda_p, basis, fields", [
    # a smooth envelope with its flat interior maximum declared
    ("cos(2*pi*(x - 0.5)) - 0.2 + sin(2*pi*t/T)", 1.0, "s1_maximizer = 0.5", 0.96899,
     "S1", {"s1": "yes"}),
    # a square-root cusp: its contact integral converges, so S3 fails and the
    # gap between mu and the envelope sup decides
    ("1 - 2*((x - 0.5)**2)**0.25 + 0.3*sin(2*pi*t/T)", 1.0, "", 1.06949,
     "gap", {"s1": "unknown", "s3": "no", "s3_exponent": pytest.approx(0.62, abs=0.01),
             "spectral_gap": pytest.approx(0.120, abs=1e-3)}),
    # a kernel far wider than the box puts mu within 1e-6 of the envelope sup
    ("0.2 - ((x - 0.5)**2)**0.25 * (1 + 0.5*sin(2*pi*t/T))", 1e5, "", 8.9596,
     None, {"s1": "unknown", "s3": "no", "spectral_gap": pytest.approx(2.3e-7, rel=0.05)}),
], ids=["S1", "gap", "unknown"])
def test_lambda_p_reports_each_sufficiency_basis(tmp_path, expr, radius, extra, lambda_p,
                                                  basis, fields):
    cfg = write_ini(tmp_path, PE_PROBLEM.format(radius=radius, expr=expr, extra=extra))
    out = tmp_path / "out"
    assert run("lambda_p", cfg, out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["result"]["status"] == "unique_root"
    assert summary["result"]["lambda_p"] == pytest.approx(lambda_p, abs=1e-4)
    pe = summary["principal_eigenvalue"]
    assert pe["basis"] == basis
    assert pe["is_principal_eigenvalue"] == ("unknown" if basis is None else "yes")
    for key, value in fields.items():
        assert pe[key] == value, key


def test_upper_bound_task(tmp_path):
    cfg = write_ini(tmp_path, BASE_PROBLEM)
    out = tmp_path / "out"
    assert run("upper_bound", cfg, out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["bound_holds"] is True
    assert summary["slack"] >= -1e-8
    assert (out / "curve_time.csv").exists()
    assert (out / "curve_averaged.csv").exists()


UPPER_BOUND_FILES = ["curve_averaged.csv", "curve_time.csv", "report.txt", "summary.json"]


def test_upper_bound_without_unique_roots_is_not_applicable(tmp_path, capsys):
    # zero time average on Neumann: neither problem has a unique positive root
    cfg = write_ini(tmp_path, BASE_PROBLEM.replace("dirichlet", "neumann")
                    .replace("sin(2*pi*t/T) + cos(2*pi*x) - 0.2", "sin(2*pi*t/T)"))
    out = tmp_path / "out"
    assert run("upper_bound", cfg, out) == 0
    assert "bound not applicable" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == UPPER_BOUND_FILES
    summary = json.loads((out / "summary.json").read_text())
    assert summary["task"] == "upper_bound"
    assert summary["time_dependent"]["status"] == "all_positive_roots"
    assert summary["averaged"]["status"] == "all_positive_roots"
    assert summary["bound_holds"] is None and summary["slack"] is None
    report = (out / "report.txt").read_text()
    assert report.endswith("\nbound not applicable: at least one problem has no unique root\n")
    for name in ("curve_time.csv", "curve_averaged.csv"):
        assert (out / name).read_text().startswith("# perispec-csv v1\nlam,mu\n")


def test_violated_upper_bound_exits_one(tmp_path, capsys, monkeypatch):
    real = perispec.cli.upper_bound_lambda_p
    monkeypatch.setattr(perispec.cli, "upper_bound_lambda_p", lambda *args, **kwargs:
                        dataclasses.replace(real(*args, **kwargs), bound_holds=False))
    out = tmp_path / "out"
    assert run("upper_bound", write_ini(tmp_path, BASE_PROBLEM), out) == 1
    assert "upper bound violated" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == UPPER_BOUND_FILES
    summary = json.loads((out / "summary.json").read_text())
    assert summary["bound_holds"] is False
    assert summary["time_dependent"]["status"] == summary["averaged"]["status"] == "unique_root"
    assert summary["slack"] >= -1e-8
    assert (out / "report.txt").read_text().endswith("\nupper bound holds: false\n")


def test_non_monotone_kpp_scan_exits_one(tmp_path, capsys, monkeypatch):
    # each coupling gets the orbit of the other one, so persistence sits below
    # an extinction: the scan is written and exits 1
    real = perispec.cli.find_periodic_solution
    swap = {0.5: 1.8, 1.8: 0.5}
    monkeypatch.setattr(perispec.cli, "find_periodic_solution",
                        lambda op, weight, nonlin, lam, **kwargs: dataclasses.replace(
                            real(op, weight, nonlin, swap[lam], **kwargs), lam=lam))
    out = tmp_path / "out"
    cfg = write_ini(tmp_path, BASE_PROBLEM + "\n[kpp_scan]\nlambdas = 0.5, 1.8\n")
    assert run("kpp_scan", cfg, out) == 1
    assert "scan inconsistent with the linear threshold" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == ["report.txt", "scan.csv", "summary.json"]
    summary = json.loads((out / "summary.json").read_text())
    assert [v["verdict"] for v in summary["verdicts"]] == ["persistence", "extinction"]
    assert summary["monotone"] is False
    assert summary["switch_bracket"] is None and summary["consistent_with_root"] is None
    assert "\nverdicts monotone in lam: false\n" in (out / "report.txt").read_text()


def test_kpp_scan_task(tmp_path):
    cfg = write_ini(tmp_path, BASE_PROBLEM +
                    "\n[kpp_scan]\nlambdas = 0.5, 0.9, 1.4, 1.8\n")
    out = tmp_path / "out"
    assert run("kpp_scan", cfg, out) == 0
    summary = json.loads((out / "summary.json").read_text())
    verdicts = [v["verdict"] for v in summary["verdicts"]]
    assert verdicts == ["extinction", "extinction", "persistence", "persistence"]
    for entry in summary["verdicts"]:
        # extinction by contraction or the floor; persistence by a sub-solution
        assert ("eps = " in entry["certificate"]) == (entry["verdict"] == "persistence")
    assert summary["monotone"] is True
    assert summary["consistent_with_root"] is True
    lo, hi = summary["switch_bracket"]
    assert lo <= summary["threshold"]["lambda_p"] <= hi
    scan_lines = (out / "scan.csv").read_text().strip().splitlines()
    assert len(scan_lines) == 6


def test_kpp_scan_checks_uniqueness_on_request(tmp_path):
    # the second start runs on persistent orbits only, and changes no verdict
    scan = "\n[kpp_scan]\nlambdas = 0.5, 0.9, 1.4, 1.8\n"
    outs = {}
    for name, extra in (("plain", ""), ("checked", "check_uniqueness = true\n")):
        cfg = write_ini(tmp_path, BASE_PROBLEM + scan + extra, name=f"{name}.ini")
        outs[name] = tmp_path / name
        assert run("kpp_scan", cfg, outs[name]) == 0
    verdicts = {name: json.loads((out / "summary.json").read_text())["verdicts"]
                for name, out in outs.items()}
    assert verdicts["checked"] == verdicts["plain"]
    rows = [line.split(",") for line in
            (outs["checked"] / "scan.csv").read_text().strip().splitlines()[2:]]
    assert [row[1] for row in rows] == ["extinction", "extinction",
                                        "persistence", "persistence"]
    for row in rows:
        gap = float(row[-1])
        assert math.isfinite(gap) == (row[1] == "persistence")
        if row[1] == "persistence":
            assert 0.0 <= gap < 1e-6


def test_periodic_boundary_task(tmp_path):
    cfg = write_ini(tmp_path, BASE_PROBLEM.replace("dirichlet", "periodic")
                    + "\n[spectrum]\nlambdas = 0\n")
    out = tmp_path / "out"
    assert run("spectrum", cfg, out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["results"][0]["mu_n"]) < 1e-10


def test_validate_without_config(tmp_path):
    out = tmp_path / "out"
    assert run("validate", None, out) == 0
    lines = (out / "checks.csv").read_text().strip().splitlines()
    assert len(lines) == 2 + 11
    assert all(",true," in ln or ln.endswith(",true") or ",true" in ln
               for ln in lines[2:])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] == 11 and summary["failed"] == 0


def test_validate_with_seed_and_subset(tmp_path):
    cfg = write_ini(tmp_path, "[validate]\nseed = 123\n"
                    "checks = kernel mass is normalized to one; "
                    "mass-conserving operators annihilate constants\n")
    out = tmp_path / "out"
    assert run("validate", cfg, out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 123
    assert len(summary["checks"]) == 2


@pytest.mark.parametrize("checks", [
    "kernel mass is normalised to one",
    "kernel mass is normalized to one; no such check",
])
def test_validate_unknown_check_exits_two(tmp_path, capsys, checks):
    # a misspelt name used to run nothing and report "all 0 checks passed"
    cfg = write_ini(tmp_path, f"[validate]\nchecks = {checks}\n")
    assert run("validate", cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "unknown check" in err
    assert repr(checks.split("; ")[-1]) in err


def test_run_checks_refuses_an_unknown_name():
    with pytest.raises(ValueError, match="'no such check'"):
        perispec.validate.run_checks(names=["kernel mass is normalized to one",
                                            "no such check"])


def test_validate_failure_exits_one(tmp_path, monkeypatch):
    monkeypatch.setattr(perispec.validate, "CHECKS",
                        (("forced failing probe", lambda rng: (False, "forced")),))
    out = tmp_path / "out"
    assert run("validate", None, out) == 1
    assert "[FAIL] forced failing probe" in (out / "report.txt").read_text()


def test_verbose_echoes_report(tmp_path, capsys):
    cfg = write_ini(tmp_path, BASE_PROBLEM + "\n[spectrum]\nlambdas = 0\n")
    assert run("spectrum", cfg, tmp_path / "out", "--verbose") == 0
    stdout = capsys.readouterr().out
    assert "principal spectrum points" in stdout


# -------------------------------------------------------------- determinism

def test_reruns_are_byte_identical(tmp_path):
    cfg = write_ini(tmp_path, BASE_PROBLEM + "\n[spectrum]\nlambdas = 0, 0.5, 1\n")
    outs = [tmp_path / f"out{i}" for i in range(3)]
    assert run("spectrum", cfg, outs[0]) == 0
    assert run("spectrum", cfg, outs[1], "--threads", "3") == 0
    assert run("spectrum", cfg, outs[2], "--threads", "2") == 0
    for name in ("spectrum.csv", "summary.json", "report.txt"):
        ref = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == ref
        assert (outs[2] / name).read_bytes() == ref


PROBLEM_2D_16 = (BASE_PROBLEM.replace("boundary = dirichlet", "boundary = neumann")
                 .replace("box = 1", "box = 1, 1").replace("n_per_axis = 24", "n_per_axis = 16")
                 .replace("support_radius = 1.0", "support_radius = 0.5"))


def test_krylov_size_outputs_do_not_depend_on_threads(tmp_path, monkeypatch):
    # n = 256 takes the matrix-free route; neither the start vector's solve
    # nor Arnoldi may see the schedule, on 1-D grids (GEMV) or on 2-D 16x16
    # grids (K through its stencil), which run on workers once the 2-D
    # crossover is lowered to their size
    monkeypatch.setattr(perispec.cli, "_THREADED_2D_MIN_N", 16)
    problem_1d = BASE_PROBLEM.replace("n_per_axis = 24", "n_per_axis = 256")
    for k, (base, expr) in enumerate([
        (problem_1d, "sin(2*pi*t/T) + cos(2*pi*x) - 0.2"),  # the start vector is certified
        (problem_1d, "cos(2*pi*x)*(1 + sin(2*pi*t/T)) - 0.2"),  # Arnoldi runs from it
        (PROBLEM_2D_16, "sin(2*pi*t/T) + cos(2*pi*x)*cos(pi*y) - 0.2"),
        (PROBLEM_2D_16, "cos(2*pi*x)*cos(pi*y)*(1 + sin(2*pi*t/T)) - 0.2"),
    ]):
        problem = base.replace("expr = sin(2*pi*t/T) + cos(2*pi*x) - 0.2", f"expr = {expr}")
        cfg = write_ini(tmp_path, problem
                        + "\n[spectrum]\nlambdas = 0.5, 2\n",
                        name=f"config{k}.ini")
        outs = [tmp_path / f"out{k}_{i}" for i in range(3)]
        for out, threads in zip(outs, ("1", "2", "4")):
            assert run("spectrum", cfg, out, "--threads", threads) == 0
        for name in ("spectrum.csv", "summary.json", "report.txt"):
            ref = (outs[0] / name).read_bytes()
            assert (outs[1] / name).read_bytes() == ref
            assert (outs[2] / name).read_bytes() == ref


def test_dense_route_outputs_do_not_depend_on_threads(tmp_path, monkeypatch):
    # the name keeps the route n = 64 once took, a formed ("dense") map.  A
    # non-separable weight there builds at least three period actions
    # per lam but 0, whose point is exact: the workers share the read-only
    # dispersal factors and own their buffers
    lams = count_period_maps(monkeypatch)
    cfg = write_ini(tmp_path, BASE_PROBLEM.replace("n_per_axis = 24", "n_per_axis = 64")
                    .replace("expr = sin(2*pi*t/T) + cos(2*pi*x) - 0.2",
                             f"expr = {NONSEPARABLE_EXPR}")
                    + "\n[spectrum]\nlambdas = 0, 0.5, 1, 2, 4\n")
    outs = [tmp_path / f"out{i}" for i in range(2)]
    assert run("spectrum", cfg, outs[0], "--threads", "1") == 0
    assert run("spectrum", cfg, outs[1], "--threads", "2") == 0
    assert set(lams) == {0.5, 1.0, 2.0, 4.0}
    assert all(lams.count(lam) >= 2 * 3 for lam in (0.5, 1.0, 2.0, 4.0))  # two runs
    for name in ("spectrum.csv", "summary.json", "report.txt"):
        assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes()


@pytest.fixture
def pool_sizes(monkeypatch):
    """The ``max_workers`` of every thread pool the CLI opens from here on."""
    sizes = []
    original = perispec.cli.ThreadPoolExecutor

    def recording(max_workers):
        sizes.append(max_workers)
        return original(max_workers=max_workers)
    monkeypatch.setattr(perispec.cli, "ThreadPoolExecutor", recording)
    return sizes


SWEEP_SECTIONS = {"spectrum": "\n[spectrum]\nlambdas = 0.5, 2\n",
                  "kpp_scan": "\n[kpp_scan]\nlambdas = 0.5, 4\n"}


@pytest.mark.parametrize("task", ["spectrum", "kpp_scan"])
@pytest.mark.parametrize("by_env", [False, True], ids=["option", "environment"])
def test_small_two_dimensional_sweeps_start_no_worker(tmp_path, monkeypatch, task, by_env):
    # a 2-D vector period is hundreds of short numpy calls; threads that pass
    # the interpreter lock on every call would only slow the sweep down
    def no_pool(*args, **kwargs):
        raise AssertionError("a 2-D sweep below the crossover started worker threads")
    monkeypatch.setattr(perispec.cli, "ThreadPoolExecutor", no_pool)
    cfg = write_ini(tmp_path, PROBLEM_2D_16 + SWEEP_SECTIONS[task])
    if by_env:
        # --threads is the one way to set the thread count: an environment
        # variable, even a malformed one, neither asks for workers nor fails
        monkeypatch.setenv("PERISPEC_THREADS", "plenty")
        extra = ()
    else:
        extra = ("--threads", "2")
    assert run(task, cfg, tmp_path / "out", *extra) == 0


@pytest.mark.parametrize("task", ["spectrum", "kpp_scan"])
@pytest.mark.parametrize("threads, lams, workers", [
    ("2", "0.5, 1, 2", 2),
    ("4", "0.5, 2", 2),
    ("1", "0.5, 2", None),
])
def test_one_dimensional_sweeps_map_on_the_asked_workers(tmp_path, pool_sizes, task,
                                                         threads, lams, workers):
    section = SWEEP_SECTIONS[task].replace("0.5, 2", lams)
    cfg = write_ini(tmp_path, BASE_PROBLEM + section)
    assert run(task, cfg, tmp_path / "out", "--threads", threads) == 0
    assert pool_sizes == ([] if workers is None else [workers])


def test_two_dimensional_sweeps_from_the_crossover_on_use_workers(tmp_path, monkeypatch,
                                                                  pool_sizes):
    monkeypatch.setattr(perispec.cli, "_THREADED_2D_MIN_N", 16)
    cfg = write_ini(tmp_path, PROBLEM_2D_16 + SWEEP_SECTIONS["spectrum"])
    assert run("spectrum", cfg, tmp_path / "out", "--threads", "2") == 0
    assert pool_sizes == [2]
    monkeypatch.setattr(perispec.cli, "_THREADED_2D_MIN_N", 17)
    assert run("spectrum", cfg, tmp_path / "out", "--threads", "2") == 0
    assert pool_sizes == [2]


def test_sampled_weight_round_trip(tmp_path):
    grid = build_grid(Boundary.DIRICHLET, (1.0,), 24)
    w = closed_form("sin(2*pi*t/T) + cos(2*pi*x) - 0.2", 1.0)
    sampled = sample_closed_form(w, grid, 256)
    save_sampled_csv(sampled, tmp_path / "weight.csv")
    closed_cfg = write_ini(tmp_path, BASE_PROBLEM, name="closed.ini")
    sampled_cfg = write_ini(
        tmp_path,
        BASE_PROBLEM.replace("expr = sin(2*pi*t/T) + cos(2*pi*x) - 0.2",
                             "samples = weight.csv"),
        name="sampled.ini")
    assert run("lambda_p", closed_cfg, tmp_path / "a") == 0
    assert run("lambda_p", sampled_cfg, tmp_path / "b") == 0
    ra = json.loads((tmp_path / "a" / "summary.json").read_text())["result"]
    rb = json.loads((tmp_path / "b" / "summary.json").read_text())["result"]
    assert rb["status"] == "unique_root"
    # only time interpolation separates the two routes
    assert abs(ra["lambda_p"] - rb["lambda_p"]) / ra["lambda_p"] < 1e-3


# --------------------------------------------------------------- exit codes

@pytest.mark.parametrize("mutation, name", [
    (lambda s: s.replace("boundary = dirichlet", "boundary = absorbing"), "boundary"),
    (lambda s: s.replace("expr = sin(2*pi*t/T) + cos(2*pi*x) - 0.2",
                         "expr = exp(x)"), "expr"),
    (lambda s: s.replace("box = 1", "box = one"), "box"),
    (lambda s: s.replace("n_per_axis = 24", "n_per_axis = many"), "n_per_axis"),
    (lambda s: s.replace("kernel = parabolic", "kernel = gaussian"), "kernel"),
    (lambda s: s.replace("period = 1.0", "period = 1.0\nsamples = nowhere.csv"),
     "both expr and samples"),
    (lambda s: s.replace("expr = sin(2*pi*t/T) + cos(2*pi*x) - 0.2", ""), "neither"),
    (lambda s: s.replace("period = 1.0", "period = -1.0"), "period"),
    (lambda s: s.replace("period = 1.0", "period = 1.0\ns1_maximizer = half"),
     "s1_maximizer"),
])
def test_bad_config_exits_two(tmp_path, capsys, mutation, name):
    cfg = write_ini(tmp_path, mutation(BASE_PROBLEM + "\n[spectrum]\nlambdas = 1\n"))
    assert run("spectrum", cfg, tmp_path / "out") == 2
    assert "config error" in capsys.readouterr().err


def test_infinite_s1_smoothness_is_legal(tmp_path):
    # infinity is the default smoothness, so a config may state it
    cfg = write_ini(tmp_path, BASE_PROBLEM + "s1_maximizer = 0.5\ns1_smoothness = inf\n"
                    "\n[spectrum]\nlambdas = 1\n")
    assert run("spectrum", cfg, tmp_path / "out") == 0


@pytest.mark.parametrize("task, section, key", [
    ("spectrum", "[spectrum]\nlambdas = 0.5, nan", "lambdas"),
    ("spectrum", "[spectrum]\nlambdas = 0.5, inf", "lambdas"),
    ("lambda_p", "[lambda_p]\nlam_cap = nan", "lam_cap"),
    ("lambda_p", "[lambda_p]\nlam_cap = 0", "lam_cap"),
    ("lambda_p", "[lambda_p]\ntol_root = -1", "tol_root"),
    ("upper_bound", "[upper_bound]\ntol_root = inf", "tol_root"),
    ("kpp_scan", "[kpp_scan]\nlambdas = 1\nsaturation = nan", "saturation"),
    ("spectrum", "s1_maximizer = 0.5\ns1_smoothness = nan\n[spectrum]\nlambdas = 1",
     "s1_smoothness"),
    ("kpp_scan", "[kpp_scan]\nlambdas = 1\nn_steps = 0", "n_steps"),
    ("kpp_scan", "[kpp_scan]\nlambdas = 1\nmax_periods = 0", "max_periods"),
    ("kpp_scan", "[kpp_scan]\nlambdas = 1\ncheck_uniqueness = maybe", "check_uniqueness"),
])
def test_bad_numeric_key_exits_two(tmp_path, capsys, task, section, key):
    cfg = write_ini(tmp_path, BASE_PROBLEM + "\n" + section + "\n")
    assert run(task, cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


@pytest.mark.parametrize("task, section", [
    ("spectrum", "[spectrum]\nlambdas = 1\nn_steps = 0"),
    ("lambda_p", "[lambda_p]\nn_steps = -4"),
    ("upper_bound", "[upper_bound]\nn_steps = 0"),
    ("kpp_scan", "[kpp_scan]\nlambdas = 1\nsolver_n_steps = -4"),
], ids=["spectrum-n_steps", "lambda_p-n_steps", "upper_bound-n_steps",
        "kpp_scan-solver_n_steps"])
def test_retired_step_count_key_exits_two(tmp_path, capsys, task, section):
    # root searches and spectrum points take their step counts from the
    # time-bar ladder; a config that still sets one is refused by name
    key = section.splitlines()[-1].split(" = ")[0]
    out = tmp_path / "out"
    assert run(task, write_ini(tmp_path, BASE_PROBLEM + "\n" + section + "\n"), out) == 2
    err = capsys.readouterr().err
    assert f"perispec: config error: unknown key {key!r} in [{task}]" in err
    assert not out.exists()


@pytest.mark.parametrize("task, section, name", [
    ("spectrum", "[spectrum]\nlambdas = 1\nn_step = 7", "n_step"),
    ("lambda_p", "[lambda-p]\ntol_root = 1e-9", "lambda-p"),
    ("spectrum", "[spectrum]\nlambdas = 1\ncross_validate = true", "cross_validate"),
    ("lambda_p", "[lambda_p]\ncheck_pe = false", "check_pe"),
    ("spectrum", "[spectrum]\nlambda_min = 0\nlambda_max = inf\nlambda_count = 3",
     "lambda_min"),
    ("kpp_scan", "[kpp_scan]\nlambda_min = 0.5\nlambda_max = 2\nlambda_count = 4",
     "lambda_min"),
    ("validate", "[validate]\nseed = 1\nverbose = true", "verbose"),
])
def test_unknown_section_or_key_exits_two(tmp_path, capsys, task, section, name):
    # a key no task reads is refused, not silently left at its default
    cfg = write_ini(tmp_path, BASE_PROBLEM + "\n" + section + "\n")
    assert run(task, cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "config error" in err and name in err
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("text, name", [
    ("n_steps = 7\n" + BASE_PROBLEM, "n_steps"),  # before any section header
    (BASE_PROBLEM + "period = 2.0\n", "period"),  # set twice in [weight]
])
def test_malformed_config_exits_two(tmp_path, capsys, text, name):
    cfg = write_ini(tmp_path, text + "\n[spectrum]\nlambdas = 1\n")
    assert run("spectrum", cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "config error" in err and name in err


def test_missing_config_file_exits_two(tmp_path, capsys):
    assert run("spectrum", str(tmp_path / "nope.ini"), tmp_path / "out") == 2
    assert "config error" in capsys.readouterr().err


def test_task_without_config_exits_two(tmp_path, capsys):
    assert run("spectrum", None, tmp_path / "out") == 2
    assert "needs a config file" in capsys.readouterr().err


@pytest.mark.parametrize("task, text, message", [
    ("spectrum", BASE_PROBLEM, "config needs a [spectrum] section"),
    ("lambda_p", BASE_PROBLEM.split("[weight]")[0], "config needs a [weight] section"),
    ("spectrum", BASE_PROBLEM + "\n[spectrum]\nlambdas = ,\n", "lambdas is empty"),
    ("kpp_scan", BASE_PROBLEM + "\n[kpp_scan]\nlambdas = ;\n", "lambdas is empty"),
    ("validate", "[validate]\nchecks = ;\n", "checks is empty"),
], ids=["no spectrum section", "no weight section", "no lambdas", "no kpp lambdas",
        "no checks"])
def test_missing_or_empty_config_part_exits_two(tmp_path, capsys, task, text, message):
    out = tmp_path / "out"
    assert run(task, write_ini(tmp_path, text), out) == 2
    assert f"perispec: config error: {message}" in capsys.readouterr().err
    assert not (out / "summary.json").exists()
    assert not out.exists()  # an error makes no output directory


def test_missing_lambdas_exits_two(tmp_path, capsys):
    cfg = write_ini(tmp_path, BASE_PROBLEM + "\n[spectrum]\n")
    assert run("spectrum", cfg, tmp_path / "out") == 2
    capsys.readouterr()


@pytest.mark.parametrize("key", ["s1_maximizer = 0.5", "s1_smoothness = 3",
                                 "s1_flat_order = 2"])
def test_s1_key_beside_samples_exits_two(tmp_path, capsys, key):
    # the S1 metadata is read only with a closed form; beside samples it would
    # be dropped, so S1 would read unknown where the expr twin reads yes
    grid = build_grid(Boundary.DIRICHLET, (1.0,), 24)
    w = closed_form("-cos(2*pi*x) - 0.2", 1.0)
    save_sampled_csv(sample_closed_form(w, grid, 16), tmp_path / "weight.csv")
    cfg = write_ini(tmp_path, BASE_PROBLEM.replace(
        "expr = sin(2*pi*t/T) + cos(2*pi*x) - 0.2", "samples = weight.csv\n" + key)
        + "\n[spectrum]\nlambdas = 1\n")
    assert run("spectrum", cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "config error" in err and key.split(" = ")[0] in err
    assert not (tmp_path / "out").exists()


def test_sampled_node_mismatch_exits_two(tmp_path, capsys):
    grid = build_grid(Boundary.DIRICHLET, (1.0,), 12)  # config grid has 24
    w = closed_form("cos(2*pi*x)", 1.0)
    save_sampled_csv(sample_closed_form(w, grid, 16), tmp_path / "weight.csv")
    cfg = write_ini(tmp_path, BASE_PROBLEM.replace(
        "expr = sin(2*pi*t/T) + cos(2*pi*x) - 0.2", "samples = weight.csv"))
    assert run("lambda_p", cfg, tmp_path / "out") == 2
    assert "nodes" in capsys.readouterr().err


@pytest.mark.parametrize("task, section", [
    ("lambda_p", ""),
    ("spectrum", "\n[spectrum]\nlambdas = 1\n"),
])
@pytest.mark.parametrize("expr", [
    "cos(2*pi*y) - 0.2",  # y on a 1-D grid
    "1/(x-0.53125)",      # infinite at the node 8.5/16
])
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_weight_that_does_not_fit_the_grid_exits_two(tmp_path, capsys, task, section, expr):
    cfg = write_ini(tmp_path, BASE_PROBLEM.replace("n_per_axis = 24", "n_per_axis = 16").replace(
        "expr = sin(2*pi*t/T) + cos(2*pi*x) - 0.2", f"expr = {expr}") + section)
    assert run(task, cfg, tmp_path / "out") == 2
    assert "config error" in capsys.readouterr().err


def test_bad_thread_count_exits_two(tmp_path, capsys):
    cfg = write_ini(tmp_path, BASE_PROBLEM + "\n[spectrum]\nlambdas = 1\n")
    assert run("spectrum", cfg, tmp_path / "out", "--threads", "0") == 2
    capsys.readouterr()


def test_bad_nonlinearity_exits_two(tmp_path, capsys):
    cfg = write_ini(tmp_path, BASE_PROBLEM +
                    "\n[kpp_scan]\nlambdas = 1\nnonlinearity = cubic\n")
    assert run("kpp_scan", cfg, tmp_path / "out") == 2
    capsys.readouterr()


def test_unknown_task_exits_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x.ini"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_degenerate_frozen_generator_gives_one_answer(tmp_path):
    # two cells with a kernel far narrower than the spacing: K = 7.5 I, so the
    # frozen generator of the constant weight is 7 I, whose top is degenerate,
    # and the constant start is already a Perron vector
    cfg = write_ini(tmp_path, """
[problem]
boundary = dirichlet
box = 1
n_per_axis = 2
kernel = parabolic
support_radius = 0.05

[weight]
period = 1.0
expr = 0.5

[spectrum]
lambdas = 1
""")
    outputs = set()
    for k in range(5):
        out = tmp_path / f"out{k}"
        assert run("spectrum", cfg, out) == 0
        outputs.add(tuple((out / name).read_bytes()
                          for name in ("spectrum.csv", "summary.json", "report.txt")))
    assert len(outputs) == 1


def test_two_node_time_stepped_point_is_the_lapack_root(tmp_path):
    # on two nodes each map is formed from the images of its two columns
    # under vector periods, and mu_n is the two-level value of the logs of
    # LAPACK's top eigenvalues of those maps at the point's step count and
    # half of it
    expr = "0.5 + 0.1*x*sin(2*pi*t/T)"
    cfg = write_ini(tmp_path, BASE_PROBLEM.replace("n_per_axis = 24", "n_per_axis = 2")
                    .replace("expr = sin(2*pi*t/T) + cos(2*pi*x) - 0.2", f"expr = {expr}")
                    + "\n[spectrum]\nlambdas = 1\n")
    out = tmp_path / "out"
    assert run("spectrum", cfg, out) == 0
    [result] = json.loads((out / "summary.json").read_text())["results"]
    op, w = Problem(Boundary.DIRICHLET, (1.0,), "parabolic", 1.0, closed_form(expr, 1.0)).at(2)
    assert not summarize(w, op.grid).separable
    n = principal_spectrum_point(op, w, 1.0).n_steps
    assert n >= perispec.spectrum.LADDER_MIN_STEPS
    tops = []
    for n_steps in (n // 2, n):
        action = period_action(op, w, 1.0, n_steps)
        vals = np.linalg.eig(np.stack([action(e) for e in np.eye(2)], axis=1))[0]
        tops.append(vals[np.argmax(np.abs(vals))])
        assert tops[-1].imag == 0.0
    assert result["mu_n"] == (4.0 * math.log(tops[1].real) - math.log(tops[0].real)) / 3.0
    assert result["residual"] < 1e-14


def test_numerical_failure_exits_three(tmp_path, capsys):
    # the ladder's first level, 8 steps at lam = 1e6: the diagonal factor
    # exp(h/2 * lam * m) of a half step is beyond the floating-point range, so
    # the state would not stay finite; the weight is not separable, so the
    # flow is stepped in time
    cfg = write_ini(tmp_path, """
[problem]
boundary = dirichlet
box = 1
n_per_axis = 2
kernel = parabolic
support_radius = 0.05

[weight]
period = 1.0
expr = 0.5 + 0.1*x*sin(2*pi*t/T)

[spectrum]
lambdas = 1e6
""")
    assert run("spectrum", cfg, tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "overflows" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["a file", "under a file", "report.txt a directory"])
def test_unusable_output_directory_exits_two(tmp_path, capsys, where):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = {"a file": blocker, "under a file": blocker / "out",
           "report.txt a directory": tmp_path / "out"}[where]
    if where == "report.txt a directory":
        (out / "report.txt").mkdir(parents=True)
    cfg = write_ini(tmp_path, BASE_PROBLEM + "\n[spectrum]\nlambdas = 0\n")
    assert run("spectrum", cfg, out) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("perispec: cannot write the results: ")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""
    assert blocker.read_text() == "not a directory\n"
    if where == "report.txt a directory":
        # the CSV and the summary written before the failed report are removed
        assert [p.name for p in out.iterdir()] == ["report.txt"]
        assert not any((out / "report.txt").iterdir())
