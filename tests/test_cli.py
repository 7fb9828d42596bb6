"""Command-line front end: config ingestion, outputs, determinism, exit codes."""

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
from perispec.evolution import period_map
from perispec.geometry import Boundary, build_grid
from perispec.operator import Problem
from perispec.weights import closed_form, sample_closed_form, save_sampled_csv, summarize

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


def count_period_maps(monkeypatch):
    """The ``lam`` of every dense period map built from here on."""
    lams = []
    original = perispec.spectrum.period_map

    def counting(op, weight, lam, n_steps=None):
        lams.append(lam)
        return original(op, weight, lam, n_steps=n_steps)
    monkeypatch.setattr(perispec.spectrum, "period_map", counting)
    return lams


@pytest.mark.parametrize("boundary", ["dirichlet", "neumann", "periodic"])
def test_lambda_p_task_builds_one_map_per_lam(tmp_path, monkeypatch, boundary):
    # a non-separable weight forms its map on 24 nodes; the eigenvalue
    # check at the root reuses the root search's spectrum point
    lams = count_period_maps(monkeypatch)
    cfg = write_ini(tmp_path, BASE_PROBLEM.replace("dirichlet", boundary).replace(
        "expr = sin(2*pi*t/T) + cos(2*pi*x) - 0.2", f"expr = {NONSEPARABLE_EXPR}"))
    assert run("lambda_p", cfg, tmp_path / "out") == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["result"]["status"] == "unique_root"
    assert "principal_eigenvalue" in summary
    assert len(lams) == len(set(lams)) == summary["result"]["curve_points"]
    assert summary["result"]["lambda_p"] in lams


@pytest.mark.parametrize("boundary", ["dirichlet", "neumann", "periodic"])
def test_separable_lambda_p_task_builds_no_map(tmp_path, monkeypatch, boundary):
    # m1(x) + m2(t): every spectrum point is the frozen generator's
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
    for name in ("period_map", "period_action"):
        monkeypatch.setattr(perispec.spectrum, name, forbidden)
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


def test_upper_bound_task(tmp_path):
    cfg = write_ini(tmp_path, BASE_PROBLEM)
    out = tmp_path / "out"
    assert run("upper_bound", cfg, out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["bound_holds"] is True
    assert summary["slack"] >= -1e-8
    assert (out / "curve_time.csv").exists()
    assert (out / "curve_averaged.csv").exists()


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

def test_reruns_are_byte_identical(tmp_path, monkeypatch):
    cfg = write_ini(tmp_path, BASE_PROBLEM + "\n[spectrum]\nlambdas = 0, 0.5, 1\n")
    outs = [tmp_path / f"out{i}" for i in range(3)]
    assert run("spectrum", cfg, outs[0]) == 0
    assert run("spectrum", cfg, outs[1], "--threads", "3") == 0
    monkeypatch.setenv("PERISPEC_THREADS", "2")
    assert run("spectrum", cfg, outs[2]) == 0
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
    # a non-separable weight at n = 64 forms its map: every worker
    # owns its shifted copy of K
    lams = count_period_maps(monkeypatch)
    cfg = write_ini(tmp_path, BASE_PROBLEM.replace("n_per_axis = 24", "n_per_axis = 64")
                    .replace("expr = sin(2*pi*t/T) + cos(2*pi*x) - 0.2",
                             f"expr = {NONSEPARABLE_EXPR}")
                    + "\n[spectrum]\nlambdas = 0, 0.5, 1, 2, 4\n")
    outs = [tmp_path / f"out{i}" for i in range(2)]
    assert run("spectrum", cfg, outs[0], "--threads", "1") == 0
    assert run("spectrum", cfg, outs[1], "--threads", "2") == 0
    assert len(lams) == 10
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
        monkeypatch.setenv("PERISPEC_THREADS", "2")
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
    ("spectrum", "[spectrum]\nlambdas = 1\nn_steps = 0", "n_steps"),
    ("lambda_p", "[lambda_p]\nn_steps = -4", "n_steps"),
    ("upper_bound", "[upper_bound]\nn_steps = 0", "n_steps"),
    ("kpp_scan", "[kpp_scan]\nlambdas = 1\nn_steps = 0", "n_steps"),
    ("kpp_scan", "[kpp_scan]\nlambdas = 1\nsolver_n_steps = -4", "solver_n_steps"),
    ("kpp_scan", "[kpp_scan]\nlambdas = 1\nmax_periods = 0", "max_periods"),
    ("kpp_scan", "[kpp_scan]\nlambdas = 1\ncheck_uniqueness = maybe", "check_uniqueness"),
])
def test_bad_numeric_key_exits_two(tmp_path, capsys, task, section, key):
    cfg = write_ini(tmp_path, BASE_PROBLEM + "\n" + section + "\n")
    assert run(task, cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


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


def test_missing_lambdas_exits_two(tmp_path, capsys):
    cfg = write_ini(tmp_path, BASE_PROBLEM + "\n[spectrum]\n")
    assert run("spectrum", cfg, tmp_path / "out") == 2
    capsys.readouterr()


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


def test_bad_thread_env_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PERISPEC_THREADS", "plenty")
    cfg = write_ini(tmp_path, BASE_PROBLEM + "\n[spectrum]\nlambdas = 1\n")
    assert run("spectrum", cfg, tmp_path / "out") == 2
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
    # ARPACK needs three nodes: on two the map is formed from its two columns,
    # and mu_n is the log of LAPACK's top eigenvalue of period_map
    expr = "0.5 + 0.1*x*sin(2*pi*t/T)"
    cfg = write_ini(tmp_path, BASE_PROBLEM.replace("n_per_axis = 24", "n_per_axis = 2")
                    .replace("expr = sin(2*pi*t/T) + cos(2*pi*x) - 0.2", f"expr = {expr}")
                    + "\n[spectrum]\nlambdas = 1\n")
    out = tmp_path / "out"
    assert run("spectrum", cfg, out) == 0
    [result] = json.loads((out / "summary.json").read_text())["results"]
    op, w = Problem(Boundary.DIRICHLET, (1.0,), "parabolic", 1.0, closed_form(expr, 1.0)).at(2)
    assert not summarize(w, op.grid).separable
    vals = np.linalg.eig(period_map(op, w, 1.0).matrix)[0]
    top = vals[np.argmax(np.abs(vals))]
    assert top.imag == 0.0 and result["mu_n"] == math.log(top.real)
    assert result["residual"] < 1e-14


def test_numerical_failure_exits_three(tmp_path, capsys):
    # two cells with a kernel far narrower than the spacing: quadrature
    # overshoots the row mass and the linear flow escapes its growth envelope;
    # the weight is not separable, so the flow is stepped in time
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
lambdas = 1
""")
    assert run("spectrum", cfg, tmp_path / "out") == 3
    assert "numerical failure" in capsys.readouterr().err
