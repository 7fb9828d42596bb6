"""Command-line front end: config ingestion, outputs, determinism, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

import perispec.validate
from perispec.cli import main
from perispec.geometry import Boundary, build_grid
from perispec.weights import closed_form, sample_closed_form, save_sampled_csv

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
    assert summary["monotone"] is True
    assert summary["consistent_with_root"] is True
    lo, hi = summary["switch_bracket"]
    assert lo <= summary["threshold"]["lambda_p"] <= hi
    scan_lines = (out / "scan.csv").read_text().strip().splitlines()
    assert len(scan_lines) == 6


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


def test_krylov_size_outputs_do_not_depend_on_threads(tmp_path):
    # n = 256 takes the matrix-free route; Arnoldi must not see the schedule
    cfg = write_ini(tmp_path, BASE_PROBLEM.replace("n_per_axis = 24", "n_per_axis = 256")
                    + "\n[spectrum]\nlambdas = 0.5, 2\ncross_validate = true\n")
    outs = [tmp_path / f"out{i}" for i in range(2)]
    assert run("spectrum", cfg, outs[0], "--threads", "1") == 0
    assert run("spectrum", cfg, outs[1], "--threads", "2") == 0
    for name in ("spectrum.csv", "summary.json", "report.txt"):
        assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes()


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
    ("spectrum", "[spectrum]\nlambda_min = 0\nlambda_max = inf\nlambda_count = 3",
     "lambda_max"),
    ("lambda_p", "[lambda_p]\nlam_cap = nan", "lam_cap"),
    ("lambda_p", "[lambda_p]\nlam_cap = 0", "lam_cap"),
    ("lambda_p", "[lambda_p]\ntol_root = -1", "tol_root"),
    ("upper_bound", "[upper_bound]\ntol_root = inf", "tol_root"),
    ("kpp_scan", "[kpp_scan]\nlambdas = 1\nsaturation = nan", "saturation"),
    ("spectrum", "s1_maximizer = 0.5\ns1_smoothness = nan\n[spectrum]\nlambdas = 1",
     "s1_smoothness"),
])
def test_bad_numeric_key_exits_two(tmp_path, capsys, task, section, key):
    cfg = write_ini(tmp_path, BASE_PROBLEM + "\n" + section + "\n")
    assert run(task, cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


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


def test_numerical_failure_exits_three(tmp_path, capsys):
    # two cells with a kernel far narrower than the spacing: quadrature
    # overshoots the row mass and the linear flow escapes its growth envelope
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
    assert run("spectrum", cfg, tmp_path / "out") == 3
    assert "numerical failure" in capsys.readouterr().err
