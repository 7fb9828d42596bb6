"""The benchmark's checks accept today's answers and reject wrong ones.

    python3 -m pytest bench/test_checks.py

Small grids keep the program runs short; the checks are the ones the
benchmark applies to its full-size outputs.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from perispec import cli  # noqa: E402


def _run_task(tmp_path, task: workloads.Task, plan: workloads.Plan) -> Path:
    configs = workloads.write_inputs(plan, tmp_path)
    outdir = tmp_path / "out" / task.name
    assert cli.main([task.task, str(configs[task.name]), "--output-dir", str(outdir)]) == 0
    return outdir


def _edit_summary(outdir: Path, edit) -> None:
    path = outdir / "summary.json"
    summary = json.loads(path.read_text())
    edit(summary)
    path.write_text(json.dumps(summary))


@pytest.fixture()
def dirichlet_root(tmp_path):
    problem = workloads._separable_1d("d", "dirichlet", 1.0, 32, 0.9, 1.3)
    task = workloads.Task("lambda_p_d", "lambda_p", problem, 1)
    plan = workloads.Plan("test", 0, (task,), {})
    return task, plan, _run_task(tmp_path, task, plan)


def _check(task, plan, outdir):
    return checks.check_task(task, outdir, 0, checks.Reference(task.problem), plan)


def test_lambda_p_today_passes(dirichlet_root):
    assert _check(*dirichlet_root) == (0, [])


def test_lambda_p_off_by_1e6_is_rejected(dirichlet_root):
    task, plan, outdir = dirichlet_root
    _edit_summary(outdir, lambda s: s["result"].update(lambda_p=s["result"]["lambda_p"] + 1e-6))
    failed, errors = _check(task, plan, outdir)
    assert any("reference" in e for e in errors)


def test_wrong_status_is_rejected(dirichlet_root):
    task, plan, outdir = dirichlet_root
    _edit_summary(outdir, lambda s: s["result"].update(status="no_positive_root"))
    assert any("expected unique_root" in e for e in _check(task, plan, outdir)[1])


def test_large_residual_at_the_root_is_rejected(dirichlet_root):
    task, plan, outdir = dirichlet_root
    _edit_summary(outdir, lambda s: s["result"].update(mu_at_root=1e-6))
    assert any("mu at the root" in e for e in _check(task, plan, outdir)[1])


def test_spectrum_point_off_by_1e6_is_rejected(tmp_path):
    problem = workloads._sampled_2d("s", True, 1.1, 0.4, 0)
    problem = dataclasses.replace(problem, n_per_axis=8)
    task = workloads.Task("spectrum_s", "spectrum", problem, 4,
                          section={"lambdas": "0.25, 0.5, 1.0, 2.0"})
    plan = workloads.Plan("test", 0, (task,), {})
    outdir = _run_task(tmp_path, task, plan)
    assert _check(task, plan, outdir) == (0, [])

    path = outdir / "spectrum.csv"
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    _edit_summary(outdir, lambda s: s["results"][0].update(mu_n=float(cells[1])))
    assert any("reference" in e for e in _check(task, plan, outdir)[1])


def test_convexity_and_mu_of_zero():
    convex = [(0.0, 0.0), (1.0, -0.5), (2.0, -0.2), (3.0, 0.4)]
    assert checks.check_convex(convex, True, "c") == []
    bump = [(0.0, 0.0), (1.0, -0.5), (2.0, 0.2), (3.0, 0.4)]
    assert checks.check_convex(bump, True, "c")
    assert checks.check_convex([(0.0, 1e-6), (1.0, -0.5), (2.0, 0.2)], True, "c")


def test_kpp_verdicts(tmp_path):
    problem = workloads._separable_1d("k", "dirichlet", 1.0, 16, 1.0, 0.0)
    lam_ref = 1.0
    ref = checks.Reference(problem)

    def write(verdicts):
        tmp_path.joinpath("summary.json").write_text(json.dumps(
            {"threshold": {"status": "unique_root", "lambda_p": lam_ref}}))
        rows = [f"{f * lam_ref!r},{v},1.0,{0.5 if v == 'persistence' else 0.0},0.0,10,nan"
                for f, v in zip(workloads.KPP_FACTORS, verdicts)]
        tmp_path.joinpath("scan.csv").write_text(
            "# perispec-csv v1\nlam,verdict,sup_of_orbit,min_of_orbit,residual,"
            "periods_used,uniqueness_gap\n" + "\n".join(rows) + "\n")
        return checks.check_kpp_scan(tmp_path, ref, lam_ref)

    today = ["extinction", "extinction", "undecided", "persistence", "persistence"]
    assert write(today) == (1, [])
    wrong = ["extinction", "persistence", "persistence", "persistence", "persistence"]
    assert write(wrong)[1]
