"""The scripts run at their CI sizes and build every problem through ``Problem.at``."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, argv, sizes", [
    ("threshold_demo.py", ["--n", "16", "--factors", "0.5,1.6"], [16]),
    ("threshold_demo.py", ["--n", "16", "--boundary", "periodic", "--factors", "0.5,1.6"],
     [16]),
    ("refinement_study.py", ["--levels", "2"], [8, 16]),
    ("refinement_study.py", ["--levels", "2", "--boundary", "periodic"], [8, 16]),
    ("spectrum_sweep.py", ["--n", "16", "--count", "3", "--n-steps", "64"], [16, 16, 16]),
    ("spectrum_sweep.py", ["--n", "16", "--count", "3", "--n-steps", "64",
                           "--weight", "cos(2*pi*x)*(1 + sin(2*pi*t/T)) - 0.2"], [16, 16, 16]),
    # the default weight is separable and takes the exact route; the
    # non-separable one takes Arnoldi on vector periods
    ("spectrum_sweep.py", ["--n", "256", "--count", "3", "--n-steps", "64"],
     [256, 256, 256]),
    ("spectrum_sweep.py", ["--n", "256", "--count", "3", "--n-steps", "64",
                           "--weight", "cos(2*pi*x)*(1 + sin(2*pi*t/T)) - 0.2"],
     [256, 256, 256]),
])
def test_script_builds_through_problem_at(problem_at_calls, capsys, script, argv, sizes):
    main = runpy.run_path(str(SCRIPTS / script), run_name="script")["main"]
    assert main(argv) == 0
    assert problem_at_calls == sizes
    capsys.readouterr()
