"""Command-line front end.

Usage::

    perispec TASK CONFIG.ini [--output-dir DIR] [--threads N] [--verbose]

Tasks: ``spectrum`` (principal spectrum points over a list of couplings),
``lambda_p`` (positive root of the spectrum curve), ``upper_bound`` (root of
the time-averaged companion problem), ``kpp_scan`` (nonlinear persistence
verdicts across couplings), ``validate`` (seeded self-check battery; the
config file is optional for this task).

Every task writes CSV files tagged ``# perispec-csv v1``, a ``summary.json``,
and a human-readable ``report.txt`` into the output directory when it
finishes, and makes the directory then; a config error or a numerical
failure writes nothing.  Outputs contain no timestamps or machine-specific
data, so rerunning a task with the same config produces byte-identical
files, independent of the thread count.

Exit codes: 0 success, 1 the task's own acceptance condition failed (a failed
check, a violated bound, an inconsistent scan), 2 bad usage or configuration,
or an output directory that cannot be written, 3 numerical failure (unstable
integration or non-converged iteration).
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from ._io import fmt, write_csv, write_json, write_text
from .evolution import UnstableStepError
from .geometry import Boundary
from .kpp import MAX_PERIODS, Nonlinearity, find_periodic_solution, summarize_scan
from .operator import Problem
from .spectrum import PowerIterationError, check_S_conditions, principal_spectrum_point
from .validate import DEFAULT_SEED, run_checks
from .weighted_solver import (LAMBDA_CAP, STATUS_UNIQUE, TOL_ROOT, pe_sufficiency,
                              solve_lambda_p, upper_bound_lambda_p)
from .weights import S1Data, closed_form, load_sampled_csv

TASKS = ("spectrum", "lambda_p", "upper_bound", "kpp_scan", "validate")

# every config section and the keys it may hold; any other section or key is
# refused, so a misspelt or retired key cannot be silently ignored
KEYS = {
    "problem": ("boundary", "box", "n_per_axis", "kernel", "support_radius"),
    "weight": ("period", "expr", "samples", "s1_maximizer", "s1_smoothness",
               "s1_flat_order"),
    "spectrum": ("lambdas",),
    "lambda_p": ("tol_root", "lam_cap"),
    "upper_bound": ("tol_root", "lam_cap"),
    "kpp_scan": ("lambdas", "nonlinearity", "crowding", "saturation", "n_steps",
                 "max_periods", "check_uniqueness"),
    "validate": ("seed", "checks"),
}

# integer keys that count steps or periods: zero or fewer is no run at all
_COUNTS = ("n_steps", "max_periods")


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config access


def _load_config(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keys and expressions keep their case
    try:
        found = cp.read(path)
    except configparser.Error as exc:  # a key outside any section, a key set twice
        raise ConfigError(str(exc)) from None
    if not found:
        raise ConfigError(f"cannot read config file {path!r}")
    for name in cp.sections():
        if name not in KEYS:
            raise ConfigError(f"unknown section [{name}]; the sections are "
                              + ", ".join(KEYS))
        unknown = [key for key in cp.options(name) if key not in KEYS[name]]
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in [{name}]; its keys are "
                              + ", ".join(KEYS[name]))
    return cp


def _section(cp, name, required=True):
    if cp is not None and cp.has_section(name):
        return cp[name]
    if required:
        raise ConfigError(f"config needs a [{name}] section")
    return {}


def _get(sec, key, default=None, required=False):
    raw = sec.get(key)
    if raw is None or str(raw).strip() == "":
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    return str(raw).strip()


def _number(key, raw, finite=True):
    """``float(raw)``; NaN, non-numbers and, if ``finite``, infinities are config errors."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if math.isnan(value) or (finite and math.isinf(value)):
        raise ConfigError(f"{key} = {raw!r} is not a {'finite ' if finite else ''}number")
    return value


def _get_float(sec, key, default=None, required=False, finite=True):
    raw = _get(sec, key, required=required)
    return default if raw is None else _number(key, raw, finite)


def _float_list(key, raw):
    """The comma- or semicolon-separated numbers of ``raw``."""
    values = [_number(key, tok.strip()) for tok in raw.replace(";", ",").split(",")
              if tok.strip()]
    if not values:
        raise ConfigError(f"{key} is empty")
    return values


def _get_int(sec, key, default=None, required=False):
    raw = _get(sec, key, required=required)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{key} = {raw!r} is not an integer") from None
    if key in _COUNTS and value < 1:
        raise ConfigError(f"{key} = {raw!r} must be at least 1")
    return value


def _get_bool(sec, key):
    """A boolean key that is false when absent."""
    raw = _get(sec, key, default="false")
    state = configparser.ConfigParser.BOOLEAN_STATES.get(raw.lower())
    if state is None:
        raise ConfigError(f"{key} = {raw!r} is not a boolean")
    return state


def _root_options(sec):
    """``tol_root`` and ``lam_cap`` of a root-search section; both must be positive."""
    options = {"tol_root": _get_float(sec, "tol_root", default=TOL_ROOT),
               "lam_cap": _get_float(sec, "lam_cap", default=LAMBDA_CAP)}
    for key, value in options.items():
        if value <= 0.0:
            raise ConfigError(f"{key} = {value!r} must be positive")
    return options


def _build_problem(cp, config_dir: Path):
    sec = _section(cp, "problem")
    raw_boundary = _get(sec, "boundary", required=True)
    try:
        boundary = Boundary(raw_boundary.lower())
    except ValueError:
        raise ConfigError(f"unknown boundary {raw_boundary!r}") from None
    box = tuple(_float_list("box", _get(sec, "box", required=True)))
    n_per_axis = _get_int(sec, "n_per_axis", required=True)
    profile = _get(sec, "kernel", required=True)
    radius = _get_float(sec, "support_radius", required=True)

    wsec = _section(cp, "weight")
    period = _get_float(wsec, "period", required=True)
    expr = _get(wsec, "expr")
    samples_path = _get(wsec, "samples")
    if (expr is None) == (samples_path is None):
        raise ConfigError("[weight] needs exactly one of 'expr' or 'samples'")
    s1_data = None
    maximizer_raw = _get(wsec, "s1_maximizer")
    if maximizer_raw is not None:
        maximizer = tuple(_float_list("s1_maximizer", maximizer_raw))
        s1_data = S1Data(
            smoothness=_get_float(wsec, "s1_smoothness", default=math.inf, finite=False),
            maximizer=maximizer,
            flat_order=_get_int(wsec, "s1_flat_order", default=1),
        )
    try:
        if expr is not None:
            weight = closed_form(expr, period, s1_data=s1_data)
        else:
            path = Path(samples_path)
            if not path.is_absolute():
                path = config_dir / path
            weight = load_sampled_csv(path, period)
        return Problem(boundary, box, profile, radius, weight).at(n_per_axis)
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from None


def _config_echo(cp):
    if cp is None:
        return {}
    return {name: dict(sorted(cp[name].items())) for name in sorted(cp.sections())}


# From this many cells per axis on, a 2-D sweep spreads its entries over
# worker threads; below it they run one after another.  A 2-D vector period
# is hundreds of numpy calls of 1-10 us each, and two threads that pass the
# interpreter lock on every call use more CPU and finish no sooner.  Wall
# time of a whole `perispec spectrum` process (non-separable Neumann weight,
# radius 0.5, 4 couplings, one BLAS thread, 2 cores, 4 runs each, Strang
# steps), --threads 1 against 2: 16x16 0.70-0.92 s vs 0.70-0.87 s, 24x24
# 0.87-1.51 s vs 0.97-1.54 s, 32x32 1.59-2.00 s vs 1.74-2.07 s (2.0-2.8 s
# CPU), 40x40 2.75-4.04 s vs 2.15-2.86 s, 48x48 6.71-7.31 s vs 4.27-4.98 s
# (2 runs).  A 24x24 `kpp_scan` of 4 couplings took 3.27-4.38 s vs
# 4.38-5.42 s.
_THREADED_2D_MIN_N = 40


def _map_ordered(fn, items, threads, grid):
    """``[fn(item) for item in items]`` on up to ``threads`` worker threads;
    2-D grids below ``_THREADED_2D_MIN_N`` cells per axis take none."""
    if grid.dim == 2 and grid.n_per_axis < _THREADED_2D_MIN_N:
        threads = 1
    workers = min(threads, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# serialization of results


def _cond_dict(cond):
    return {
        "p_value": cond.p_value,
        "time_space_integral": cond.time_space_integral,
        "dirichlet_condition_holds": cond.d_holds,
        "mass_conserving_condition_holds": cond.n_holds,
        "p_marginal": cond.p_marginal,
        "integral_marginal": cond.integral_marginal,
        "tol_p": cond.tol_p,
        "tol_integral": cond.tol_integral,
    }


def _root_dict(res):
    return {
        "status": res.status,
        "boundary": res.boundary.value,
        "lambda_p": res.lambda_p,
        "mu_at_root": res.mu_at_root,
        "bracket": list(res.bracket) if res.bracket else None,
        "evidence": res.evidence,
        "conditions": _cond_dict(res.condition_report),
        "curve_points": len(res.curve),
    }


def _pe_dict(pe):
    s = pe.s_conditions
    return {
        "is_principal_eigenvalue": pe.is_principal_eigenvalue,
        "basis": pe.basis,
        "mu_n": pe.report.mu_n,
        "residual": pe.report.residual,
        "h_hat_max": pe.report.h_hat_max,
        "spectral_gap": pe.report.mu_n - pe.report.h_hat_max,
        "localization_width": pe.report.localization_width,
        "s1": s.s1, "s2": s.s2, "s3": s.s3,
        "s3_exponent": s.s3_exponent,
    }


def _root_report_lines(res):
    cond = res.condition_report
    lines = [
        f"boundary: {res.boundary.value}",
        f"status: {res.status}",
    ]
    if res.lambda_p is not None:
        lines.append(f"lambda_p: {fmt(res.lambda_p)}")
        lines.append(f"mu at the root: {fmt(res.mu_at_root)}")
    if res.bracket is not None:
        lines.append(f"final bracket: [{fmt(res.bracket[0])}, {fmt(res.bracket[1])}]")
    lines.append(f"accumulated best-case growth P: {fmt(cond.p_value)}")
    lines.append(f"space-time integral of the weight: {fmt(cond.time_space_integral)}")
    holds = cond.holds_for(res.boundary)
    lines.append(f"existence condition for this boundary holds: {fmt(holds)}")
    if cond.marginal_for(res.boundary):
        lines.append("warning: the existence condition is within tolerance of "
                     "its boundary; the verdict is sensitive to quadrature")
    lines.append(f"evidence: {res.evidence}")
    return lines


def _curve(res):
    """The ``(lam, mu)`` table of a root search's curve."""
    return ["lam", "mu"], list(res.curve)


# ---------------------------------------------------------------------------
# tasks: each returns (exit code, message, CSV tables by file name, summary,
# report lines) and writes nothing; ``main`` writes every output


def _task_spectrum(cp, op, weight, threads):
    sec = _section(cp, "spectrum")
    lams = _float_list("lambdas", _get(sec, "lambdas", required=True))

    def one(lam):
        return (principal_spectrum_point(op, weight, lam),
                check_S_conditions(weight, op, lam))

    points = _map_ordered(one, lams, threads, op.grid)
    rows = [[rep.lam, rep.mu_n, rep.residual, rep.iterations, rep.h_hat_min,
             rep.h_hat_max, rep.is_principal_eigenvalue, s.s1, s.s2, s.s3,
             s.s3_exponent, rep.localization_width, rep.time_error] for rep, s in points]
    csvs = {"spectrum.csv": (["lam", "mu_n", "residual", "iterations", "h_hat_min",
                              "h_hat_max", "is_principal_eigenvalue", "s1", "s2", "s3",
                              "s3_exponent", "localization_width", "time_error"], rows)}
    summary = {
        "results": [
            {"lam": rep.lam, "mu_n": rep.mu_n, "time_error": rep.time_error,
             "residual": rep.residual,
             "is_principal_eigenvalue": rep.is_principal_eigenvalue,
             "h_hat_max": rep.h_hat_max,
             "s_conditions": {"s1": s.s1, "s2": s.s2, "s3": s.s3}}
            for rep, s in points],
    }
    lines = ["principal spectrum points", ""]
    for rep, _ in points:
        lines.append(
            f"lam = {fmt(rep.lam)}: mu = {fmt(rep.mu_n)}, envelope max = "
            f"{fmt(rep.h_hat_max)}, principal eigenvalue: {rep.is_principal_eigenvalue}")
    return 0, f"computed {len(points)} spectrum points", csvs, summary, lines


def _task_lambda_p(cp, op, weight, threads):
    sec = _section(cp, "lambda_p", required=False)
    res = solve_lambda_p(op, weight, **_root_options(sec))
    pe = pe_sufficiency(op, weight, res) if res.status == STATUS_UNIQUE else None

    summary = {"result": _root_dict(res)}
    if pe is not None:
        summary["principal_eigenvalue"] = _pe_dict(pe)
    lines = ["weighted threshold problem", ""] + _root_report_lines(res)
    if pe is not None:
        lines.append(
            f"eigenvalue at the root: {pe.is_principal_eigenvalue}"
            + (f" (certified by {pe.basis})" if pe.basis else ""))
    message = f"status {res.status}" + (
        f", lambda_p = {fmt(res.lambda_p)}" if res.lambda_p is not None else "")
    return 0, message, {"curve.csv": _curve(res)}, summary, lines


def _task_upper_bound(cp, op, weight, threads):
    sec = _section(cp, "upper_bound", required=False)
    out = upper_bound_lambda_p(op, weight, **_root_options(sec))
    csvs = {"curve_time.csv": _curve(out.time_dependent),
            "curve_averaged.csv": _curve(out.averaged)}
    summary = {
        "time_dependent": _root_dict(out.time_dependent),
        "averaged": _root_dict(out.averaged),
        "bound_holds": out.bound_holds,
        "slack": out.slack,
    }
    lines = ["time-averaging upper bound", "", "time-dependent problem:"]
    lines += ["  " + ln for ln in _root_report_lines(out.time_dependent)]
    lines += ["", "time-averaged problem:"]
    lines += ["  " + ln for ln in _root_report_lines(out.averaged)]
    lines.append("")
    if out.bound_holds is None:
        lines.append("bound not applicable: at least one problem has no unique root")
    else:
        lines.append(f"averaged root minus time-dependent root: {fmt(out.slack)}")
        lines.append(f"upper bound holds: {fmt(out.bound_holds)}")
    if out.bound_holds is False:
        return 1, "upper bound violated", csvs, summary, lines
    message = "bound " + ("holds" if out.bound_holds else "not applicable")
    return 0, message, csvs, summary, lines


def _task_kpp_scan(cp, op, weight, threads):
    sec = _section(cp, "kpp_scan")
    lams = _float_list("lambdas", _get(sec, "lambdas", required=True))
    try:
        nonlin = Nonlinearity(
            kind=_get(sec, "nonlinearity", default="logistic"),
            crowding=_get_float(sec, "crowding", default=1.0),
            saturation=_get_float(sec, "saturation", default=0.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    n_steps = _get_int(sec, "n_steps")
    max_periods = _get_int(sec, "max_periods", default=MAX_PERIODS)
    check_uniqueness = _get_bool(sec, "check_uniqueness")

    solver_result = solve_lambda_p(op, weight)

    def one(lam):
        return find_periodic_solution(op, weight, nonlin, lam, n_steps=n_steps,
                                      max_periods=max_periods,
                                      check_uniqueness=check_uniqueness)

    orbits = _map_ordered(one, sorted(lams), threads, op.grid)
    scan = summarize_scan(orbits, solver_result)

    rows = [[o.lam, o.verdict, o.sup_of_orbit, o.min_of_orbit, o.residual,
             o.periods_used,
             math.nan if o.uniqueness_gap is None else o.uniqueness_gap]
            for o in scan.orbits]
    csvs = {"scan.csv": (["lam", "verdict", "sup_of_orbit", "min_of_orbit", "residual",
                          "periods_used", "uniqueness_gap"], rows)}
    summary = {
        "verdicts": [{"lam": o.lam, "verdict": o.verdict,
                      "periods_used": o.periods_used, "certificate": o.certificate}
                     for o in scan.orbits],
        "threshold": _root_dict(scan.lambda_result),
        "switch_bracket": list(scan.switch_bracket) if scan.switch_bracket else None,
        "monotone": scan.monotone,
        "consistent_with_root": scan.consistent_with_root,
    }
    lines = ["persistence scan", ""]
    for o in scan.orbits:
        lines.append(f"lam = {fmt(o.lam)}: {o.verdict} "
                     f"({o.periods_used} periods)")
    lines.append("")
    lines += _root_report_lines(scan.lambda_result)
    lines.append(f"verdicts monotone in lam: {fmt(scan.monotone)}")
    if scan.switch_bracket is not None:
        lines.append(f"switch bracket: [{fmt(scan.switch_bracket[0])}, "
                     f"{fmt(scan.switch_bracket[1])}]")
    if scan.consistent_with_root is not None:
        lines.append(f"threshold root inside the switch bracket: "
                     f"{fmt(scan.consistent_with_root)}")
    if (not scan.monotone) or scan.consistent_with_root is False:
        return 1, "scan inconsistent with the linear threshold", csvs, summary, lines
    return 0, f"{len(scan.orbits)} verdicts, monotone", csvs, summary, lines


def _task_validate(cp):
    sec = _section(cp, "validate", required=False) if cp is not None else {}
    seed = _get_int(sec, "seed", default=DEFAULT_SEED)
    names_raw = _get(sec, "checks")
    names = None
    if names_raw:
        names = [tok.strip() for tok in names_raw.split(";") if tok.strip()]
        if not names:
            raise ConfigError("checks is empty")
    try:
        results = run_checks(seed, names)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    rows = [[r.name, r.passed, r.detail.replace(",", ";")] for r in results]
    csvs = {"checks.csv": (["name", "passed", "detail"], rows)}
    summary = {
        "seed": seed,
        "passed": sum(r.passed for r in results),
        "failed": sum(not r.passed for r in results),
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                   for r in results],
    }
    lines = ["self-check battery", ""]
    for r in results:
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    failed = [r for r in results if not r.passed]
    if failed:
        return 1, f"{len(failed)} of {len(results)} checks failed", csvs, summary, lines
    return 0, f"all {len(results)} checks passed", csvs, summary, lines


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perispec",
        description="principal spectrum points and persistence thresholds "
                    "for time-periodic nonlocal dispersal")
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("config", nargs="?",
                        help="INI config file (optional for 'validate')")
    parser.add_argument("--output-dir", default=".", help="where to write results")
    parser.add_argument("--threads", type=int, default=1,
                        help="up to N worker threads over the spectrum and kpp_scan "
                             "entries; 2-D grids below "
                             f"{_THREADED_2D_MIN_N} cells per axis run them one at a "
                             "time (default: 1)")
    parser.add_argument("--verbose", action="store_true",
                        help="echo the report to stdout")
    args = parser.parse_args(argv)

    try:
        if args.threads < 1:
            raise ConfigError("thread count must be >= 1")
        cp = None
        if args.config is not None:
            cp = _load_config(args.config)
        elif args.task != "validate":
            raise ConfigError(f"task {args.task!r} needs a config file")

        if args.task == "validate":
            code, message, csvs, summary, lines = _task_validate(cp)
        else:
            op, weight = _build_problem(cp, Path(args.config).resolve().parent)
            handler = {"spectrum": _task_spectrum, "lambda_p": _task_lambda_p,
                       "upper_bound": _task_upper_bound,
                       "kpp_scan": _task_kpp_scan}[args.task]
            code, message, csvs, summary, lines = handler(cp, op, weight, args.threads)
    except ConfigError as exc:
        print(f"perispec: config error: {exc}", file=sys.stderr)
        return 2
    except (UnstableStepError, PowerIterationError) as exc:
        print(f"perispec: numerical failure: {exc}", file=sys.stderr)
        return 3

    outdir = Path(args.output_dir)
    report = "\n".join(lines) + "\n"
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, (columns, rows) in csvs.items():
            write_csv(outdir / name, columns, rows)
        write_json(outdir / "summary.json",
                   {"task": args.task, "config": _config_echo(cp), **summary})
        write_text(outdir / "report.txt", report)
    except OSError as exc:
        # a failed write leaves none of the task's outputs, not a summary without
        # its report; a directory in the way stays
        for name in [*csvs, "summary.json", "report.txt"]:
            with contextlib.suppress(OSError):
                (outdir / name).unlink()
        print(f"perispec: cannot write the results: {exc}", file=sys.stderr)
        return 2

    print(f"perispec {args.task}: {message} (results in {outdir})")
    if args.verbose:
        print(report, end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
