"""Benchmark of perispec: threshold solves, a 2-D sweep and KPP scans.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a source tree; the program is imported from ``src/``.
For one workload the run writes the inputs for ``--seed`` into
``.bench_work/``, times set-up in fresh interpreters, calls the CLI tasks
in whole rounds for ``--seconds`` in another fresh interpreter, checks the
written outputs against ``reference.py``, prints every metric with its unit
and, as its last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``).  ``--workload all`` runs every workload
untraced and traced and prints both sets and the tracing overhead.

Every interpreter runs with BLAS pinned to one thread; only ``sweep_2d``
passes ``--threads 2`` to the program.
"""

from __future__ import annotations

import os

BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)  # before numpy is first imported

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

WORKLOADS = ("threshold_kpp_1d", "sweep_2d")
DEFAULT_SEED = 1
SETUP_PROBES = 8          # fresh interpreters timed for setup_s (median)
DEADLINE_S = 170.0        # a run ends well within 180 s
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    pass


def _child(args, env, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before the {args[0]} worker")
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                          env=env, capture_output=True, text=True, timeout=remaining)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the result object and leaves its details in ``RESULTS``."""
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "perispec" / "__init__.py").is_file():
        raise BenchError(f"no perispec source tree at {SRC}")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    workdir = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        plan = workloads.make_plan(workload, seed)
        configs = workloads.write_inputs(plan, workdir)
        (workdir / "plan.json").write_text(json.dumps({
            "workload": workload, "seed": seed,
            "problems": {p.name: p.spec() for p in plan.problems()},
            "tasks": [{"name": t.name, "task": t.task, "config": str(configs[t.name]),
                       "threads": t.threads} for t in plan.tasks]}))

        def probe():
            return json.loads(_child(["setup", str(workdir)], env, deadline))["setup_s"]

        # half the set-up probes before the timed rounds and half after, so
        # the median spans the run rather than one moment of the machine
        probe()  # fills the bytecode cache
        setups = [probe() for _ in range(SETUP_PROBES // 2)]
        _child(["run", str(workdir), "--seconds", str(seconds),
                "--trace", str(int(trace))], env, deadline)
        setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        result = json.loads((workdir / "result.json").read_text())
        if not Path(result["perispec_file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"imported perispec from {result['perispec_file']}, not {SRC}")

        rounds = result["rounds"]
        errors = []
        for i, call in enumerate(rounds[0]):
            if {r[i]["digest"] for r in rounds} != {call["digest"]} or \
                    {r[i]["code"] for r in rounds} != {call["code"]}:
                errors.append(f"{call['name']}: outputs differ between rounds")
        failed_per_round = 0
        refs = {}
        for task, call in zip(plan.tasks, rounds[-1]):
            ref = refs.setdefault(task.problem.name, checks.Reference(task.problem))
            failed, errs = checks.check_task(task, workdir / "out" / task.name,
                                             call["code"], ref, plan)
            failed_per_round += failed
            errors += errs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
    else:
        # each task call's median over the rounds, summed over the calls
        def per_round(key):
            return sum(statistics.median(r[i][key] for r in rounds)
                       for i in range(len(rounds[0])))

        values = {
            "wall_s": per_round("wall_s"),
            "cpu_s": per_round("cpu_s"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    out = {"correct": not errors,
           "attempted": plan.operations_per_round * len(rounds),
           "failed": failed_per_round * len(rounds),
           "metrics": metrics}
    detail = {"workload": workload, "seed": seed, "trace": trace, "params": plan.params,
              "rounds": rounds, "setup_probes_s": setups, "errors": errors, **out}
    if trace:
        detail["workload_id"] = result["workload_id"]
        detail["spans"] = result["spans"]
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(detail))
    for e in errors:
        print(f"WRONG: {e}", file=sys.stderr)
    return out


def _print_metrics(workload: str, out: dict) -> None:
    print(f"{workload}: correct={out['correct']} attempted={out['attempted']} "
          f"failed={out['failed']}")
    for name, m in out["metrics"].items():
        print(f"  {name:38s} {m['value']:14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload != "all":
            out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            _print_metrics(args.workload, out)
            print(json.dumps(out))
            return 0
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            plain = run_workload(workload, args.seed, args.seconds, False)
            traced = run_workload(workload, args.seed, args.seconds, True)
            for out in (plain, traced):
                _print_metrics(workload, out)
                summary["correct"] &= out["correct"]
                summary["attempted"] += out["attempted"]
                summary["failed"] += out["failed"]
                summary["metrics"].update({f"{workload}.{k}": v
                                           for k, v in out["metrics"].items()})
            overhead = (traced["metrics"]["trace.task_wall_s"]["value"]
                        / plain["metrics"]["wall_s"]["value"] - 1.0)
            print(f"  {'tracing overhead':38s} {100.0 * overhead:14.3g} %")
        print(json.dumps(summary))
        return 0
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
