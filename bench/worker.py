"""One fresh interpreter of a benchmark run; ``run.py`` starts it.

``setup``: time ``import perispec`` plus building every problem of the
workload through the public API, and print that time as JSON.

``run``: call the workload's CLI tasks in-process through
``perispec.cli.main``, in whole rounds, until ``--seconds`` have passed.
Writes per-round wall and CPU times, exit codes, output digests, the peak
resident set size and, with ``--trace 1``, the per-layer metrics and spans
to ``result.json`` in the work directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _setup(plan: dict, workdir: Path) -> None:
    start = time.perf_counter()
    import perispec as ps

    for spec in plan["problems"].values():
        grid = ps.build_grid(spec["boundary"], (1.0,) * spec["dim"], spec["n_per_axis"])
        kernel = ps.make_kernel("parabolic", spec["radius"], dim=spec["dim"])
        if spec["boundary"] == "periodic":
            kernel = ps.wrap_kernel(kernel, grid.box)
        ps.assemble(kernel, grid)
        if spec["expr"] is not None:
            ps.closed_form(spec["expr"], spec["period"])
        else:
            ps.load_sampled_csv(workdir / spec["samples"], spec["period"])
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def _digest(outdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _run(plan: dict, workdir: Path, seconds: float, trace: bool) -> None:
    import perispec
    from perispec import cli

    tracer = undo = None
    if trace:
        import tracing
        tracer = tracing.Tracer(f"{plan['workload']}-seed{plan['seed']}")
        undo = tracing.install(tracer)

    rounds = []
    start = time.perf_counter()
    try:
        while True:
            calls = []
            for task in plan["tasks"]:
                outdir = workdir / "out" / task["name"]
                argv = [task["task"], task["config"], "--output-dir", str(outdir)]
                if task["threads"] > 1:
                    argv += ["--threads", str(task["threads"])]
                token = tracer.task(task["name"]) if tracer else None
                wall0, cpu0 = time.perf_counter(), time.process_time()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                wall1, cpu1 = time.perf_counter(), time.process_time()
                if tracer:
                    tracer.end_task(token)
                calls.append({"name": task["name"], "code": code,
                              "wall_s": wall1 - wall0, "cpu_s": cpu1 - cpu0,
                              "digest": _digest(outdir)})
            rounds.append(calls)
            if time.perf_counter() - start >= seconds:
                break
    finally:
        if undo:
            undo()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"perispec_file": perispec.__file__, "rounds": rounds,
              "peak_rss_mb": peak_kb / 1024.0}
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer, len(rounds))
        result["workload_id"] = tracer.workload_id
        result["spans"] = [[s.id, s.parent, s.name, s.start, s.end] for s in tracer.spans]
    (workdir / "result.json").write_text(json.dumps(result))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    plan = json.loads((args.workdir / "plan.json").read_text())
    if args.mode == "setup":
        _setup(plan, args.workdir)
    else:
        _run(plan, args.workdir, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
