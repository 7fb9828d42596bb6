"""Repeat ``run.py`` over seeds and report each metric's spread.

    python3 bench/spread.py --workloads threshold_kpp_1d sweep_2d \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--seconds 35] [--trace 0|1]

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the quartile distance as a share
of the median, next to the bound in ``BENCHMARK.json``.  With ``--trace 1``
it also says whether each count repeated exactly across the runs, or only
between runs of the same seed (list a seed twice to see it).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
COUNT_MARKERS = ("_calls", "_evals", "_steps", "_iterations", "_periods",
                 ".gflop", "_builds", "_maps", "_written", ".solves", ".orbits")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(out)
            ok &= out["correct"]
            print(f"{workload} seed {seed}: correct={out['correct']} "
                  f"failed {out['failed']}/{out['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in out["metrics"].items()
                             if not args.trace or k.endswith("_s")), flush=True)
        print(f"\n{workload}: {len(runs)} runs, failed share "
              f"{sorted({r['failed'] / r['attempted'] for r in runs})}")
        print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/median':>10s} {'bound':>6s}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else 0.0
            note = ""
            if args.trace and any(name.endswith(m) for m in COUNT_MARKERS):
                by_seed = {}
                for seed, v in zip(args.seeds, values):
                    by_seed.setdefault(seed, set()).add(v)
                if len(set(values)) == 1:
                    note = "repeats"
                elif all(len(v) == 1 for v in by_seed.values()):
                    note = "repeats per seed"
                else:
                    note = "VARIES"
            bound = bounds.get(name)
            print(f"  {name:36s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:10.2%} "
                  f"{'' if bound is None else f'{bound:.2f}':>6s} {note}")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
