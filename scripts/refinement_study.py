"""Refinement study for the weighted threshold.

Doubles the node count across several levels and prints the drift of
lambda_p and the observed order between consecutive levels (midpoint
quadrature puts it near 2).  Each root takes its step counts from the
time-bar ladder, so the drift shows the grid error alone.
"""
import argparse
import math

from perispec.geometry import Boundary
from perispec.operator import Problem
from perispec.weighted_solver import solve_lambda_p
from perispec.weights import closed_form

DEFAULT_WEIGHT = "cos(2*pi*x) - 0.2 + sin(2*pi*t/T)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--boundary", choices=[b.value for b in Boundary],
                    default="dirichlet")
    ap.add_argument("--weight", default=DEFAULT_WEIGHT)
    ap.add_argument("--period", type=float, default=1.0)
    ap.add_argument("--radius", type=float, default=1.0)
    ap.add_argument("--n0", type=int, default=8, help="coarsest node count")
    ap.add_argument("--levels", type=int, default=4)
    args = ap.parse_args(argv)

    problem = Problem(Boundary(args.boundary), (1.0,), "parabolic", args.radius,
                      closed_form(args.weight, args.period))

    values = []
    print(f"{'n':>6s} {'lambda_p':>16s} {'drift':>12s} {'order':>7s}")
    for level in range(args.levels):
        n = args.n0 * 2 ** level
        op, weight = problem.at(n)
        res = solve_lambda_p(op, weight)
        if res.status != "unique_root":
            print(f"{n:6d}  status={res.status}; stopping")
            return 1
        values.append(res.lambda_p)
        drift = ""
        order = ""
        if level >= 1:
            d = abs(values[-1] - values[-2])
            drift = f"{d:12.3e}"
            if level >= 2:
                d_prev = abs(values[-2] - values[-3])
                if d > 0:
                    order = f"{math.log2(d_prev / d):7.2f}"
        print(f"{n:6d} {values[-1]:16.10f} {drift:>12s} {order:>7s}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
