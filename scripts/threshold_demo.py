"""Locate the persistence threshold and verify it against the nonlinear flow.

Solves mu(lambda) = 0 for a weighted dispersal problem, then runs the
Poincare iteration at a ladder of couplings around the root and reports
where the verdict flips from extinction to persistence.
"""
import argparse
import csv
import pathlib

from perispec.geometry import Boundary
from perispec.kpp import Nonlinearity, threshold_scan
from perispec.operator import Problem
from perispec.weighted_solver import solve_lambda_p
from perispec.weights import closed_form

DEFAULT_WEIGHT = "cos(2*pi*x) - 0.2 + sin(2*pi*t/T)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--boundary", choices=[b.value for b in Boundary],
                    default="dirichlet")
    ap.add_argument("--box", type=float, default=1.0, help="domain edge length")
    ap.add_argument("--n", type=int, default=48, help="nodes per axis")
    ap.add_argument("--radius", type=float, default=1.0, help="kernel support radius")
    ap.add_argument("--weight", default=DEFAULT_WEIGHT)
    ap.add_argument("--period", type=float, default=1.0)
    ap.add_argument("--crowding", type=float, default=1.0)
    ap.add_argument("--factors", default="0.5,0.8,1.25,1.6",
                    help="couplings to test, as multiples of the root")
    ap.add_argument("--out", type=pathlib.Path, default=None,
                    help="optional CSV of per-coupling verdicts")
    args = ap.parse_args(argv)

    boundary = Boundary(args.boundary)
    op, weight = Problem(boundary, (args.box,), "parabolic", args.radius,
                         closed_form(args.weight, args.period)).at(args.n)

    res = solve_lambda_p(op, weight)
    cond = res.condition_report
    print(f"boundary={boundary.value}  n={args.n}  weight='{args.weight}'")
    print(f"peak of averaged weight P={cond.p_value:.6f}  "
          f"space-time integral={cond.time_space_integral:.6f}")
    print(f"status: {res.status}")
    if res.status != "unique_root":
        print(f"evidence: {res.evidence}")
        return 0
    lo, hi = res.bracket
    print(f"lambda_p = {res.lambda_p:.10f}  (bracket [{lo:.6f}, {hi:.6f}], "
          f"residual {abs(res.mu_at_root):.2e})")

    factors = [float(tok) for tok in args.factors.split(",") if tok.strip()]
    lams = [f * res.lambda_p for f in factors]
    scan = threshold_scan(op, weight, Nonlinearity("logistic", args.crowding),
                          lams, solver_result=res)

    print(f"\n{'lam':>12s} {'lam/root':>9s} {'verdict':>12s} {'sup':>10s} "
          f"{'min':>10s} {'periods':>8s}")
    for orbit in scan.orbits:
        print(f"{orbit.lam:12.6f} {orbit.lam / res.lambda_p:9.3f} "
              f"{orbit.verdict:>12s} {orbit.sup_of_orbit:10.3e} "
              f"{orbit.min_of_orbit:10.3e} {orbit.periods_used:8d}")
    if scan.switch_bracket is not None:
        a, b = scan.switch_bracket
        inside = "contains" if scan.consistent_with_root else "misses"
        print(f"\nverdict flips in [{a:.6f}, {b:.6f}]; the bracket {inside} "
              f"the linear root (monotone={scan.monotone})")

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lam", "factor", "verdict", "sup_of_orbit",
                             "min_of_orbit", "periods_used", "residual"])
            for orbit, f in zip(scan.orbits, sorted(factors)):
                writer.writerow([f"{orbit.lam:.17g}", f"{f:.17g}", orbit.verdict,
                                 f"{orbit.sup_of_orbit:.17g}",
                                 f"{orbit.min_of_orbit:.17g}",
                                 orbit.periods_used, f"{orbit.residual:.17g}"])
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
