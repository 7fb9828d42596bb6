"""Sweep the principal spectrum point across couplings and boundary types.

Prints mu(lambda) per boundary together with the eigenvalue verdict, and
reports the worst midpoint-convexity slack of each curve (negative slack
would contradict convexity in lambda).
"""
import argparse
import csv
import pathlib

import numpy as np

from perispec.geometry import Boundary
from perispec.operator import Problem
from perispec.spectrum import principal_spectrum_point
from perispec.weights import closed_form

DEFAULT_WEIGHT = "cos(2*pi*x) - 0.2 + sin(2*pi*t/T)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=48)
    ap.add_argument("--radius", type=float, default=1.0)
    ap.add_argument("--weight", default=DEFAULT_WEIGHT)
    ap.add_argument("--period", type=float, default=1.0)
    ap.add_argument("--lam-min", type=float, default=0.0)
    ap.add_argument("--lam-max", type=float, default=2.0)
    ap.add_argument("--count", type=int, default=11)
    ap.add_argument("--n-steps", type=int, default=256)
    ap.add_argument("--out", type=pathlib.Path, default=None,
                    help="optional CSV of the swept curves")
    args = ap.parse_args(argv)

    weight = closed_form(args.weight, args.period)
    lams = np.linspace(args.lam_min, args.lam_max, args.count)
    rows = []
    for boundary in Boundary:
        op, _ = Problem(boundary, (1.0,), "parabolic", args.radius, weight).at(args.n)
        print(f"\n{boundary.value}  (n={args.n}, steps={args.n_steps})")
        print(f"{'lam':>8s} {'mu':>14s} {'envelope_top':>13s} {'eigenvalue':>11s}")
        mus = []
        for lam in lams:
            rep = principal_spectrum_point(op, weight, float(lam),
                                           n_steps=args.n_steps)
            mus.append(rep.mu_n)
            rows.append((boundary.value, lam, rep.mu_n, rep.h_hat_max,
                         rep.is_principal_eigenvalue, rep.residual))
            print(f"{lam:8.3f} {rep.mu_n:14.8f} {rep.h_hat_max:13.8f} "
                  f"{rep.is_principal_eigenvalue:>11s}")
        if len(mus) >= 3:
            slack = min(mus[k - 1] + mus[k + 1] - 2.0 * mus[k]
                        for k in range(1, len(mus) - 1))
            print(f"convexity slack along the curve: {slack:.3e}")

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["boundary", "lam", "mu", "envelope_top",
                             "eigenvalue_verdict", "residual"])
            for boundary, lam, mu, top, verdict, resid in rows:
                writer.writerow([boundary, f"{lam:.17g}", f"{mu:.17g}",
                                 f"{top:.17g}", verdict, f"{resid:.17g}"])
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
