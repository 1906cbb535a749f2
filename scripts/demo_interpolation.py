#!/usr/bin/env python3
"""End-to-end demo: interpolate random boundary data and print the certificate.

Builds a seeded problem on the unit circle, runs the certified pipeline,
audits the result, and prints a small table of values on the boundary set.

Usage:
  python3 scripts/demo_interpolation.py
  python3 scripts/demo_interpolation.py --points 8 --eta 0.001 --seed 3
"""

import argparse
import math
import time

import numpy as np

from diskinterp import (
    BoundaryData,
    eval_on_circle,
    iterative_interpolant,
    verify_interpolant,
)


def build_problem(n_points: int, seed: int) -> BoundaryData:
    rng = np.random.default_rng(seed)
    thetas = np.sort(rng.uniform(0.0, 2.0 * math.pi, n_points))
    vals = rng.normal(size=n_points) + 1j * rng.normal(size=n_points)
    vals = vals / np.max(np.abs(vals))
    return BoundaryData.from_pairs(thetas, vals)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=6)
    ap.add_argument("--eta", type=float, default=0.01)
    ap.add_argument("--n-max", type=int, default=20)
    ap.add_argument("--grid-size", type=int, default=1 << 16,
                    help="boundary grid of the audit")
    ap.add_argument("--safety-margin", type=float, default=1e-9)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    data = build_problem(args.points, args.seed)
    print(f"problem: {len(data.set)} boundary points, sup norm {data.sup_norm:.6f}")

    t0 = time.perf_counter()
    g = iterative_interpolant(
        data, args.eta, args.n_max, args.grid_size, args.safety_margin
    )
    build_s = time.perf_counter() - t0
    cert = g.certificate
    print(f"built {len(g.stages)} stages in {build_s:.2f}s")
    print(f"  stage powers:       {[s.power for s in g.stages]}")
    print(f"  boundary sup bound: {cert.boundary_sup_bound:.12f} "
          f"(budget {cert.sup_norm_input + cert.eta:.12f})")
    print(f"  residual on E:      {cert.measured_max_residual_on_E:.3e} "
          f"(bound {cert.residual_bound_theoretical:.3e})")

    t0 = time.perf_counter()
    rep = verify_interpolant(g, data, grid_size=args.grid_size, seed=args.seed)
    print(f"audit: overall={'PASS' if rep.overall else 'FAIL'} "
          f"({len(rep.checks)} checks, {time.perf_counter() - t0:.2f}s)")

    print("\n    theta        target                 achieved")
    vals = eval_on_circle(g, data.set.thetas())
    for p, target, got in zip(data.set.points, data.values, np.atleast_1d(vals)):
        print(f"  {p.theta:8.5f}  {target.real:+.6f}{target.imag:+.6f}i  "
              f"{got.real:+.6f}{got.imag:+.6f}i")


if __name__ == "__main__":
    main()
