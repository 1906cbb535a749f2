#!/usr/bin/env python3
"""Experiment: how the contraction power grows with the accuracy target.

For a fixed two-point boundary set, sweeps the stage accuracy eps over a
log grid and records the off-arc supremum and the selected power N. Writes
a CSV (default stdout) with columns eps,rho,power.
"""

import argparse
import sys

import numpy as np

from diskinterp import BoundaryData
from diskinterp.fatou import choose_power, sup_off_arc
from diskinterp.interpolate import single_stage


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gap", type=float, default=2.0,
                    help="angular gap between the two boundary points")
    ap.add_argument("--safety-margin", type=float, default=1e-9)
    ap.add_argument("--steps", type=int, default=25)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    data = BoundaryData.from_pairs([0.0, args.gap], [0.0, 1.0])
    stage = single_stage(data, 1e-6, args.safety_margin)  # forces two clusters
    rhos = [
        sup_off_arc(lam, c.arc, args.safety_margin)
        for lam, c in zip(stage.lambdas, stage.clustering.clusters)
    ]

    lines = ["eps,rho,power"]
    for eps in np.logspace(-1, -12, args.steps):
        n = choose_power(max(rhos), float(eps) / len(rhos))
        lines.append(f"{float(eps)!r},{max(rhos)!r},{n}")
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
