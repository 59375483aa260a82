#!/usr/bin/env python3
"""Scan the involutivity residual of the twistor distribution over a sweep
of perturbation strengths, against the flat-structure noise floor.

Example:
    python scripts/involutivity_scan.py --epsilons 0.02 0.05 0.1 --samples 100
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from g2twistor.fields import make_field
from g2twistor.sampling import sphere_bundle_samples
from g2twistor.twistor import blocks, flat_noise_floor, involutivity_residuals, twistor_points


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilons", type=float, nargs="+", default=[0.02, 0.05, 0.1])
    ap.add_argument("--resolution", type=int, default=16)
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--generator", default="generic-perturbed")
    ap.add_argument("--out", default=None, help="optional CSV path")
    args = ap.parse_args()

    floor = flat_noise_floor(args.resolution, n_samples=24, seed=args.seed)
    ms, xs = sphere_bundle_samples(args.samples, args.seed)
    rows = []
    print(f"noise floor (flat, N={args.resolution}): {floor:.3e}")
    print(f"{'epsilon':>8} {'max':>12} {'p95':>12} {'median':>12}")
    for eps in args.epsilons:
        field = make_field(args.generator, args.resolution, epsilon=eps)
        vals = np.array(
            [
                r
                for block in blocks(len(ms))
                for r in involutivity_residuals(field, twistor_points(field, ms[block], xs[block]))
            ]
        )
        print(
            f"{eps:8.3f} {vals.max():12.5f} {np.percentile(vals, 95):12.5f} "
            f"{np.median(vals):12.5f}"
        )
        for (m, x), v in zip(zip(ms, xs), vals):
            rows.append(list(m) + list(x) + [eps, v])
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"m{i+1}" for i in range(7)] + [f"x{i+1}" for i in range(7)] + ["epsilon", "involutivity"])
            w.writerows(rows)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
