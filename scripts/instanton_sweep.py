#!/usr/bin/env python3
"""Sweep a mixing weight from a 14-part toward a 7-part constant curvature
and report the curvature-type residual next to the CR residual of the
pulled-back connection.

Example:
    python scripts/instanton_sweep.py --steps 6 --samples 50
"""

import argparse
import sys

import numpy as np

from g2twistor.fields import make_field
from g2twistor.instanton import cr_holomorphicity_residuals, is_g2_instanton, make_connection
from g2twistor.pointwise import standard_g2_point
from g2twistor.sampling import sphere_bundle_samples, torus_points
from g2twistor.twistor import twistor_points


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=6)
    ap.add_argument("--samples", type=int, default=50)
    ap.add_argument("--index", type=int, default=3, help="14-part basis column")
    ap.add_argument("--vector", type=int, default=0, help="7-part direction")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    field = make_field("flat", 16)
    std = standard_g2_point()
    ms, xs = sphere_bundle_samples(args.samples, args.seed)
    base_pts = torus_points(5, args.seed)
    tps = twistor_points(field, ms, xs)  # the field is fixed, so the frames serve every mix

    print(f"{'mix':>6} {'f7-residual':>14} {'max CR residual':>16} {'min CR residual':>16}")
    for s in np.linspace(0.0, 1.0, args.steps):
        conn = make_connection("mixed", std, index=args.index, vector=args.vector, mix=float(s))
        _, f7 = is_g2_instanton(field, conn, base_pts)
        vals = cr_holomorphicity_residuals(tps, np.array([conn.curvature(m, field.h) for m in tps.m]))
        print(f"{s:6.2f} {f7:14.6f} {max(vals):16.6f} {min(vals):16.6f}")
    print(
        "\nnote: the CR residual of the pure 14-part connection is nonzero at"
        "\ngeneric fiber directions; see docs/DECISIONS.md for the analysis."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
