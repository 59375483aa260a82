#!/usr/bin/env python3
"""Convergence study of the finite-difference operators on the conformal
family, where the metric, Christoffel symbols and exterior derivative are
known in closed form.

Example:
    python scripts/convergence_study.py --resolutions 8 16 32
"""

import argparse
import sys

import numpy as np

from g2twistor.fields import (
    ConformalGenerator,
    StructureField,
    christoffel,
    exterior_derivative,
    fit_convergence_order,
)
from g2twistor.sampling import sphere_bundle_samples, torus_points
from g2twistor.twistor import (
    canonical_form_horizontal_residual,
    cartan_identity_residual,
    twistor_point,
    twistor_points,
    xi_factorization_residual,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--resolutions", type=int, nargs="+", default=[8, 16, 32])
    ap.add_argument("--amplitude", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    gen = ConformalGenerator(args.amplitude)
    pts = torus_points(4, args.seed)
    ms, xs = sphere_bundle_samples(2, args.seed)
    hs = [1.0 / n for n in args.resolutions]

    studies = {}

    def measure(name, fn):
        errs = []
        for n in args.resolutions:
            field = StructureField(generator=gen, resolution=n)
            errs.append(fn(field))
        studies[name] = errs

    measure(
        "d(rho) truncation",
        lambda f: max(
            (exterior_derivative(f.rho, p, f.h) - gen.exact_drho(p)).coefficient_norm
            for p in pts
        ),
    )
    measure(
        "christoffel truncation",
        lambda f: max(
            np.abs(christoffel(f, p) - gen.exact_christoffel(p)).max() for p in pts
        ),
    )
    measure(
        "canonical-form on horizontal frames (k=3)",
        lambda f: canonical_form_horizontal_residual(f, 3, n_samples=10, seed=args.seed),
    )
    measure(
        "canonical-form factorization two-path",
        lambda f: xi_factorization_residual(
            f, twistor_points(f, ms[:1], xs[:1]), max_combos=6
        ),
    )
    measure(
        "bracket identity for the volume form",
        lambda f: cartan_identity_residual(f, twistor_point(f, ms[0], xs[0])),
    )

    width = max(len(k) for k in studies)
    header = " ".join(f"N={n:>6d}" for n in args.resolutions)
    print(f"{'study':<{width}} {header}   order")
    for name, errs in studies.items():
        vals = " ".join(f"{e:8.1e}" for e in errs)
        order = fit_convergence_order(hs, errs)
        note = "(rounding floor)" if max(errs) < 1e-12 else f"{order:6.2f}"
        print(f"{name:<{width}} {vals}   {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
