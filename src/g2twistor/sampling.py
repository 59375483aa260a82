"""Deterministic low-discrepancy sampling of the torus and the sphere bundle.

Every campaign draws its sample set once, up front, from a seeded scrambled
Halton sequence and then evaluates the fixed array in order on one thread,
so reported numbers depend only on the config and the seed.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

_EPS = 1e-12


def torus_points(n, seed):
    """n low-discrepancy points in [0,1)^7."""
    return qmc.Halton(d=7, scramble=True, seed=seed).random(n)


def sphere_bundle_samples(n, seed):
    """(base points, raw fiber vectors) for n sphere-bundle samples.

    Fiber vectors are standard-normal via inverse CDF of the sequence and
    are normalized later against the metric at each base point.
    """
    u = qmc.Halton(d=14, scramble=True, seed=seed).random(n)
    m = u[:, :7]
    x = ndtri(np.clip(u[:, 7:], _EPS, 1.0 - _EPS))
    return m, x
