"""Deterministic low-discrepancy sampling of the torus and the sphere bundle.

Every campaign draws its sample set once, up front, from a seeded scrambled
Halton sequence and then evaluates the fixed array in order on one thread,
so reported numbers depend only on the config and the seed.  The sampler
needs only numpy: Owen's randomized Halton algorithm (arXiv:1706.02808) and
Moshier's Cephes `ndtri` give the bits of scipy's scrambled `qmc.Halton`
(``seed=``) and `special.ndtri`, as `tests/test_sampling.py` pins.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = 1e-12
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)

# Cephes ndtri in y - 1/2 (central) and 1/sqrt(-2 log y) (tail); _Q* lead with p1evl's 1
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_EXP_M2 = 0.13533528323661269189  # e^-2, where the tail branch starts
_SQRT_2PI = 2.50662827463100050242


def ndtri(y):
    """Inverse standard-normal CDF on [_EPS, 1 - _EPS]: the Cephes branches for y > e^-32.

    `np.polyval` is Cephes' Horner rule, one IEEE multiply and add per step; the
    logarithms are scalar `math.log`, as numpy's SIMD log may differ in the last bit.
    """
    y = np.asarray(y, dtype=float)
    upper = y > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y, y)
    centre = y > _EXP_M2
    out = np.empty_like(y)
    c = y[centre] - 0.5
    c2 = c * c
    out[centre] = (c + c * (c2 * np.polyval(_P0, c2) / np.polyval(_Q0, c2))) * _SQRT_2PI
    x = np.sqrt(np.array([-2.0 * math.log(t) for t in y[~centre].tolist()]))
    z = 1.0 / x
    x0 = x - np.array([math.log(t) for t in x.tolist()]) / x
    x = x0 - z * np.polyval(_P1, z) / np.polyval(_Q1, z)
    out[~centre] = np.where(upper[~centre], x, -x)
    return out


def _halton(d, n, seed):
    """Owen's scrambled Halton points (n, d), summed as scipy's `qmc.Halton` sums them."""
    rng = np.random.default_rng(seed)
    bases = _PRIMES[:d]
    # table[j, i, k]: the term of digit k in place j of base i, zero past the last place
    table = np.zeros((53, d, bases[-1]))
    for i, b in enumerate(bases):
        depth = math.ceil(54 / math.log2(b)) - 1
        # row by row in order: the same draws as one `rng.shuffle` per row
        perms = rng.permuted(np.repeat(np.arange(b)[None], depth, axis=0), axis=1)
        scale = np.divide.accumulate(np.r_[1.0, np.full(depth, b)])[1:]  # 1/b, 1/b/b, ...
        table[:depth, i, :b] = perms * scale[:, None]
    B = np.array(bases)[:, None]
    rows = np.arange(d)[:, None] * bases[-1]
    k, v = np.broadcast_to(np.arange(n), (d, n)), np.zeros((d, n))
    for term in table:  # lowest place first; once k is spent every digit is 0
        k, digit = np.divmod(k, B) if k.any() else (k, 0)
        v += term.ravel()[rows + digit]
    return v.T


def torus_points(n, seed):
    """n low-discrepancy points in [0,1)^7."""
    return _halton(7, n, seed)


def sphere_bundle_samples(n, seed):
    """(base points, raw fiber vectors) for n sphere-bundle samples.

    Fiber vectors are standard-normal via inverse CDF of the sequence and
    are normalized later against the metric at each base point.  Both
    arrays are C-ordered.
    """
    u = np.ascontiguousarray(_halton(14, n, seed))
    return u[:, :7].copy(), ndtri(np.clip(u[:, 7:], _EPS, 1.0 - _EPS))
