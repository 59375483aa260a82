"""Discrete structure fields on the periodic 7-torus.

A structure field assigns a 3-form (hence a metric) to every point of
[0,1)^7 through a closed-form 1-periodic generator; nothing is ever
stored on a grid.  Derivatives are central differences with step h = 1/N
for a virtual N^7 grid; evaluation points need not lie on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf
from numbers import Integral

import numpy as np

from .forms import KForm, _sum_terms, _wedge1_groups, wedge
from .pointwise import G2Point, RHO_STD_TERMS, induced_metrics, structure_stacks

AXES = np.eye(7)


# ---------------------------------------------------------------------------
# generator families
#
# Every generator is a plane wave: rho(p) = profile(2 pi f.p) for its
# frequency f (the flat structure is the zero-frequency wave).  `coeffs`
# maps stacked points (..., 7) to coefficients (..., 35); calling a
# generator at one point wraps the same formula in a KForm.


def _constant(form):
    form.coeffs.setflags(write=False)
    return form.coeffs


RHO_STD = _constant(KForm.from_terms(7, RHO_STD_TERMS))
KAPPA3 = _constant(KForm.from_terms(7, {(1, 3, 5): 1.0, (2, 4, 6): 1.0}))


@lru_cache(maxsize=None)
def _closed_direction(frequency):
    """sum_i f_i e^i ^ kappa for kappa = e^13 + e^25 (0-based)."""
    kappa = KForm.from_terms(7, {(1, 3): 1.0, (2, 5): 1.0})
    return _constant(wedge(KForm(7, 1, frequency), kappa))


def _phase(frequency, P):
    """2 pi f.p per point, summed axis by axis so each row is independent of the batch."""
    f = np.asarray(frequency, dtype=float)
    return 2.0 * np.pi * (np.asarray(P, dtype=float) * f).sum(axis=-1)


class _Generator:
    frequency = (0,) * 7

    def __call__(self, p):
        return KForm(7, 3, self.coeffs(np.asarray(p, dtype=float)))

    def coeffs(self, P):
        return self.profile(_phase(self.frequency, P))


@dataclass(frozen=True)
class FlatGenerator(_Generator):
    """Constant canonical structure."""

    def profile(self, theta):
        return np.zeros(np.shape(theta) + (35,)) + RHO_STD


@dataclass(frozen=True)
class ClosedPerturbedGenerator(_Generator):
    """rho_std + epsilon * d(beta) for beta = cos(2 pi f.p)/(2 pi |f|) * kappa.

    The perturbation is exact, so d(rho) = 0 identically while d(*rho)
    is generically nonzero.
    """

    epsilon: float
    frequency: tuple = (1, 0, 0, 0, 0, 0, 0)

    def profile(self, theta):
        scale = -self.epsilon * np.sin(theta) / max(np.linalg.norm(self.frequency), 1e-12)
        return RHO_STD + scale[..., None] * _closed_direction(tuple(self.frequency))


@dataclass(frozen=True)
class GenericPerturbedGenerator(_Generator):
    """rho_std + epsilon * sin(2 pi f.p) * kappa3 with non-closed kappa3 term."""

    epsilon: float
    frequency: tuple = (1, 0, 0, 0, 0, 0, 0)

    def profile(self, theta):
        return RHO_STD + (self.epsilon * np.sin(theta))[..., None] * KAPPA3


@dataclass(frozen=True)
class ConformalGenerator(_Generator):
    """rho(p) = exp(3 a sin(2 pi f.p)) rho_std, inducing g = exp(2 a sin) id.

    The metric, Christoffel symbols and d(rho) are known in closed form,
    which makes this the calibration family for every finite-difference
    operator.
    """

    amplitude: float
    frequency: tuple = (1, 0, 0, 0, 0, 0, 0)

    def _f(self, p):
        return self.amplitude * np.sin(_phase(self.frequency, p))

    def _df(self, p):
        fr = np.asarray(self.frequency, dtype=float)
        return 2.0 * np.pi * self.amplitude * np.cos(_phase(fr, p)) * fr

    def profile(self, theta):
        # a huge amplitude overflows exp; induced_metrics reports the
        # non-finite coefficients as a degenerate form
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(3.0 * (self.amplitude * np.sin(theta)))[..., None] * RHO_STD

    def exact_metric(self, p):
        return np.exp(2.0 * self._f(p)) * np.eye(7)

    def exact_christoffel(self, p):
        """Gamma^k_ij = d_i f delta^k_j + d_j f delta^k_i - d^k f delta_ij."""
        df = self._df(p)
        G = np.zeros((7, 7, 7))
        for k in range(7):
            G[k, k, :] += df
            G[k, :, k] += df
            G[k, :, :] -= df[k] * np.eye(7)
        return G

    def exact_drho(self, p):
        scale = float(np.exp(3.0 * self._f(p)))
        return wedge(KForm(7, 1, 3.0 * scale * self._df(p)), KForm(7, 3, RHO_STD))


GENERATORS = {
    "flat": lambda eps, freq: FlatGenerator(),
    "closed-perturbed": lambda eps, freq: ClosedPerturbedGenerator(eps, tuple(freq)),
    "generic-perturbed": lambda eps, freq: GenericPerturbedGenerator(eps, tuple(freq)),
    "conformal": lambda eps, freq: ConformalGenerator(eps, tuple(freq)),
}


class UnknownGeneratorError(ValueError):
    pass


def make_field(family, resolution, epsilon=0.0, frequency=(1, 0, 0, 0, 0, 0, 0)):
    try:
        gen = GENERATORS[family](epsilon, frequency)
    except KeyError:
        raise UnknownGeneratorError(
            f"unknown generator family {family!r}; choose from {sorted(GENERATORS)}"
        ) from None
    return StructureField(generator=gen, resolution=resolution)


# ---------------------------------------------------------------------------
# the field


@dataclass(frozen=True, eq=False)
class StructureField:
    """Grid-free almost-G2 structure: p -> rho(p), 1-periodic per axis."""

    generator: object
    resolution: int

    def __post_init__(self):
        n = self.resolution
        if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
            raise ValueError(f"resolution must be a positive integer, got {n!r}")

    @property
    def h(self):
        return 1.0 / self.resolution

    def rho(self, p):
        return self.generator(np.asarray(p, dtype=float))

    def rho_coeffs(self, P):
        """3-form coefficients (N, 35) at stacked points P (N, 7): the generator's stacked formula."""
        return self.generator.coeffs(np.asarray(P, dtype=float))

    def _keyed(self, P, compute):
        """compute on the distinct 3-forms at the rows of P (N, 7), gathered to the rows: the
        profile once per distinct phase (`np.unique`), the byte key on those 3-forms only."""
        theta, at = np.unique(_phase(self.generator.frequency, P), return_inverse=True)
        return _distinct_rows(self.generator.profile(theta), compute, at)

    def metrics(self, P):
        """Induced metrics (N, 7, 7) and orientations (N,) at stacked points,
        from one induced-metric pass over the distinct 3-forms."""
        return self._keyed(P, induced_metrics)

    def point_data(self, p):
        """Unvalidated G2 point at p; `G2Point.from_rho(field.rho(p))` runs the checks."""
        return G2Point.from_rho(self.rho(np.asarray(p, dtype=float)), validate=False)

    def point_stacks(self, P):
        """Stacks (rho, g, g^-1, orientation * sqrt(det g), *rho) at the rows of P
        (N, 7): one `structure_stacks` pass over the distinct 3-forms."""
        return self._keyed(P, lambda R: (R, *structure_stacks(R)))

    def rho_and_star(self, P):
        """rho and *rho side by side (N, 70): `point_stacks`' first and last stacks, one gather."""
        return self._keyed(P, lambda R: np.concatenate([R, structure_stacks(R)[3]], axis=1))


#: samples per batch pass of a campaign scan (bounds the stacks of a pass)
BLOCK = 16


def blocks(n):
    """Consecutive slices of at most BLOCK of n samples."""
    return [slice(start, start + BLOCK) for start in range(0, n, BLOCK)]


def _distinct_rows(X, compute, at=slice(None)):
    """compute(X)[at] from one call of compute on the distinct rows of X only:
    rows compare by their bytes and reach compute rebuilt from them, read-only,
    in order of first appearance.  compute maps a stack of rows to a stack, or
    a tuple of stacks, one entry per row; each row of the result is gathered once."""
    slot = {}  # the bytes of each distinct row -> its place among them
    rows = np.array([slot.setdefault(x.tobytes(), len(slot)) for x in X], dtype=np.intp)[at]
    out = compute(np.frombuffer(b"".join(slot), dtype=X.dtype).reshape(-1, *X.shape[1:]))
    if isinstance(out, tuple):
        return tuple(stack[rows] for stack in out)
    return out[rows]


# ---------------------------------------------------------------------------
# finite-difference calculus


def central_difference(f, at, direction, h):
    """(f(*(a + h d)) - f(*(a - h d))) / 2h over the base arrays ``at``.

    ``at`` is a tuple of base arrays such as (p,) or (m, x), and
    ``direction`` holds one array per base array.  A complex direction
    u + i v gives D_u f + i D_v f.  A stacked direction such as (AXES,)
    differences along all of its rows in one call of f on stacked points.

    Stacked bases (a row axis first, as every batch caller has) take one
    call of f per part of the direction: f receives the n rows of the
    a + h d side followed by the n rows of the a - h d side, and the
    result is (v[:n] - v[n:]) / 2h.  A one-point base of shape (7,) takes
    one call per side.  The step must be positive and finite.
    """
    if not 0.0 < h < inf:
        raise ValueError(f"step must be positive and finite, got {h!r}")
    direction = np.asarray(direction)

    def diff(d):
        plus = [a + h * di for a, di in zip(at, d)]
        minus = [a - h * di for a, di in zip(at, d)]
        if np.ndim(at[0]) == 1:
            return (f(*plus) - f(*minus)) / (2.0 * h)
        n = len(plus[0])
        v = f(*(np.concatenate(side) for side in zip(plus, minus)))
        return (v[:n] - v[n:]) / (2.0 * h)

    out = diff(direction.real)
    if np.iscomplexobj(direction) and direction.imag.any():
        out = out + 1j * diff(direction.imag)
    return out


def _axis_partials(field, f, P):
    """Partials (N, 7, ...) of f at the rows of P (N, 7): one `central_difference`
    along the axes the field's phase reads, and +0.0 along the others, where
    both stencil sides have the phase of the centre (docs/CONVENTIONS.md)."""
    read = np.flatnonzero(field.generator.frequency)
    partials = central_difference(f, (P[:, None],), (AXES[read],), field.h)
    out = np.zeros((len(P), 7) + partials.shape[2:])
    out[:, read] = partials
    return out


def _d_from_partials(partials, degree):
    """Coefficients (N, C(7, k+1)) of d(a) = sum_i e^i ^ d_i a from partials (N, 7, C(7, k))."""
    ia, ib, sg = _wedge1_groups(7, degree)
    return _sum_terms(sg * partials[:, ia, ib])


def exterior_derivative(form_at, p, h):
    """Central-difference exterior derivative of a KForm-valued map."""
    p = np.asarray(p, dtype=float)
    degree = form_at(p).degree

    def coeffs(P):
        return np.array([form_at(q).coeffs for q in P])

    partials = central_difference(coeffs, (p,), (AXES,), h)
    return KForm(7, degree + 1, _d_from_partials(partials[None], degree)[0])


def _torsion_forms(field, P):
    """(d rho, d *rho) coefficients (N, 35) each at the rows of P (N, 7): the
    stencils of all rows in one `_axis_partials` pass, both sides in one
    `rho_and_star` call."""

    def both(Q):
        return field.rho_and_star(Q.reshape(-1, 7)).reshape(Q.shape[:-1] + (70,))

    partials = _axis_partials(field, both, P)
    return _d_from_partials(partials[..., :35], 3), _d_from_partials(partials[..., 35:], 4)


def torsion_residuals(field, P):
    """(|d rho|, |d *rho|) at each row of P (N, 7), coefficient norms (the
    Fernandez-Gray test); row i equals the one-row call bit for bit."""
    P = np.asarray(P, dtype=float).reshape(-1, 7)
    d_rho, d_star = _torsion_forms(field, P)
    return [(float(np.linalg.norm(a)), float(np.linalg.norm(b))) for a, b in zip(d_rho, d_star)]


def torsion_residual(field, p):
    """(|d rho|, |d *rho|) at p: the N = 1 view of `torsion_residuals`."""
    return torsion_residuals(field, np.asarray(p, dtype=float)[None])[0]


@lru_cache(maxsize=None)
def calibrate_integrability(resolution):
    """Threshold tau(N) from the measured truncation error on the conformal
    family, where d(rho) is known in closed form, at 20 points drawn from
    default_rng(0).  A field is declared integrable at resolution N iff both
    residuals are <= tau(N).

    The calibration amplitude, 0.01, is kept small so tau tracks the h^2
    operator noise rather than the steepness of the calibration family itself.
    """
    gen = ConformalGenerator(0.01)
    field = StructureField(generator=gen, resolution=resolution)
    P = np.random.default_rng(0).random((20, 7))
    approx = [a for b in blocks(len(P)) for a in _torsion_forms(field, P[b])[0]]
    errors = [float(np.linalg.norm(a - gen.exact_drho(p).coeffs)) for p, a in zip(P, approx)]
    return 5.0 * max(0.0, *errors, 1e-14)


def integrability_verdict(field, sample_points):
    """(integrable, max |d rho|, max |d *rho|, tau(N), rows): the Fernandez-Gray
    maxima against the calibrated threshold, and the (|d rho|, |d *rho|) row
    of each sample point, the points taken in BLOCK-row slices."""
    tau = calibrate_integrability(field.resolution)
    P = np.asarray(sample_points, dtype=float).reshape(-1, 7)
    rows = [r for b in blocks(len(P)) for r in torsion_residuals(field, P[b])]
    d_rho, d_star = (max(column) for column in zip((0.0, 0.0), *rows))
    return (d_rho <= tau and d_star <= tau), d_rho, d_star, tau, rows


# ---------------------------------------------------------------------------
# Levi-Civita connection and curvature


def christoffels(field, P):
    """Christoffel symbols (N, 7, 7, 7), metrics (N, 7, 7) and their inverses at
    the rows of P (N, 7), from one `metrics` call on both stencil sides and the centres."""
    P = np.asarray(P, dtype=float)
    centre = []

    def metrics(Q):  # the stencil rows, then the centres
        g = field.metrics(np.concatenate([Q.reshape(-1, 7), P]))[0]
        centre.append(g[len(g) - len(P) :])
        return g[: len(g) - len(P)].reshape(Q.shape + (7,))

    dg = _axis_partials(field, metrics, P)  # dg[n, k] = d_k g
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij): g^-1 times the (l, ij) view, halved in place
    terms = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    ginv = np.linalg.inv(centre[0])
    gamma = 0.5 * (ginv @ terms.reshape(-1, 49, 7).transpose(0, 2, 1))
    return gamma.reshape(-1, 7, 7, 7), centre[0], ginv


def christoffel(field, p):
    """Christoffel symbols Gamma[k, i, j] at p: the N = 1 view of `christoffels`."""
    return christoffels(field, np.asarray(p, dtype=float)[None])[0][0]


def riemanns(field, P, gamma, g):
    """Lowered curvature (N, 7, 7, 7, 7) at the rows of P from their centre gamma
    and metrics g: one `christoffels` call on both stencil sides of the axis neighbours."""

    def gammas(Q):
        return christoffels(field, Q.reshape(-1, 7))[0].reshape(Q.shape[:-1] + (7, 7, 7))

    dgamma = _axis_partials(field, gammas, P)  # dgamma[n, i] = d_i Gamma
    # R^k_{l i j} = d_i G^k_jl - d_j G^k_il + G^k_im G^m_jl - G^k_jm G^m_il
    mixed = (
        np.einsum("nikjl->nklij", dgamma)
        - np.einsum("njkil->nklij", dgamma)
        + np.einsum("nkim,nmjl->nklij", gamma, gamma)
        - np.einsum("nkjm,nmil->nklij", gamma, gamma)
    )
    low = np.einsum("nkm,nmlij->nijkl", g, mixed)
    return (low - np.einsum("nijlk->nijkl", low)) / 2.0


def levi_civita(field, p):
    """(gamma, g, riemann) at p: gamma[k, i, j] = Gamma^k_ij and the metric
    from one `christoffels` pass (stencil and centre metrics together), and
    riemann[i, j, k, l] = g(e_k, R(e_i, e_j) e_l) from `riemanns` on them."""
    P = np.asarray(p, dtype=float)[None]
    gamma, g, _ = christoffels(field, P)
    return gamma[0], g[0], riemanns(field, P, gamma, g)[0]


def curvature_g2_check(field, p):
    """Norm of the curvature components outside the 14 x 14 block.

    The lowered curvature is read as an element of Lambda^2 x Lambda^2;
    both factors are projected with the point's 2-form projectors and the
    norm uses the metric-induced inner product on each factor.
    """
    riemann = levi_civita(field, p)[2]
    point = field.point_data(p)
    i, j = np.triu_indices(7, 1)  # the increasing pairs, lexicographic
    M = riemann[i[:, None], j[:, None], i, j]
    _, P14 = point.lambda2_projectors
    D = M - P14 @ M @ P14.T
    G2 = point.metric.gram(2)
    val = np.einsum("IJ,IK,JL,KL->", D, G2, G2, D)
    return float(np.sqrt(max(val, 0.0)))


def fit_convergence_order(hs, errors):
    """Least-squares slope of log(error) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    errors = np.maximum(np.asarray(errors, dtype=float), 1e-300)
    slope, _ = np.polyfit(np.log(hs), np.log(errors), 1)
    return float(slope)
