"""Discrete structure fields on the periodic 7-torus.

A structure field assigns a 3-form (hence a metric) to every point of
[0,1)^7 through a closed-form 1-periodic generator; nothing is ever
stored on a grid.  Derivatives are central differences with step h = 1/N
for a virtual N^7 grid; evaluation points need not lie on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from math import comb, inf

import numpy as np

from .forms import KForm, MetricTensor, _wedge_table, wedge
from .pointwise import G2Point, RHO_STD_TERMS, induced_metrics, rho_star_coeffs

AXES = np.eye(7)


# ---------------------------------------------------------------------------
# generator families
#
# Each family computes its coefficients for stacked points, (..., 7) ->
# (..., 35); calling a generator at one point wraps the same formula in a
# KForm.  The constant forms are built once, on first use.


def _frozen(form):
    form.coeffs.setflags(write=False)
    return form.coeffs


@lru_cache(maxsize=None)
def _rho_std():
    return _frozen(KForm.from_terms(7, RHO_STD_TERMS))


@lru_cache(maxsize=None)
def _kappa3():
    return _frozen(KForm.from_terms(7, {(1, 3, 5): 1.0, (2, 4, 6): 1.0}))


@lru_cache(maxsize=None)
def _closed_direction(frequency):
    """sum_i f_i e^i ^ kappa for kappa = e^13 + e^25 (0-based)."""
    kappa = KForm.from_terms(7, {(1, 3): 1.0, (2, 5): 1.0})
    out = KForm.zero(7, 3)
    for i, f in enumerate(frequency):
        if f != 0:
            out = out + float(f) * wedge(KForm.basis(7, (i,)), kappa)
    return _frozen(out)


def _phase(frequency, P):
    """2 pi f.p per point, summed axis by axis so each row is independent of the batch."""
    f = np.asarray(frequency, dtype=float)
    return 2.0 * np.pi * (np.asarray(P, dtype=float) * f).sum(axis=-1)


class _Generator:
    def __call__(self, p):
        return KForm(7, 3, self.coeffs(np.asarray(p, dtype=float)))


@dataclass(frozen=True)
class FlatGenerator(_Generator):
    """Constant canonical structure."""

    name = "flat"

    def coeffs(self, P):
        return np.zeros(np.shape(P)[:-1] + (35,)) + _rho_std()

    def params(self):
        return {}


@dataclass(frozen=True)
class ClosedPerturbedGenerator(_Generator):
    """rho_std + epsilon * d(beta) for beta = cos(2 pi f.p)/(2 pi |f|) * kappa.

    The perturbation is exact, so d(rho) = 0 identically while d(*rho)
    is generically nonzero.
    """

    epsilon: float
    frequency: tuple = (1, 0, 0, 0, 0, 0, 0)
    name = "closed-perturbed"

    def coeffs(self, P):
        f = np.asarray(self.frequency, dtype=float)
        scale = -self.epsilon * np.sin(_phase(f, P)) / max(np.linalg.norm(f), 1e-12)
        return _rho_std() + scale[..., None] * _closed_direction(tuple(self.frequency))

    def params(self):
        return {"epsilon": self.epsilon, "frequency": list(self.frequency)}


@dataclass(frozen=True)
class GenericPerturbedGenerator(_Generator):
    """rho_std + epsilon * sin(2 pi f.p) * kappa3 with non-closed kappa3 term."""

    epsilon: float
    frequency: tuple = (1, 0, 0, 0, 0, 0, 0)
    name = "generic-perturbed"

    def coeffs(self, P):
        c = self.epsilon * np.sin(_phase(self.frequency, P))
        return _rho_std() + c[..., None] * _kappa3()

    def params(self):
        return {"epsilon": self.epsilon, "frequency": list(self.frequency)}


@dataclass(frozen=True)
class ConformalGenerator(_Generator):
    """rho(p) = exp(3 a sin(2 pi f.p)) rho_std, inducing g = exp(2 a sin) id.

    The metric, Christoffel symbols and d(rho) are known in closed form,
    which makes this the calibration family for every finite-difference
    operator.
    """

    amplitude: float
    frequency: tuple = (1, 0, 0, 0, 0, 0, 0)
    name = "conformal"

    def _f(self, p):
        return self.amplitude * np.sin(_phase(self.frequency, p))

    def _df(self, p):
        fr = np.asarray(self.frequency, dtype=float)
        return 2.0 * np.pi * self.amplitude * np.cos(_phase(fr, p)) * fr

    def coeffs(self, P):
        # a huge amplitude overflows exp; induced_metrics reports the
        # non-finite coefficients as a degenerate form
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(3.0 * self._f(P))[..., None] * _rho_std()

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
        df = self._df(p)
        rho = KForm(7, 3, _rho_std())
        out = KForm.zero(7, 4)
        for i in range(7):
            if df[i] != 0.0:
                out = out + (3.0 * scale * df[i]) * wedge(KForm.basis(7, (i,)), rho)
        return out

    def params(self):
        return {"epsilon": self.amplitude, "frequency": list(self.frequency)}


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


@dataclass(eq=False)
class StructureField:
    """Grid-free almost-G2 structure: p -> rho(p), 1-periodic per axis."""

    generator: object
    resolution: int
    _cache: dict = dc_field(default_factory=dict, repr=False)
    _gamma_cache: dict = dc_field(default_factory=dict, repr=False)

    @property
    def h(self):
        return 1.0 / self.resolution

    def rho(self, p):
        return self.generator(np.asarray(p, dtype=float))

    def rho_coeffs(self, P):
        """3-form coefficients (N, 35) at stacked points P (N, 7).

        Uses the generator's own stacked formula when it has one; any other
        callable p -> KForm is evaluated point by point.
        """
        P = np.asarray(P, dtype=float)
        coeffs = getattr(self.generator, "coeffs", None)
        if coeffs is not None:
            return coeffs(P)
        return np.array([self.generator(q).coeffs for q in P])

    def metrics(self, P):
        """Induced metrics (N, 7, 7) and orientations (N,) at stacked points."""
        return induced_metrics(self.rho_coeffs(P))

    def star_rho_coeffs(self, P):
        """Hodge duals (N, 35) of rho at stacked points."""
        return rho_star_coeffs(self.rho_coeffs(P))

    def point_data(self, p):
        """Unvalidated G2 point at p (cached); use validate_at for the checks."""
        p = np.asarray(p, dtype=float)
        key = p.tobytes()
        pd = self._cache.get(key)
        if pd is None:
            if len(self._cache) > 8192:
                self._cache.clear()
            pd = G2Point.from_rho(self.rho(p), validate=False)
            self._cache[key] = pd
        return pd

    def metric(self, p):
        return self.point_data(p).metric

    def star_rho(self, p):
        return self.point_data(p).rho_star

    def validate_at(self, p):
        """Run the full G2 point invariants at p; raises on failure."""
        return G2Point.from_rho(self.rho(np.asarray(p, dtype=float)), validate=True)


# ---------------------------------------------------------------------------
# finite-difference calculus


def central_difference(f, at, direction, h):
    """(f(*(a + h d)) - f(*(a - h d))) / 2h over the base arrays ``at``.

    ``at`` is a tuple of base arrays such as (p,) or (m, x), and
    ``direction`` holds one array per base array.  A complex direction
    u + i v gives D_u f + i D_v f.  A stacked direction such as (AXES,)
    differences along all of its rows in one call of f on stacked points.
    The step must be positive and finite.
    """
    if not 0.0 < h < inf:
        raise ValueError(f"step must be positive and finite, got {h!r}")
    direction = np.asarray(direction)

    def diff(d):
        plus = f(*(a + h * di for a, di in zip(at, d)))
        minus = f(*(a - h * di for a, di in zip(at, d)))
        return (plus - minus) / (2.0 * h)

    out = diff(direction.real)
    if np.iscomplexobj(direction) and np.abs(direction.imag).max() > 0.0:
        out = out + 1j * diff(direction.imag)
    return out


def _d_from_partials(partials, degree):
    """Coefficients of d(a) = sum_i e^i ^ d_i a from the partials (7, C(7, k))."""
    ia, ib, io, sg = _wedge_table(7, 1, degree)
    out = np.zeros(comb(7, degree + 1))
    np.add.at(out, io, sg * partials[ia, ib])
    return out


def exterior_derivative(form_at, p, h):
    """Central-difference exterior derivative of a KForm-valued map."""
    forms = []

    def coeffs(P):
        forms[:] = [form_at(q) for q in P]
        return np.array([a.coeffs for a in forms])

    partials = central_difference(coeffs, (np.asarray(p, dtype=float),), (AXES,), h)
    degree = forms[0].degree
    return KForm(7, degree + 1, _d_from_partials(partials, degree))


def _torsion_forms(field, p, h):
    """(d rho, d *rho) coefficients at p from one batched stencil per sign."""

    def rho_and_star(P):
        R = field.rho_coeffs(P)
        return np.concatenate([R, rho_star_coeffs(R)], axis=1)

    partials = central_difference(rho_and_star, (np.asarray(p, dtype=float),), (AXES,), h)
    return _d_from_partials(partials[:, :35], 3), _d_from_partials(partials[:, 35:], 4)


def torsion_residual(field, p, h=None):
    """(|d rho|, |d *rho|) at p, coefficient norms (the Fernandez-Gray test)."""
    d_rho, d_star = _torsion_forms(field, p, field.h if h is None else h)
    return float(np.linalg.norm(d_rho)), float(np.linalg.norm(d_star))


def fernandez_gray_residual(field, sample_points, h=None):
    """(max |d rho|, max |d *rho|) over the sample set, coefficient norms."""
    max_d = 0.0
    max_ds = 0.0
    for p in sample_points:
        d_rho, d_star = torsion_residual(field, p, h)
        max_d = max(max_d, d_rho)
        max_ds = max(max_ds, d_star)
    return max_d, max_ds


def calibrate_integrability(resolution, n_points=20, seed=0, amplitude=0.01):
    """Threshold tau(N) from the measured truncation error on the conformal
    family, where d(rho) is known in closed form.  A field is declared
    integrable at resolution N iff both residuals are <= tau(N).

    The calibration amplitude is kept small so tau tracks the h^2 operator
    noise rather than the steepness of the calibration family itself.
    """
    gen = ConformalGenerator(amplitude)
    field = StructureField(generator=gen, resolution=resolution)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_points):
        p = rng.random(7)
        approx = _torsion_forms(field, p, field.h)[0]
        worst = max(worst, float(np.linalg.norm(approx - gen.exact_drho(p).coeffs)))
    return 5.0 * max(worst, 1e-14)


def integrability_verdict(field, sample_points, tau=None):
    if tau is None:
        tau = calibrate_integrability(field.resolution)
    d_rho, d_star = fernandez_gray_residual(field, sample_points)
    return (d_rho <= tau and d_star <= tau), d_rho, d_star, tau


# ---------------------------------------------------------------------------
# Levi-Civita connection and curvature


@dataclass(eq=False)
class ConnectionSample:
    """Christoffel symbols and (optionally) lowered curvature at one point.

    gamma[k, i, j] = Gamma^k_ij, symmetric in (i, j) by construction.
    riemann[i, j, k, l] = g(e_k, R(e_i, e_j) e_l), antisymmetric in both
    pairs by construction.
    """

    point: np.ndarray
    metric: MetricTensor
    gamma: np.ndarray
    riemann: np.ndarray | None = None

    def curvature_vector(self, x, y, z):
        """R(x, y) z with the index raised through the metric."""
        if self.riemann is None:
            raise ValueError("curvature was not requested at this sample")
        low = np.einsum("ijkl,i,j,l->k", self.riemann, x, y, z)
        return self.metric.inverse @ low


def christoffel(field, p, h=None):
    """Central-difference Christoffel symbols of the induced metric.

    Cached per (point, step): bracket stencils revisit the same points.
    """
    h = field.h if h is None else h
    p = np.asarray(p, dtype=float)
    key = (p.tobytes(), h)
    hit = field._gamma_cache.get(key)
    if hit is not None:
        return hit
    g = field.point_data(p).g
    dg = central_difference(lambda P: field.metrics(P)[0], (p,), (AXES,), h)  # dg[k] = d_k g
    ginv = np.linalg.inv(g)
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    term = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    gamma = 0.5 * np.einsum("kl,ijl->kij", ginv, term)
    if len(field._gamma_cache) > 4096:
        field._gamma_cache.clear()
    field._gamma_cache[key] = gamma
    return gamma


def levi_civita(field, p, h=None, include_curvature=True):
    """Connection sample at p; curvature needs Christoffels on a stencil."""
    h = field.h if h is None else h
    p = np.asarray(p, dtype=float)
    gamma = christoffel(field, p, h)
    metric = field.metric(p)
    if not include_curvature:
        return ConnectionSample(point=p, metric=metric, gamma=gamma)
    dgamma = np.empty((7, 7, 7, 7))  # dgamma[i] = d_i Gamma
    for i in range(7):
        dgamma[i] = central_difference(lambda q: christoffel(field, q, h), (p,), (AXES[i],), h)
    # R^k_{l i j} = d_i G^k_jl - d_j G^k_il + G^k_im G^m_jl - G^k_jm G^m_il
    mixed = (
        np.einsum("ikjl->klij", dgamma)
        - np.einsum("jkil->klij", dgamma)
        + np.einsum("kim,mjl->klij", gamma, gamma)
        - np.einsum("kjm,mil->klij", gamma, gamma)
    )
    low = np.einsum("km,mlij->ijkl", metric.entries, mixed)
    low = (low - np.einsum("ijlk->ijkl", low)) / 2.0
    return ConnectionSample(point=p, metric=metric, gamma=gamma, riemann=low)


def curvature_g2_check(field, p, h=None):
    """Norm of the curvature components outside the 14 x 14 block.

    The lowered curvature is read as an element of Lambda^2 x Lambda^2;
    both factors are projected with the point's 2-form projectors and the
    norm uses the metric-induced inner product on each factor.
    """
    conn = levi_civita(field, p, h=h, include_curvature=True)
    point = field.point_data(conn.point)
    i, j = np.triu_indices(7, 1)  # the increasing pairs, lexicographic
    M = conn.riemann[i[:, None], j[:, None], i, j]
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
