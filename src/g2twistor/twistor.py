"""The CR twistor space of a structure field: the unit sphere bundle with
its horizontal/vertical splitting, the six-dimensional distribution B with
its complex structure, numerical Frobenius brackets, the tautological forms
on form bundles, and the involutivity residuals.

Tangent vectors of the sphere bundle are stored as arrays of shape (2, 7):
row 0 is the base component in torus coordinates, row 1 the fiber component
in the ambient fiber chart.  The vertical part of a vector is its fiber
component minus the horizontal-lift fiber of its base component; residual
norms use the product metric (g on the base, g restricted to the fiber).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .fields import central_difference, christoffel, levi_civita, make_field
from .forms import KForm, contract, derivation_apply
from .pointwise import su3_structure
from .sampling import sphere_bundle_samples

SQ2 = np.sqrt(2.0)


class TwistorError(ValueError):
    pass


def _hor_fiber(gamma, y, b):
    """Fiber component of the horizontal lift of base vector b at fiber y."""
    return -np.einsum("kij,i,j->k", gamma, b, y)


def _lift(gamma, y, b):
    return np.stack([b, _hor_fiber(gamma, y, b)])


@dataclass(eq=False)
class TwistorPoint:
    """A point (m, x) of the unit sphere bundle with its adapted frame.

    theta is the horizontal lift of x; the six b_lifts are horizontal lifts
    of a g-orthonormal basis of x-perp; the vert_basis spans the fiber
    tangent space (same orthonormal basis of x-perp).
    """

    field: object
    m: np.ndarray
    x: np.ndarray
    point: object  # G2Point at m
    gamma: np.ndarray
    su3: object
    theta: np.ndarray
    b_lifts: np.ndarray  # (6, 2, 7)
    vert_basis: np.ndarray  # (6, 2, 7)

    @property
    def w_basis(self):
        return self.su3.basis

    def vertical_part(self, vec):
        """Fiber component minus the horizontal-lift fiber of the base part."""
        return vec[1] - _hor_fiber(self.gamma, self.x, vec[0])

    def components(self, vec):
        """(theta, B-coords, vertical coords) of a tangent vector."""
        g = self.point.g
        b = vec[0]
        theta_c = self.x @ g @ b
        b_c = self.w_basis.T @ g @ b
        vert_c = self.w_basis.T @ g @ self.vertical_part(vec)
        return theta_c, b_c, vert_c


def twistor_point(field, m, x, gamma=None):
    """Build the adapted frame at (m, x); x is normalized against g(m)."""
    m = np.asarray(m, dtype=float)
    x = np.asarray(x, dtype=float)
    point = field.point_data(m)
    nrm = point.metric.norm(x)
    if nrm < 1e-12:
        raise TwistorError("fiber vector must be nonzero")
    x = x / nrm
    if gamma is None:
        gamma = christoffel(field, m)
    frame = su3_structure(point, x)
    W = frame.basis
    theta = _lift(gamma, x, x)
    b_lifts = np.stack([_lift(gamma, x, W[:, a]) for a in range(6)])
    vert = np.stack([np.stack([np.zeros(7), W[:, a]]) for a in range(6)])
    return TwistorPoint(
        field=field,
        m=m,
        x=x,
        point=point,
        gamma=gamma,
        su3=frame,
        theta=theta,
        b_lifts=b_lifts,
        vert_basis=vert,
    )


# ---------------------------------------------------------------------------
# CR splitting


@dataclass(eq=False)
class CrSplitting:
    """Eigenbases of the complex structure on B, written in the B frame."""

    b10: np.ndarray  # (3, 6) complex rows, orthonormal
    b01: np.ndarray  # conjugate rows

    def tangents_01(self, tp):
        return np.einsum("ra,aij->rij", self.b01, tp.b_lifts.astype(complex))

    def tangents_10(self, tp):
        return np.einsum("ra,aij->rij", self.b10, tp.b_lifts.astype(complex))


def cr_splitting(tp):
    """Eigenbasis of the fiberwise complex structure transported to B."""
    I6 = tp.su3.I
    # (1,0) candidates (v - i I v)/sqrt(2); a Hermitian Gram-Schmidt sweep
    # keeps exactly one of each conjugate-parallel pair.
    rows = []
    for a in range(6):
        c = (np.eye(6)[a] - 1j * I6[:, a]) / SQ2
        for r in rows:
            c = c - (np.conj(r) @ c) * r
        n = np.linalg.norm(c)
        if n > 0.5:
            rows.append(c / n)
    if len(rows) != 3:
        raise TwistorError("eigenbasis extraction failed")
    b10 = np.array(rows)
    return CrSplitting(b10=b10, b01=np.conj(b10))


# ---------------------------------------------------------------------------
# local extensions and Frobenius brackets


def _extension_value(field, tp, base0, vert0, p, y, carrier, projection):
    """Value at ambient (p, y) of the local field extending (base0, vert0).

    carrier:    base-component scheme before any projection --
                'transport' keeps coordinate-constant base components,
                'parallel' applies first-order Christoffel transport to them.
                Fiber components always use the honest horizontal lift at p.
    projection: 'none', 'b' (pointwise projection onto B), or 'cr01'/'cr10'
                (pointwise projection onto an eigenspace of the CR structure),
                which turn the carrier into a section of the distribution.
    """
    pd = field.point_data(p)
    g = pd.g
    yy = y @ g @ y
    b = base0.astype(complex) if np.iscomplexobj(base0) else base0
    if carrier == "parallel":
        disp = p - tp.m
        b = b - np.einsum("kij,i,j->k", tp.gamma, disp, b)
    if projection != "none":
        b = b - ((y @ g @ b) / yy) * y
        if projection in ("cr01", "cr10"):
            xhat = y / np.sqrt(yy)
            Ib = np.einsum("ijk,i,j->k", pd.cross_tensor, xhat, b)
            b = 0.5 * (b + 1j * Ib) if projection == "cr01" else 0.5 * (b - 1j * Ib)
    vt = vert0 - ((y @ g @ vert0) / yy) * y
    gamma = christoffel(field, p)
    return np.stack([b, _hor_fiber(gamma, y, b) + vt])


def frobenius_bracket(field, tp, X, Y, h=None, carrier="transport", projection="none"):
    """Numerical Lie bracket [X, Y] at tp of the locally extended fields.

    Only the class of the result modulo the extended distribution is
    contractually meaningful; with a 'cr' projection the extensions are
    honest sections of the distribution, so that class is the Frobenius
    obstruction up to O(h).
    """
    h = field.h if h is None else h
    X = np.asarray(X)
    Y = np.asarray(Y)

    def d_along(vec, V):
        """Derivative along vec of the extension of V."""
        base0, vert0 = V[0], tp.vertical_part(V)

        def ext(p, y):
            return _extension_value(field, tp, base0, vert0, p, y, carrier, projection)

        return central_difference(ext, (tp.m, tp.x), vec, h)

    return d_along(X, Y) - d_along(Y, X)


def involutivity_residual(field, tp, h=None, which="01", carrier="transport"):
    """Max norm over eigenbasis pairs of the bracket component outside the
    chosen eigenspace (theta, vertical, and opposite-type parts)."""
    h = field.h if h is None else h
    cs = cr_splitting(tp)
    tangents = cs.tangents_01(tp) if which == "01" else cs.tangents_10(tp)
    projection = "cr01" if which == "01" else "cr10"
    I6 = tp.su3.I
    worst = 0.0
    for i, j in itertools.combinations(range(3), 2):
        br = frobenius_bracket(
            field, tp, tangents[i], tangents[j], h=h, carrier=carrier, projection=projection
        )
        theta_c, b_c, vert_c = tp.components(br)
        if which == "01":
            outside = 0.5 * (b_c - 1j * (I6 @ b_c))  # the (1,0) part
        else:
            outside = 0.5 * (b_c + 1j * (I6 @ b_c))
        res = np.sqrt(
            abs(theta_c) ** 2
            + float(np.sum(np.abs(outside) ** 2))
            + float(np.sum(np.abs(vert_c) ** 2))
        )
        worst = max(worst, res)
    return worst


def vertical_curvature_obstruction(field, tp, curvature=None, h=None):
    """Max over (0,1)-pairs of |R(b, b') x|, the vertical-bracket obstruction.

    `curvature` may override the Levi-Civita curvature with a synthetic
    lowered tensor of shape (7, 7, 7, 7).
    """
    if curvature is None:
        conn = levi_civita(field, tp.m, h=h, include_curvature=True)
        riemann = conn.riemann
    else:
        riemann = curvature
    ginv = tp.point.ginv
    cs = cr_splitting(tp)
    wbar = np.einsum("ra,ia->ri", cs.b01, tp.w_basis)  # (3, 7) complex
    worst = 0.0
    for i, j in itertools.combinations(range(3), 2):
        low = np.einsum("ijkl,i,j,l->k", riemann, wbar[i], wbar[j], tp.x)
        worst = max(worst, tp.point.metric.norm(ginv @ low))
    return worst


def flat_noise_floor(resolution, n_samples=32, seed=0):
    """Measured involutivity residual on the flat structure (floored)."""
    field = make_field("flat", resolution)
    worst = 0.0
    for m, xr in zip(*sphere_bundle_samples(n_samples, seed)):
        tp = twistor_point(field, m, xr)
        worst = max(worst, involutivity_residual(field, tp))
    return max(worst, 1e-14)


# ---------------------------------------------------------------------------
# tautological forms on Tot(Lambda^k)


def theta_value(lam, tangents):
    """The canonical k-form: lam applied to the base projections."""
    bases = [np.asarray(t[0]) for t in tangents]
    if len(bases) != lam.degree:
        raise TwistorError(f"need {lam.degree} tangent vectors")
    return lam.evaluate(bases)


def xi_value(lam, tangents):
    """The canonical (k+1)-form sum_I dq_I ^ dp^I, evaluated exactly."""
    k = lam.degree
    if len(tangents) != k + 1:
        raise TwistorError(f"need {k + 1} tangent vectors")
    bases = [np.asarray(t[0], dtype=float) for t in tangents]
    fibers = [np.asarray(t[1], dtype=float) for t in tangents]
    total = 0.0
    for j in range(k + 1):
        others = bases[:j] + bases[j + 1 :]
        total += (-1.0) ** j * KForm(lam.dim, k, fibers[j]).evaluate(others)
    return total


def tautological_forms(lam, tangents):
    """(Theta on the first k tangents, Xi on all k+1)."""
    return theta_value(lam, tangents[: lam.degree]), xi_value(lam, tangents)


def form_bundle_lift(gamma, lam, b):
    """Horizontal lift of base vector b at a point lam of Tot(Lambda^k):
    the fiber velocity of parallel transport."""
    gamma_b = np.einsum("kij,i->kj", gamma, np.asarray(b, dtype=float))
    return np.asarray(b, dtype=float), derivation_apply(lam, gamma_b).coeffs


def canonical_form_horizontal_residual(field, k, n_samples=20, seed=0, h=None):
    """Max |Xi| on horizontal (k+1)-frames of Tot(Lambda^k) over random
    samples; vanishes for torsion-free connections up to the h^2 noise of
    the differenced Christoffel symbols."""
    if k not in (1, 3):
        raise TwistorError("only degrees 1 and 3 are exercised")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        m = rng.random(7)
        lam = KForm(7, k, rng.standard_normal(len(KForm.zero(7, k).coeffs)))
        gamma = christoffel(field, m, h=h)
        tangents = [form_bundle_lift(gamma, lam, rng.standard_normal(7)) for _ in range(k + 1)]
        worst = max(worst, abs(xi_value(lam, tangents)))
    return worst


# ---------------------------------------------------------------------------
# the holomorphic volume form on the horizontal bundle


def _omega_eval(field, p, y, vectors):
    """Omega = pullback(rho) - i (pullback(*rho) . theta) on ambient tangents."""
    pd = field.point_data(p)
    bs = [np.asarray(v[0]) for v in vectors]
    re = np.einsum("ijk,i,j,k->", pd.rho_dense, *bs)
    im = -np.einsum("ijkl,i,j,k,l->", pd.rho_star_dense, y, *bs)
    return re + 1j * im


def _imag_part_eval(field, p, y, vectors):
    """(pullback(*rho) . theta) alone, for the factorization comparison."""
    pd = field.point_data(p)
    bs = [np.asarray(v[0]) for v in vectors]
    return np.einsum("ijkl,i,j,k,l->", pd.rho_star_dense, y, *bs)


def _d_eval(field, evaluator, tp, frame4, h):
    """Exterior derivative of a 3-form evaluator on 4 tangent vectors at tp,
    using constant ambient extensions (whose mutual brackets vanish)."""
    total = 0.0 + 0.0j
    for j in range(4):
        others = [frame4[i] for i in range(4) if i != j]
        val = central_difference(
            lambda m, x: evaluator(field, m, x, others), (tp.m, tp.x), frame4[j], h
        )
        total += (-1.0) ** j * val
    return total


def omega_closure_residual(field, tps, h=None, max_combos=None, seed=0):
    """Max |d Omega| on horizontal 4-frames over the sample of twistor
    points; vanishes exactly for the flat structure and detects torsion."""
    h = field.h if h is None else h
    worst = 0.0
    rng = np.random.default_rng(seed)
    for tp in tps:
        frame = [tp.theta] + [tp.b_lifts[a] for a in range(6)]
        combos = list(itertools.combinations(range(7), 4))
        if max_combos is not None and max_combos < len(combos):
            combos = [combos[i] for i in rng.choice(len(combos), max_combos, replace=False)]
        for combo in combos:
            frame4 = [frame[c] for c in combo]
            worst = max(worst, abs(_d_eval(field, _omega_eval, tp, frame4, h)))
    return worst


def _pushforward_to_form_bundle(field, p, y, vec, h):
    """Tangent map of (p, y) -> (*rho(p) . y, p) into Tot(Lambda^3)."""
    b, w = np.asarray(vec[0], dtype=float), np.asarray(vec[1], dtype=float)
    pd = field.point_data(p)
    dstar = central_difference(lambda q: field.point_data(q).rho_star.coeffs, (p,), (b,), h)
    lam_dot = contract(pd.rho_star, w).coeffs + contract(KForm(7, 4, dstar), y).coeffs
    return b, lam_dot


def xi_factorization_residual(field, tps, h=None, max_combos=10, seed=0):
    """Two-path check: d((pullback *rho) . theta) on horizontal 4-frames
    against the exact canonical form Xi pulled through the embedding of the
    sphere bundle into Tot(Lambda^3)."""
    h = field.h if h is None else h
    rng = np.random.default_rng(seed)
    worst = 0.0
    for tp in tps:
        lam = contract(field.point_data(tp.m).rho_star, tp.x)
        frame = [tp.theta] + [tp.b_lifts[a] for a in range(6)]
        combos = list(itertools.combinations(range(7), 4))
        if max_combos < len(combos):
            combos = [combos[i] for i in rng.choice(len(combos), max_combos, replace=False)]
        for combo in combos:
            frame4 = [frame[c] for c in combo]
            direct = _d_eval(field, _imag_part_eval, tp, frame4, h)
            pushed = [_pushforward_to_form_bundle(field, tp.m, tp.x, v, h) for v in frame4]
            exact = xi_value(lam, pushed)
            worst = max(worst, abs(direct - exact))
    return worst


def cartan_identity_residual(field, tp, h=None):
    """Residual of the bracket identity coupling d Omega to Omega([Z, T]).

    Z, T run over the (0,1) eigenbasis (extended as sections), X, Y over
    the real B frame; with our exterior-derivative convention the identity
    reads d Omega(X, Y, Z, T) = -Omega(X, Y, [Z, T]) whenever Omega is
    closed along the relevant directions.
    """
    h = field.h if h is None else h
    cs = cr_splitting(tp)
    zt = cs.tangents_01(tp)
    worst = 0.0
    for zi, ti in itertools.combinations(range(3), 2):
        br = frobenius_bracket(field, tp, zt[zi], zt[ti], h=h, projection="cr01")
        for xi, yi in [(0, 1), (2, 3), (4, 5)]:
            X, Y = tp.b_lifts[xi], tp.b_lifts[yi]
            d_val = _d_eval(field, _omega_eval, tp, [X, Y, zt[zi], zt[ti]], h)
            om_val = _omega_eval(field, tp.m, tp.x, [X.astype(complex), Y.astype(complex), br])
            worst = max(worst, abs(d_val + om_val))
    return worst
