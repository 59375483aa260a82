"""The CR twistor space of a structure field: the unit sphere bundle with
its horizontal/vertical splitting, the six-dimensional distribution B with
its complex structure, numerical Frobenius brackets, the tautological forms
on form bundles, and the involutivity residuals.

Tangent vectors of the sphere bundle are stored as arrays of shape (2, 7):
row 0 is the base component in torus coordinates, row 1 the fiber component
in the ambient fiber chart.  The vertical part of a vector is its fiber
component minus the horizontal-lift fiber of its base component; residual
norms use the product metric (g on the base, g restricted to the fiber).

A scan holds its samples in one `TwistorPoints` record of (N, ...) arrays,
which the plural functions (`involutivity_residuals`, ...) index in stacked
passes; row i equals the one-sample call bit for bit.  Each plural reads a
one-point record as its ``rows``, so each singular function is the N = 1
view of its plural.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .fields import BLOCK, blocks, central_difference, christoffel, christoffels, make_field, riemanns
from .forms import KForm, contract, contract_stack, dense_stack, derivation_apply, minors
from .pointwise import su3_structures
from .sampling import sphere_bundle_samples

WHICH = ("01", "10")
CARRIERS = ("transport", "parallel")
PROJECTIONS = ("none", "b", "cr01", "cr10")
#: the eigenbasis pairs (i, j), i < j, in `itertools.combinations` order
_PAIR_I, _PAIR_J = (0, 0, 1), (1, 2, 2)
#: the involutivity noise floor of the flat structure: its residuals are exact zeros, clamped here
FLAT_FLOOR = 1e-14
#: the twistor verdict: a scan is involutive iff its maximum involutivity residual is at most this
INVOLUTIVE_TOL = 1e-9


class TwistorError(ValueError):
    pass


def _check_option(name, value, allowed):
    if value not in allowed:
        raise TwistorError(f"{name} must be one of {allowed}, got {value!r}")


def _hor_fibers(gamma, y, b):
    """Fiber components -Gamma(b, y) of the horizontal lifts of base vectors b at fibers y, (R, 7)
    each: Gamma y by one product per row, then times b.  The one Gamma(b, y) contraction."""
    return -((gamma.reshape(-1, 49, 7) @ y[:, :, None]).reshape(-1, 7, 7) @ b[:, :, None])[..., 0]


@dataclass(frozen=True, eq=False)
class TwistorPoints:
    """Points (m, x) of the sphere bundle with their adapted frames, one (N, ...)
    array per field (docs/CONVENTIONS.md): ``lifts`` holds theta, the lift of
    x, then the b_lifts of a g-orthonormal basis W of x-perp.  A slice or row
    array selects those rows; an integer i gives the one-point record of row i
    (no row axis; ``vert_basis`` and ``vertical_part`` are read on it, and
    ``rows`` is it as a one-row record)."""

    m: np.ndarray
    rho: np.ndarray
    g: np.ndarray
    ginv: np.ndarray
    vol: np.ndarray
    gamma: np.ndarray
    I: np.ndarray
    b10: np.ndarray
    lifts: np.ndarray

    def __len__(self):
        return len(self.rows.m)

    def __getitem__(self, rows):
        return TwistorPoints(*(getattr(self, f.name)[rows] for f in dc_fields(self)))

    # C-ordered like the stacks they were built from: the products that read them round alike
    x = property(lambda self: np.ascontiguousarray(self.lifts[..., 0, 0, :]))
    W = property(lambda self: np.ascontiguousarray(self.lifts[..., 1:, 0, :].swapaxes(-1, -2)))
    theta = property(lambda self: self.lifts[..., 0, :, :])
    b_lifts = property(lambda self: self.lifts[..., 1:, :, :])
    rows = property(lambda self: self if self.m.ndim == 2 else self[None])
    vert_basis = property(lambda self: np.stack([np.zeros((6, 7)), self.W.T], axis=1))

    @property
    def tangents_01(self):
        """The (0,1) basis of each frame carried to B: (..., 3, 2, 7) complex tangents."""
        return np.einsum("...ra,...aij->...rij", np.conj(self.b10), self.b_lifts.astype(complex))

    @property
    def wbar(self):
        """The (0,1) basis of each frame in torus coordinates: (..., 3, 7) complex rows."""
        return np.einsum("...ra,...ia->...ri", np.conj(self.b10), self.W)

    def vertical_part(self, vec):
        """Fiber component minus the horizontal-lift fiber of the base part."""
        return vec[1] - _hor_fibers(self.gamma[None], self.x[None], np.asarray(vec[0])[None])[0]


def twistor_points(field, M, X):
    """The `TwistorPoints` record at the rows (m, x) of M and X, (N, 7) each, x
    normalized against g(m): one pass of each kind serves all rows, and row i
    equals the one-row call bit for bit."""
    # C-ordered rows, so no product below depends on the layout of the input
    M = np.ascontiguousarray(M, dtype=float).reshape(-1, 7)
    X = np.ascontiguousarray(X, dtype=float).reshape(-1, 7)
    if not np.isfinite(X).all():
        raise TwistorError("fiber vector must be finite")
    R, G, Ginv, vol, S = field.point_stacks(M)
    nrm = np.sqrt(np.maximum((X[:, None] @ G @ X[:, :, None])[:, 0, 0], 0.0))
    if (nrm < 1e-12).any():
        raise TwistorError("fiber vector must be nonzero")
    X = X / nrm[:, None]
    gamma = christoffels(field, M)[0]
    frames = su3_structures(G, Ginv, R, S, X)
    # x, then w_1..w_6, C-ordered, each lifted on its own row: every vertical part is an exact zero
    V = np.ascontiguousarray(np.concatenate([X[:, None], frames[0].transpose(0, 2, 1)], axis=1))
    rep = np.repeat(np.arange(len(M)), 7)
    lifts = np.stack([V, _hor_fibers(gamma[rep], X[rep], V.reshape(-1, 7)).reshape(V.shape)], 2)
    return TwistorPoints(M, R, G, Ginv, vol, gamma, *frames[1:3], lifts)


def twistor_point(field, m, x):
    """The adapted frame at (m, x): the N = 1 view of `twistor_points`."""
    return twistor_points(field, np.asarray(m, float)[None], np.asarray(x, float)[None])[0]


# ---------------------------------------------------------------------------
# local extensions and Frobenius brackets


def _extension_values(field, rows, tps, base0, vert0, P, Y, carrier, projection):
    """Values (R, k, 2, 7) at ambient points (P, Y), (R, 7) each, of the local
    fields extending the k vectors (base0, vert0), (R, k, 7) each, from the
    twistor points tps[rows]: the geometry of a row (metric, inverse and Christoffel symbols
    from one `christoffels` pass over the stencil and centre metrics; the matrix of
    xhat x . from rho(xhat, ., .) and g^-1) is computed once for its k vectors.

    carrier:    base-component scheme before any projection --
                'transport' keeps coordinate-constant base components,
                'parallel' applies first-order Christoffel transport to them.
                Fiber components always use the honest horizontal lift at p.
    projection: 'none', 'b' (pointwise projection onto B), or 'cr01'/'cr10'
                (pointwise projection onto an eigenspace of the CR structure),
                which turn the carrier into a section of the distribution.
    """
    gamma, g, ginv = christoffels(field, P)
    yg = Y[:, None] @ g  # (R, 1, 7)
    yy = yg @ Y[:, :, None]  # (R, 1, 1)
    if projection in ("cr01", "cr10"):
        xhat = Y / np.sqrt(yy[:, 0])
        # cross[n, k, j] = k-th component of xhat x e_j at P[n]: rho(xhat, e_j, .) raised with g^-1
        omega = dense_stack(contract_stack(field.rho_coeffs(P), xhat, 7, 3), 7, 2)
        cross = ginv @ omega.transpose(0, 2, 1)
    values = []
    for b, vert in zip(base0.swapaxes(0, 1), vert0.swapaxes(0, 1)):
        # one contiguous (R, 7) stack per vector, as a one-vector call holds it
        b, vert = np.ascontiguousarray(b), np.ascontiguousarray(vert)
        if carrier == "parallel":
            b = b + _hor_fibers(tps.gamma[rows], b, P - tps.m[rows])
        if projection != "none":
            b = b - ((yg @ b[:, :, None]) / yy)[:, 0] * Y
            if projection in ("cr01", "cr10"):
                Ib = (cross @ b[:, :, None])[..., 0]
                b = 0.5 * (b + 1j * Ib) if projection == "cr01" else 0.5 * (b - 1j * Ib)
        vt = vert - ((yg @ vert[:, :, None]) / yy)[:, 0] * Y
        values.append(np.stack([b, _hor_fibers(gamma, Y, b) + vt], axis=1))
    return np.stack(values, axis=1)


def _brackets(field, tps, T, carrier, projection):
    """[T_a, T_b] for a < b in `itertools.combinations` order, (N, C(k, 2), 2, 7),
    of the locally extended fields, for the k tangents T (N, k, 2, 7) at each
    point of the record tps.  Each tangent is differenced once, all N k of
    them in one `central_difference`, and the stencil of T_a carries the
    extensions of the other k - 1 tangents of its point: one extension pass
    over both stencil sides per part of a complex direction."""
    _check_option("carrier", carrier, CARRIERS)
    _check_option("projection", projection, PROJECTIONS)
    n, k = T.shape[:2]
    rows = np.repeat(np.arange(n), k)  # one row per tangent
    along = np.ascontiguousarray(T.reshape(-1, 2, 7))
    m, x = tps.m[rows], tps.x[rows]
    vert = (along[:, 1] - _hor_fibers(tps.gamma[rows], x, along[:, 0])).reshape(n, k, 7)
    others = np.array([[b for b in range(k) if b != a] for a in range(k)])  # (k, k - 1)
    base0, vert0 = (a[:, others].reshape(n * k, k - 1, 7) for a in (T[:, :, 0], vert))

    # f sees the + side rows, then the - side rows: the per-row data once per side
    rows2, base2, vert2 = (np.concatenate([a, a]) for a in (rows, base0, vert0))

    def ext(P, Yp):
        return _extension_values(field, rows2, tps, base2, vert2, P, Yp, carrier, projection)

    # d[:, a, c] differences the extension of the c-th other tangent of T_a along T_a
    d = central_difference(ext, (m, x), along.transpose(1, 0, 2), field.h).reshape(n, k, k - 1, 2, 7)
    i, j = np.array(list(itertools.combinations(range(k), 2))).T
    return d[:, i, j - 1] - d[:, j, i]


def frobenius_bracket(field, tp, X, Y, carrier="transport", projection="none"):
    """Numerical Lie bracket [X, Y] at tp of the locally extended fields.

    Only the class of the result modulo the extended distribution is
    contractually meaningful; with a 'cr' projection the extensions are
    honest sections of the distribution, so that class is the Frobenius
    obstruction up to O(h).  The N = 1 view of the stacked bracket kernel.
    """
    return _brackets(field, tp.rows, np.array([[X, Y]]), carrier, projection)[0, 0]


def involutivity_residuals(field, tps, which="01", carrier="transport"):
    """Per point of the record tps, the max norm over eigenbasis pairs of the
    bracket component outside the chosen eigenspace (theta, vertical, and
    opposite-type parts); the brackets of all points in one kernel pass."""
    _check_option("which", which, WHICH)
    _check_option("carrier", carrier, CARRIERS)
    tps = tps.rows
    if not tps:
        return []
    tangents = tps.tangents_01
    if which == "10":  # b10 = conj(b01) and the lifts are real
        tangents = np.conj(tangents)
    br = _brackets(field, tps, tangents, carrier, "cr" + which).reshape(-1, 2, 7)
    rows = np.repeat(np.arange(len(tps)), len(_PAIR_I))  # one row per pair
    # theta, B and vertical coordinates of each bracket, each product taken
    # in the order of the one-point expressions x @ g @ b and W.T @ g @ b
    x, g, W = tps.x[rows], tps.g[rows], tps.W[rows]
    theta_c = (x[:, None] @ g @ br[:, 0, :, None])[:, 0, 0]
    Wg = W.transpose(0, 2, 1) @ g
    b_c = Wg @ br[:, 0, :, None]
    vert = br[:, 1] - _hor_fibers(tps.gamma[rows], x, br[:, 0])
    vert_c = (Wg @ vert[:, :, None])[..., 0]
    Ib = (tps.I[rows] @ b_c)[..., 0]
    b_c = b_c[..., 0]
    outside = 0.5 * (b_c - 1j * Ib) if which == "01" else 0.5 * (b_c + 1j * Ib)  # the other type
    out_sq = np.sum(np.abs(outside) ** 2, axis=-1)
    vert_sq = np.sum(np.abs(vert_c) ** 2, axis=-1)
    res = [np.sqrt(abs(t) ** 2 + float(o) + float(v)) for t, o, v in zip(theta_c, out_sq, vert_sq)]
    return [max(0.0, *res[k : k + 3]) for k in range(0, len(res), 3)]


def involutivity_residual(field, tp, which="01", carrier="transport"):
    """Max norm over eigenbasis pairs of the bracket component outside the
    chosen eigenspace: the N = 1 view of `involutivity_residuals`."""
    return involutivity_residuals(field, tp, which, carrier)[0]


def vertical_curvature_obstructions(field, tps, curvature=None):
    """Per twistor point, the max over (0,1)-pairs of |R(b, b') x|, the
    vertical-bracket obstruction; the curvature of all points from one
    `riemanns` batch on the record's own centre gamma and g.

    `curvature` may override the Levi-Civita curvature with a synthetic
    lowered tensor of shape (7, 7, 7, 7).
    """
    tps = tps.rows
    if not tps:
        return []
    if curvature is None:
        curvature = riemanns(field, tps.m, tps.gamma, tps.g)
    rep = np.repeat(np.arange(len(tps)), 3)  # one row per pair
    # R(., ., ., x) once per point, then its (i, j) rows against wbar_i (x) wbar_j of each pair
    Rx = np.broadcast_to(curvature, (len(tps), 7, 7, 7, 7)).reshape(-1, 343, 7) @ tps.x[:, :, None]
    wbar = tps.wbar
    ww = (wbar[:, _PAIR_I, :, None] * wbar[:, _PAIR_J, None, :]).reshape(-1, 3, 49)
    low = (ww @ Rx.reshape(-1, 49, 7)).reshape(-1, 7)
    v = tps.ginv[rep] @ low[:, :, None]  # (3N, 7, 1)
    g = tps.g[rep]
    norms = np.sqrt(np.maximum(np.real(np.conj(v).transpose(0, 2, 1) @ g @ v)[:, 0, 0], 0.0))
    return [max(0.0, *norms[k : k + 3]) for k in range(0, len(norms), 3)]


def vertical_curvature_obstruction(field, tp, curvature=None):
    """Max over (0,1)-pairs of |R(b, b') x|: the N = 1 view of
    `vertical_curvature_obstructions`."""
    return vertical_curvature_obstructions(field, tp, curvature)[0]


def flat_noise_floor(resolution, n_samples=32, seed=0):
    """Measured involutivity residual on the flat structure, clamped to
    FLAT_FLOOR (its brackets are exact zeros, see docs/CONVENTIONS.md)."""
    field = make_field("flat", resolution)
    ms, xs = sphere_bundle_samples(n_samples, seed)
    worst = 0.0
    for b in blocks(n_samples):
        worst = max(worst, *involutivity_residuals(field, twistor_points(field, ms[b], xs[b])))
    return max(worst, FLAT_FLOOR)


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


def form_bundle_lift(gamma, lam, b):
    """Horizontal lift of base vector b at a point lam of Tot(Lambda^k):
    the fiber velocity of parallel transport."""
    gamma_b = np.einsum("kij,i->kj", gamma, np.asarray(b, dtype=float))
    return np.asarray(b, dtype=float), derivation_apply(lam, gamma_b).coeffs


def canonical_form_horizontal_residual(field, k, n_samples=20, seed=0):
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
        gamma = christoffel(field, m)
        tangents = [form_bundle_lift(gamma, lam, rng.standard_normal(7)) for _ in range(k + 1)]
        worst = max(worst, abs(xi_value(lam, tangents)))
    return worst


# ---------------------------------------------------------------------------
# the holomorphic volume form on the horizontal bundle


def _omega_values(field, P, Y, B):
    """Omega = pullback(rho) - i (pullback(*rho) . theta) at the ambient points
    (P, Y), (R, 7) each, on the base parts B (R, 3, 7) of three tangents, row
    by row: the complex 3-form coefficients rho - i (Y . *rho), rho and *rho
    from one `rho_and_star` pass, applied through the 3x3 minors of the base
    parts as `KForm.evaluate` does, all rows in one pass."""
    RS = field.rho_and_star(P)
    C = RS[:, :35] - 1j * contract_stack(RS[:, 35:], Y, 7, 4)
    return np.sum(C * minors(B.transpose(0, 2, 1), 3)[..., 0], axis=-1)


#: the terms of d Omega on a 4-frame: the vector differenced along, then the other three
_D_TERMS = np.array([(j, *(i for i in range(4) if i != j)) for j in range(4)])


def _d_omegas(field, M, X, frames):
    """d Omega on the 4-frames frames (Q, 4, 2, 7) at the points (M, X), (Q, 7)
    each, through constant ambient extensions (whose mutual brackets vanish):
    every (frame, term, side) row of the stencils in one `central_difference`
    of `_omega_values`, both sides in one pass per part of the direction."""
    D = frames[:, _D_TERMS[:, 0]].reshape(-1, 2, 7)
    B = frames[:, _D_TERMS[:, 1:], 0].reshape(-1, 3, 7)
    B2 = np.concatenate([B, B])  # the base parts of the + side rows, then of the - side rows
    rep = np.repeat(np.arange(len(frames)), 4)
    vals = central_difference(
        lambda P, Y: _omega_values(field, P, Y, B2), (M[rep], X[rep]), D.transpose(1, 0, 2), field.h
    ).reshape(-1, 4)
    return vals[:, 0] - vals[:, 1] + vals[:, 2] - vals[:, 3]


def _draw_combos(rng, max_combos):
    """The 4-subsets of the 7 horizontal frame vectors, or max_combos of them drawn by rng."""
    if max_combos is not None and not max_combos >= 1:
        raise TwistorError(f"max_combos must be >= 1, got {max_combos!r}")
    combos = list(itertools.combinations(range(7), 4))
    if max_combos is not None and max_combos < len(combos):
        combos = [combos[i] for i in rng.choice(len(combos), max_combos, replace=False)]
    return combos


def omega_closure_residuals(field, tps, seeds, max_combos=None):
    """Per twistor point, the max |d Omega| on horizontal 4-frames; point i
    draws its frames from default_rng(seeds[i]).  Every (point, frame, term,
    side) row of the exterior-derivative stencils goes through one
    `central_difference` of `_omega_values`.  Vanishes exactly for the flat
    structure and detects torsion."""
    combos = [_draw_combos(np.random.default_rng(seed), max_combos) for seed in seeds]
    tps = tps.rows
    if not tps:
        return []
    n_of = np.repeat(np.arange(len(tps)), [len(c) for c in combos])
    frame4 = tps.lifts[n_of[:, None], np.array([c for cs in combos for c in cs])]  # (Q, 4, 2, 7)
    d_omega = _d_omegas(field, tps.m[n_of], tps.x[n_of], frame4)
    size = np.hypot(d_omega.real, d_omega.imag)  # abs of each value, as the scalar abs rounds it
    ends = np.cumsum([len(c) for c in combos])
    return [max(0.0, *size[end - len(c) : end]) for c, end in zip(combos, ends)]


def omega_closure_residual(field, tps, max_combos=None, seed=0):
    """Max |d Omega| on horizontal 4-frames over the sample of twistor
    points, point i drawing its frames from default_rng(seed + i): the max of
    `omega_closure_residuals`."""
    seeds = range(seed, seed + len(tps))
    return max(0.0, *omega_closure_residuals(field, tps, seeds, max_combos)) if tps else 0.0


def _pushforward_to_form_bundle(field, tp, rho_star, vec):
    """Tangent map of (p, y) -> (*rho(p) . y, p) into Tot(Lambda^3) at tp, rho_star the 4-form at tp.m."""
    b, w = np.asarray(vec[0], dtype=float), np.asarray(vec[1], dtype=float)
    dstar = central_difference(lambda q: field.point_data(q).rho_star.coeffs, (tp.m,), (b,), field.h)
    lam_dot = contract(rho_star, w).coeffs + contract(KForm(7, 4, dstar), tp.x).coeffs
    return b, lam_dot


def xi_factorization_residual(field, tps, max_combos=10, seed=0):
    """Two-path check: d((pullback *rho) . theta) on horizontal 4-frames
    against the exact canonical form Xi pulled through the embedding of the
    sphere bundle into Tot(Lambda^3).  Per point, each frame vector is pushed
    forward once and the d Omega of all its 4-frames come from one pass."""
    tps = tps.rows
    rng = np.random.default_rng(seed)
    worst = 0.0
    for tp, frame in zip(tps, tps.lifts):
        rho_star = field.point_data(tp.m).rho_star
        lam = contract(rho_star, tp.x)
        pushed = [_pushforward_to_form_bundle(field, tp, rho_star, v) for v in frame]
        combos = _draw_combos(rng, max_combos)
        m, x = np.tile(tp.m, (len(combos), 1)), np.tile(tp.x, (len(combos), 1))
        direct = -_d_omegas(field, m, x, frame[np.array(combos)]).imag
        for combo, d in zip(combos, direct):
            worst = max(worst, abs(d - xi_value(lam, [pushed[c] for c in combo])))
    return worst


def cartan_identity_residual(field, tp):
    """Residual of the bracket identity coupling d Omega to Omega([Z, T]).

    Z, T run over the (0,1) eigenbasis (extended as sections), X, Y over
    the real B frame; with our exterior-derivative convention the identity
    reads d Omega(X, Y, Z, T) = -Omega(X, Y, [Z, T]) whenever Omega is
    closed along the relevant directions.  The three brackets come from one
    bracket-kernel pass, the nine d Omega values from one `_d_omegas` pass.
    """
    zt = tp.tangents_01
    br = _brackets(field, tp.rows, zt[None], "transport", "cr01")[0]
    xy = tp.b_lifts.reshape(3, 2, 2, 7).astype(complex)  # the pairs (X, Y) = (0, 1), (2, 3), (4, 5)
    frames = np.array([[X, Y, zt[z], zt[t]] for z, t in zip(_PAIR_I, _PAIR_J) for X, Y in xy])
    B = np.array([[X[0], Y[0], b[0]] for b in br for X, Y in xy])
    m, x = np.tile(tp.m, (len(frames), 1)), np.tile(tp.x, (len(frames), 1))
    vals = _d_omegas(field, m, x, frames) + _omega_values(field, m, x, B)
    return max(0.0, *(abs(v) for v in vals))
