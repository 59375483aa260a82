"""Single-point G2 linear algebra on R^7.

Covers the canonical 3-form and its induced metric, the vector cross
product and octonion product, associative 3-planes, the SU(3) structure
on the orthogonal complement of a unit vector, the 7 + 14 splitting of
2-forms, and Hodge-type measurements on 6-dimensional complements.

The coordinate convention for the canonical 3-form and all derived signs
are frozen in docs/CONVENTIONS.md; every numeric expectation downstream
depends on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .forms import (
    KForm,
    PD_TOL,
    MetricTensor,
    NotPositiveDefinite,
    _contract_table,
    _wedge_table,
    annihilator_basis,
    annihilator_dimension,
    contract,
    hodge_star,
    hodge_star_coeffs,
    increasing_indices,
    transform,
    wedge,
)

#: coefficients of the canonical 3-form (0-based index tuples)
RHO_STD_TERMS = {
    (0, 1, 2): 1.0,
    (0, 3, 4): 1.0,
    (0, 5, 6): 1.0,
    (1, 3, 5): 1.0,
    (1, 4, 6): -1.0,
    (2, 3, 6): -1.0,
    (2, 4, 5): -1.0,
}

#: the volume-valued pairing built from a normalized structure equals
#: METRIC_FACTOR * g * vol_g; the factor is forced by requiring the
#: canonical form to induce the Euclidean metric.
METRIC_FACTOR = 6.0

UNIT_TOL = 1e-10


class G2StructureError(ValueError):
    pass


class DegenerateFormError(G2StructureError):
    pass


class SplitFormError(G2StructureError):
    """The stabilizer has dimension 14 but the pairing is indefinite."""


class NonUnitVectorError(G2StructureError):
    pass


class DependentBasisError(G2StructureError):
    pass


# ---------------------------------------------------------------------------
# fast multilinear tables (fixed dim 7)


@lru_cache(maxsize=None)
def _pairing_gathers():
    """Gathers (index, sign) from 3-form coefficients a of the two factors of
    the pairing: W[i, J] = (a . e_i)[J] on 2-indices J, and M[P, Q] = top
    coefficient of e^P ^ e^Q ^ a on 2-indices P, Q.  Each entry has at most
    one source coefficient; entries without one have sign 0."""
    comp, src, dst, sg = _contract_table(7, 3)
    wi, ws = np.zeros((7, comb(7, 2)), dtype=int), np.zeros((7, comb(7, 2)))
    wi[comp, dst], ws[comp, dst] = src, sg
    j4, j3, _, s43 = _wedge_table(7, 4, 3)  # the 3-index completing each 4-index
    c3, s3 = np.zeros(comb(7, 4), dtype=int), np.zeros(comb(7, 4))
    c3[j4], s3[j4] = j3, s43
    ia, ib, i4, s22 = _wedge_table(7, 2, 2)
    mi, ms = np.zeros((comb(7, 2),) * 2, dtype=int), np.zeros((comb(7, 2),) * 2)
    mi[ia, ib], ms[ia, ib] = c3[i4], s22 * s3[i4]
    return wi, ws, mi, ms


def _pairing_matrices(R):
    """B[n, i, j]: top coefficient of (rho_n . e_i) ^ (rho_n . e_j) ^ rho_n."""
    wi, ws, mi, ms = _pairing_gathers()
    W = R[:, wi] * ws
    B = W @ (R[:, mi] * ms) @ W.transpose(0, 2, 1)
    return (B + B.transpose(0, 2, 1)) / 2.0


def induced_metrics(R):
    """Metrics (N, 7, 7) and orientations (N,) induced by stacked 3-forms R (N, 35).

    Solves the volume-valued pairing for (g, orientation) so that the
    pairing equals METRIC_FACTOR * g(x, y) * vol_g; the one free positive
    scalar comes out of the determinant consistency condition.  The
    normalization is homogeneous of degree 2/3: scaling the form by t > 0
    scales the metric by t^(2/3).  Every row goes through its own
    eigenvalue and determinant calls, so row i equals the N = 1 call on
    row i bit for bit.

    Raises DegenerateFormError / SplitFormError when some row is not a
    (compact) G2 structure, and NotPositiveDefinite when a metric fails
    the MetricTensor positivity test.
    """
    R = np.asarray(R, dtype=float)
    # overflow shows up as a non-finite pairing or scale, checked below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        B = _pairing_matrices(R)
        if not np.isfinite(B).all():
            raise DegenerateFormError("3-form coefficients or their pairing are not finite")
        w = np.linalg.eigvalsh(B)
        low, scale = abs(w).min(axis=1), abs(w).max(axis=1)
        if (low <= 1e-10 * scale).any():
            raise DegenerateFormError("volume-valued pairing is singular")
        if ((w[:, 0] < 0) & (w[:, -1] > 0)).any():
            raise SplitFormError("volume-valued pairing is indefinite (split form)")
        orientation = np.where(w[:, 0] > 0, 1, -1)
        Bp = orientation[:, None, None] * B
        s = (METRIC_FACTOR**2 * np.linalg.det(Bp)) ** (-1.0 / 9.0)
        # the eigenvalues of g = s Bp are s |w|: the MetricTensor positivity test
        if (s * low <= PD_TOL * np.maximum(1.0, s * scale)).any():
            raise NotPositiveDefinite(f"metric eigenvalue {(s * low).min():.3g} not positive")
    return s[:, None, None] * Bp, orientation


def induced_metric(rho, check_nondegenerate=True):
    """Metric and orientation induced by a 3-form on R^7: the N = 1 view of
    `induced_metrics`, plus the stabilizer-dimension check."""
    if rho.dim != 7 or rho.degree != 3:
        raise DegenerateFormError("need a 3-form on R^7")
    g, orientation = induced_metrics(rho.coeffs[None])
    if check_nondegenerate and annihilator_dimension(rho) != 14:
        raise DegenerateFormError(
            f"stabilizer dimension {annihilator_dimension(rho)} != 14"
        )
    return MetricTensor(g[0]), int(orientation[0])


def rho_star_coeffs(R):
    """Hodge duals (N, 35) of stacked 3-forms R (N, 35) under their induced metrics."""
    g, orientation = induced_metrics(R)
    vol = np.sqrt(np.linalg.det(g)) * orientation
    return hodge_star_coeffs(R, np.linalg.inv(g), vol, 3)


def _gram_orthonormal_columns(S, gram):
    """Orthonormalize the columns of S for the inner product ``gram``."""
    C = S.T @ gram @ S
    w, U = np.linalg.eigh(C)
    if w.min() <= 1e-12 * w.max():
        raise DependentBasisError("columns are numerically dependent")
    return S @ U / np.sqrt(w)


class G2Point:
    """A validated G2 structure at one point: (rho, g, *rho, orientation).

    The 4-form may be passed as None and is then computed on first use
    (connection stencils only ever touch the metric).
    """

    def __init__(self, rho, metric, rho_star=None, orientation=1, validate=True):
        self.rho = rho
        self.metric = metric
        if rho_star is not None:
            self.rho_star = rho_star  # seeds the cached_property
        self.orientation = orientation
        if validate:
            self._validate()

    @cached_property
    def rho_star(self):
        return hodge_star(self.rho, self.metric, self.orientation)

    @classmethod
    def from_rho(cls, rho, validate=True):
        metric, orientation = induced_metric(rho, check_nondegenerate=validate)
        return cls(rho, metric, None, orientation, validate=validate)

    def _validate(self):
        if annihilator_dimension(self.rho) != 14:
            raise DegenerateFormError("stabilizer dimension != 14")
        B = _pairing_matrices(self.rho.coeffs[None])[0]
        want = (
            METRIC_FACTOR
            * self.metric.sqrt_det
            * self.orientation
            * self.metric.entries
        )
        scale = max(np.abs(B).max(), 1.0)
        if np.abs(B - want).max() > 1e-9 * scale:
            raise G2StructureError("metric does not reproduce the pairing")
        star = hodge_star(self.rho, self.metric, self.orientation)
        if np.abs(star.coeffs - self.rho_star.coeffs).max() > 1e-9:
            raise G2StructureError("stored 4-form is not the Hodge dual")

    # -- cached tensors -----------------------------------------------------

    @property
    def g(self):
        return self.metric.entries

    @property
    def ginv(self):
        return self.metric.inverse

    @cached_property
    def rho_dense(self):
        return self.rho.dense()

    @cached_property
    def rho_star_dense(self):
        return self.rho_star.dense()

    @cached_property
    def cross_tensor(self):
        """T[i, j, k] = k-th component of e_i x e_j."""
        return np.einsum("ijm,km->ijk", self.rho_dense, self.ginv)

    @cached_property
    def stabilizer_algebra(self):
        """Basis of the annihilator algebra of rho, shape (14, 7, 7)."""
        return annihilator_basis(self.rho)

    @cached_property
    def _lambda2(self):
        """(Q7, Q14, P7, P14, gram2) for the 7 + 14 splitting of 2-forms."""
        gram2 = self.metric.gram(2)
        # image of v -> rho . v
        S7 = np.column_stack(
            [contract(self.rho, np.eye(7)[i]).coeffs for i in range(7)]
        )
        Q7 = _gram_orthonormal_columns(S7, gram2)
        # annihilator algebra mapped into 2-forms through g
        cols = []
        for A in self.stabilizer_algebra:
            M = A.T @ self.g
            M = (M - M.T) / 2.0
            cols.append(np.array([M[i, j] for i, j in increasing_indices(7, 2)]))
        Q14 = _gram_orthonormal_columns(np.column_stack(cols), gram2)
        P7 = Q7 @ Q7.T @ gram2
        P14 = Q14 @ Q14.T @ gram2
        if np.abs(P7 + P14 - np.eye(21)).max() > 1e-9:
            raise G2StructureError("2-form projectors do not sum to the identity")
        return Q7, Q14, P7, P14, gram2

    @property
    def lambda2_basis_7(self):
        return self._lambda2[0]

    @property
    def lambda2_basis_14(self):
        return self._lambda2[1]

    @property
    def lambda2_projectors(self):
        _, _, P7, P14, _ = self._lambda2
        return P7, P14

    # -- point operations -----------------------------------------------------

    def cross(self, x, y):
        """Vector product  x * y = (rho(x, y, .)) raised through g."""
        return np.einsum("ijk,i,j->k", self.cross_tensor, x, y)

    def norm(self, x):
        return self.metric.norm(x)


def standard_g2_point():
    """The canonical structure; its induced metric is the identity."""
    return G2Point.from_rho(KForm.from_terms(7, RHO_STD_TERMS))


def cross(point, x, y):
    return point.cross(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def octonion_multiply(point, a, b, scalar_sign=-1.0):
    """Product on V + R:  (x, t)(y, t') = (t y + t' x + x*y, s g(x,y) + t t').

    ``scalar_sign`` is the sign s of the g(x, y) term.  The default -1 is
    the standard imaginary-octonion convention (unit vectors square to -1
    and orthonormal pairs generate quaternion triples); +1 gives the
    split-signature variant.
    """
    x, t = np.asarray(a[0], dtype=float), float(a[1])
    y, tp = np.asarray(b[0], dtype=float), float(b[1])
    vec = t * y + tp * x + point.cross(x, y)
    scal = scalar_sign * point.metric.inner(x, y) + t * tp
    return vec, scal


def is_associative_subspace(point, basis, tol=1e-10):
    """True iff the 3-plane spanned by ``basis`` is closed under the cross
    product (residual measured after g-orthonormalization)."""
    S = np.column_stack([np.asarray(v, dtype=float) for v in basis])
    if S.shape != (7, 3):
        raise DependentBasisError("need three vectors in R^7")
    Q = _gram_orthonormal_columns(S, point.g)
    proj = Q @ Q.T @ point.g
    for i in range(3):
        for j in range(i + 1, 3):
            w = point.cross(Q[:, i], Q[:, j])
            if point.norm(w - proj @ w) > tol:
                return False
    return True


# ---------------------------------------------------------------------------
# SU(3) structure on a unit complement


@dataclass(eq=False)
class Su3Frame:
    """Hermitian data on the g-orthogonal complement of a unit vector.

    ``basis`` holds six g-orthonormal columns spanning v-perp; all member
    forms and maps are written in that basis.  ``Omega = Omega_re + i
    Omega_im`` is of type (3,0) for I: contracting with any (0,1)-vector
    gives zero.
    """

    v: np.ndarray
    basis: np.ndarray
    omega: KForm
    I: np.ndarray
    Omega_re: KForm
    Omega_im: KForm


def _complement_basis(point, v):
    """Deterministic g-orthonormal basis of v-perp (pivoted Gram-Schmidt)."""
    g = point.g
    cand = np.eye(7) - np.outer(v, v @ g)  # g-projection of coordinate vectors
    cols = []
    remaining = list(range(7))
    for _ in range(6):
        norms = [cand[:, j] @ g @ cand[:, j] for j in remaining]
        k = remaining[int(np.argmax(norms))]
        u = cand[:, k] / np.sqrt(cand[:, k] @ g @ cand[:, k])
        cols.append(u)
        remaining.remove(k)
        for j in remaining:
            cand[:, j] = cand[:, j] - (cand[:, j] @ g @ u) * u
    return np.column_stack(cols)


def su3_structure(point, v, tol=UNIT_TOL):
    """SU(3) frame on v-perp for a g-unit vector v.

    omega is the restriction of rho . v; I w = v x w satisfies
    omega(x, y) = g(I x, y); Omega restricts rho and the contraction of
    the 4-form, with the sign of the imaginary part fixed so Omega is of
    type (3,0) for I.
    """
    v = np.asarray(v, dtype=float)
    if abs(point.metric.inner(v, v) - 1.0) > tol:
        raise NonUnitVectorError("v must be a g-unit vector")
    W = _complement_basis(point, v)
    omega7 = contract(point.rho, v)
    omega = transform(omega7, W)
    # I in the W basis: I[a, b] = g(w_a, v x w_b)
    cross_w = np.einsum("ijk,i,jb->kb", point.cross_tensor, v, W)
    I6 = W.T @ point.g @ cross_w
    if np.abs(I6 @ I6 + np.eye(6)).max() > UNIT_TOL:
        raise G2StructureError("complex structure does not square to -Id")
    Omega_re = transform(point.rho, W)
    Omega_im = -1.0 * transform(contract(point.rho_star, v), W)
    frame = Su3Frame(v=v, basis=W, omega=omega, I=I6, Omega_re=Omega_re, Omega_im=Omega_im)
    _check_su3_frame(frame)
    return frame


def _check_su3_frame(frame):
    I6 = frame.I
    om = frame.omega.as_matrix()
    # omega(x, y) = g(I x, y) in the orthonormal frame
    if np.abs(om - I6.T).max() > UNIT_TOL:
        raise G2StructureError("omega and I are inconsistent")
    # (3,0): contraction with (0,1)-vectors vanishes
    re, im = frame.Omega_re, frame.Omega_im
    for a in range(6):
        w = np.eye(6)[a]
        iw = I6 @ w
        residual = np.concatenate(
            [
                contract(re, w).coeffs - contract(im, iw).coeffs,
                contract(im, w).coeffs + contract(re, iw).coeffs,
            ]
        )
        if np.abs(residual).max() > UNIT_TOL:
            raise G2StructureError("Omega has a component of wrong type")
    # Omega ^ conj(Omega) = -2i Re ^ Im must be a nonzero multiple of vol
    top = wedge(re, im).coeffs[0]
    if abs(top) < 0.5:
        raise G2StructureError("Omega is degenerate")


# ---------------------------------------------------------------------------
# 2-form decompositions


def project_lambda2(point, a):
    """Split a 2-form into its 7- and 14-dimensional components."""
    P7, P14 = point.lambda2_projectors
    return KForm(7, 2, P7 @ a.coeffs), KForm(7, 2, P14 @ a.coeffs)


def hodge_type_on_complement(point, a, v, frame=None):
    """Type decomposition of a 2-form restricted to v-perp.

    Returns (p20_02_norm, p11_norm, omega_component): the norm of the
    (2,0)+(0,2) part, the norm of the primitive (1,1) part, and the signed
    coefficient <a|_W, omega>/|omega| of the Hermitian form.  Norms are
    coefficient norms in the g-orthonormal frame of v-perp.
    """
    if frame is None:
        frame = su3_structure(point, v)
    W = frame.basis
    A = W.T @ a.as_matrix() @ W
    I6 = frame.I
    A11 = (A + I6.T @ A @ I6) / 2.0
    A2002 = A - A11
    om = frame.omega.as_matrix()
    om_norm2 = np.sum(om * om) / 2.0
    coef = np.sum(A11 * om) / 2.0
    A11_prim = A11 - (coef / om_norm2) * om
    def _norm(M):
        return float(np.sqrt(np.sum(M * M) / 2.0))
    return _norm(A2002), _norm(A11_prim), float(coef / np.sqrt(om_norm2))
