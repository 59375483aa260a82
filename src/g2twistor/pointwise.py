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
    contract_stack,
    dense_stack,
    hodge_star,
    hodge_star_coeffs,
    increasing_indices,
    minors,
    transform,  # unused here; campaign_bench/test_bench.py patches pointwise.transform
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
    W = np.take(R, wi, axis=1)
    W *= ws
    M = np.take(R, mi, axis=1)  # the one (N, 21, 21) temporary, scaled in place
    M *= ms
    B = W @ M @ W.transpose(0, 2, 1)
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
    return MetricTensor.trusted(g[0]), int(orientation[0])


def structure_stacks(R):
    """Stacks (g, g^-1, orientation * sqrt(det g), *rho) of the G2 structures
    of stacked 3-forms R (N, 35), each row through its own calls."""
    g, orientation = induced_metrics(R)
    ginv, vol = np.linalg.inv(g), np.sqrt(np.linalg.det(g)) * orientation
    return g, ginv, vol, hodge_star_coeffs(R, ginv, vol, 3)


def _gram_orthonormal_columns(S, gram):
    """Orthonormalize the columns of S for the inner product ``gram``."""
    C = S.T @ gram @ S
    w, U = np.linalg.eigh(C)
    if w.min() <= 1e-12 * w.max():
        raise DependentBasisError("columns are numerically dependent")
    return S @ U / np.sqrt(w)


class G2Point:
    """A validated G2 structure at one point: (rho, g, *rho, orientation);
    the 4-form is computed on first use."""

    def __init__(self, rho, metric, orientation=1, validate=True):
        self.rho = rho
        self.metric = metric
        self.orientation = orientation
        if validate:
            self._validate()

    @cached_property
    def rho_star(self):
        return hodge_star(self.rho, self.metric, self.orientation)

    @classmethod
    def from_rho(cls, rho, validate=True):
        # with validate, _validate checks the stabilizer dimension
        metric, orientation = induced_metric(rho, check_nondegenerate=False)
        return cls(rho, metric, orientation, validate=validate)

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
    def cross_tensor(self):
        """T[i, j, k] = k-th component of e_i x e_j."""
        return np.einsum("ijm,km->ijk", self.rho_dense, self.ginv)

    @cached_property
    def stabilizer_algebra(self):
        """Basis of the annihilator algebra of rho, shape (14, 7, 7)."""
        return annihilator_basis(self.rho)

    @cached_property
    def lambda2_basis_14(self):
        """g-orthonormal basis (21, 14) of Lambda^2_14: the stabilizer algebra
        lowered through g."""
        cols = []
        for A in self.stabilizer_algebra:
            M = A.T @ self.g
            M = M - M.T
            cols.append(np.array([M[i, j] for i, j in increasing_indices(7, 2)]))
        return _gram_orthonormal_columns(np.column_stack(cols), self.metric.gram(2))

    @property
    def stacks(self):
        """This point as one-row stacks (rho, g, g^-1, vol), as `StructureField.point_stacks` starts."""
        vol = self.orientation * self.metric.sqrt_det
        return tuple(np.array([a]) for a in (self.rho.coeffs, self.g, self.ginv, vol))

    @property
    def lambda2_projectors(self):
        """(P7, P14): the N = 1 view of `lambda2_projectors`."""
        R, g, _, vol = self.stacks
        return tuple(P[0] for P in lambda2_projectors(R, g, vol))

    # -- point operations -----------------------------------------------------

    def cross(self, x, y):
        """Vector product  x * y = (rho(x, y, .)) raised through g."""
        return np.einsum("ijk,i,j->k", self.cross_tensor, x, y)

    def norm(self, x):
        return self.metric.norm(x)


def lambda2_projectors(R, g, vol):
    """Stacks (P7, P14) (N, 21, 21) = ((I + T)/3, (2I - T)/3) for T(a) =
    *(rho ^ a), which is 2 on Lambda^2_7 and -1 on Lambda^2_14, one per row
    of the 3-forms R, metrics g and vol = orientation * sqrt(det g).
    <Ta, b> vol = b ^ rho ^ a reads T off the pairing gather M and the
    inverse Gram matrices minors(g, 2); row i equals the one-point call bit
    for bit."""
    _, _, mi, ms = _pairing_gathers()
    M = np.take(R, mi, axis=1) * ms  # C-ordered, unlike [:, mi]
    T = minors(g, 2) @ M / vol[:, None, None]
    I = np.eye(comb(7, 2))
    return (I + T) / 3.0, (2.0 * I - T) / 3.0


def standard_g2_point():
    """The canonical structure; its induced metric is the identity."""
    return G2Point.from_rho(KForm.from_terms(7, RHO_STD_TERMS))


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


def is_associative_subspace(point, basis):
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
            if point.norm(w - proj @ w) > UNIT_TOL:
                return False
    return True


# ---------------------------------------------------------------------------
# SU(3) structure on a unit complement


@dataclass(eq=False)
class Su3Frame:
    """Hermitian data on the g-orthogonal complement of a unit vector.

    ``basis`` holds six g-orthonormal columns spanning v-perp; all member
    forms and maps are written in that basis.  The rows of ``b10`` are a
    Hermitian-orthonormal basis of the i-eigenspace of I, and their
    conjugates ``b01`` one of the (0,1) vectors.  ``Omega = Omega_re + i
    Omega_im`` is of type (3,0) for I: contracting with any (0,1)-vector
    gives zero.
    """

    basis: np.ndarray
    omega: KForm
    I: np.ndarray
    b10: np.ndarray  # (3, 6) complex rows
    Omega_re: KForm
    Omega_im: KForm

    @property
    def b01(self):
        return np.conj(self.b10)


def su3_structures(G, Ginv, R, S, V):
    """SU(3) frames on v-perp as the stacks (W, I, b10, omega, Omega_re,
    Omega_im) of `Su3Frame`'s fields, one per row of the metrics G, inverses
    Ginv, 3-forms R, their Hodge duals S and g-unit vectors V.

    omega is the restriction of rho . v; I w = v x w satisfies
    omega(x, y) = g(I x, y); Omega restricts rho and the contraction of
    the 4-form, with the sign of the imaginary part fixed so Omega is of
    type (3,0) for I.  Every step runs over the whole block, and row i
    equals the one-row call bit for bit: each stacked product sees, per
    row, operands of the layout of the one-row expression (see
    docs/CONVENTIONS.md, row independence).
    """
    V = np.asarray(V, dtype=float)
    vg = V[:, None] @ G  # (N, 1, 7)
    if not (abs((vg @ V[:, :, None])[:, 0, 0] - 1.0) <= UNIT_TOL).all():  # a NaN v fails too
        raise NonUnitVectorError("v must be a g-unit vector")
    W = _complement_bases(G, V, vg)
    omega = _pullbacks(minors(W, 2), contract_stack(R, V, 7, 3))
    # I in the W basis: I[a, b] = g(w_a, v x w_b)
    cross = np.einsum("nijm,nkm->nijk", dense_stack(R, 7, 3), Ginv)
    I6 = W.transpose(0, 2, 1) @ G @ np.einsum("nijk,ni,njb->nkb", cross, V, W)
    if (np.abs(I6 @ I6 + np.eye(6)) > UNIT_TOL).any():
        raise G2StructureError("complex structure does not square to -Id")
    b10 = _eigenrows(I6)
    W3 = minors(W, 3)
    Omega_re = _pullbacks(W3, R)
    Omega_im = -1.0 * _pullbacks(W3, contract_stack(S, V, 7, 4))
    _check_su3_frames(omega, I6, b10, Omega_re, Omega_im)
    return W, I6, b10, omega, Omega_re, Omega_im


def su3_structure(point, v):
    """SU(3) frame on v-perp for a g-unit vector v: the N = 1 view of `su3_structures`."""
    R, g, ginv, _ = point.stacks
    S, V = point.rho_star.coeffs[None], np.asarray(v, dtype=float)[None]
    W, I, b10, omega, re, im = (s[0] for s in su3_structures(g, ginv, R, S, V))
    return Su3Frame(W, KForm(6, 2, omega), I, b10, KForm(6, 3, re), KForm(6, 3, im))


def _pullbacks(Wk, C):
    """Pullbacks of the forms C (N, C(7, k)) by frames with compound matrices Wk, as `transform`."""
    return (Wk.transpose(0, 2, 1) @ C[:, :, None])[..., 0]


def _complement_bases(G, V, vg):
    """Deterministic g-orthonormal bases (N, 7, 6) of the v-perps, by a
    pivoted Gram-Schmidt that keeps each row's pivots.  cand[n, :, j] is the
    g-projection of e_j; every product takes these columns as strided views,
    the layout of the one-row sweep, and the taken columns are masked out."""
    N = len(V)
    cand = np.eye(7) - V[:, :, None] * vg
    taken = np.zeros((N, 7), dtype=bool)
    rows = np.arange(N)
    W = np.empty((N, 7, 6))
    for s in range(6):
        cols = cand.transpose(0, 2, 1)[:, :, None]  # (N, 7, 1, 7): the columns as rows
        cg = cols @ G[:, None]  # cand[:, j] @ g for every j
        norms = (cg @ cols.transpose(0, 1, 3, 2))[..., 0, 0]
        norms[taken] = -np.inf
        k = np.argmax(norms, axis=1)
        u = cand[rows, :, k] / np.sqrt(norms[rows, k])[:, None]
        W[:, :, s] = u
        taken[rows, k] = True
        cand = cand - u[:, :, None] * (cg @ u[:, None, :, None])[..., 0, 0][:, None, :]
    return W


def _eigenrows(I6):
    """Hermitian-orthonormal bases (N, 3, 6) of the i-eigenspaces of I6
    (N, 6, 6): a Hermitian Gram-Schmidt sweep over the (1,0) candidates
    (e_a - i I e_a)/sqrt(2) keeps exactly one of each conjugate-parallel
    pair, each row its own kept rows."""
    N = len(I6)
    kept = np.zeros((N, 6, 6), dtype=complex)
    count = np.zeros(N, dtype=int)
    for a in range(6):
        c = (np.eye(6)[a] - 1j * I6[:, :, a]) / np.sqrt(2.0)
        for t in range(count.max(initial=0)):
            r = kept[:, t]
            proj = np.conj(r)[:, None] @ c[:, :, None]
            c = np.where((t < count)[:, None], c - proj[:, 0] * r, c)
        re, im = c.real, c.imag  # the complex norm as np.linalg.norm forms it
        n = np.sqrt(re[:, None] @ re[:, :, None] + im[:, None] @ im[:, :, None])[:, 0, 0]
        keep = n > 0.5
        kept[keep, count[keep]] = c[keep] / n[keep, None]
        count += keep
    if (count != 3).any():
        raise G2StructureError("eigenbasis extraction failed")
    return kept[:, :3]


def _check_su3_frames(omega, I, b10, Omega_re, Omega_im):
    """The frame invariants of a block, each one array reduction."""
    # omega(x, y) = g(I x, y) in the orthonormal frame
    if (np.abs(dense_stack(omega, 6, 2) - I.transpose(0, 2, 1)) > UNIT_TOL).any():
        raise G2StructureError("omega and I are inconsistent")
    # (3,0): Omega(b01_r, ., .) = 0 for the (0,1) basis
    Omega = dense_stack(Omega_re, 6, 3) + 1j * dense_stack(Omega_im, 6, 3)
    if (np.abs(np.conj(b10) @ Omega.reshape(-1, 6, 36)) > UNIT_TOL).any():
        raise G2StructureError("Omega has a component of wrong type")
    # Omega ^ conj(Omega) = -2i Re ^ Im must be a nonzero multiple of vol
    ia, ib, _, sg = _wedge_table(6, 3, 3)
    if (np.abs((Omega_re[:, ia] * Omega_im[:, ib]) @ sg) < 0.5).any():
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
