"""Connections on bundles over the 7-torus: the 14-component curvature
test, the CR Dolbeault operator along the twistor distribution, and the
(0,2)-curvature residual of pulled-back connections.

Curvature 2-forms are stored as arrays of shape (21, r, r): one
anti-Hermitian r x r matrix per increasing index pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
import numpy as np

from .fields import central_difference
from .forms import KForm, contract, increasing_indices
from .pointwise import hodge_type_on_complement
from .twistor import _extension_value, cr_splitting, frobenius_bracket

AXES = np.eye(7)
PAIRS2 = tuple(increasing_indices(7, 2))
CONNECTION_FAMILIES = ("flat", "const-14", "const-7", "mixed")


class ConnectionDataError(ValueError):
    pass


@dataclass(eq=False)
class ConnectionData:
    """A connection given by a potential and/or a curvature evaluator.

    potential(p) -> (7, rank, rank) complex: the 1-form components A_i(p),
    anti-Hermitian in the bundle indices.  curvature_analytic(p) -> (21,
    rank, rank).  When only the potential is given, the curvature is
    differenced: F_ij = d_i A_j - d_j A_i + [A_i, A_j].
    """

    rank: int
    potential: object = None
    curvature_analytic: object = None
    label: str = ""
    params: dict = dc_field(default_factory=dict)

    def curvature(self, p, h=1e-4):
        p = np.asarray(p, dtype=float)
        if self.curvature_analytic is not None:
            return np.asarray(self.curvature_analytic(p))
        if self.potential is None:
            raise ConnectionDataError("connection has neither potential nor curvature")
        return self.curvature_differenced(p, h)

    def curvature_differenced(self, p, h=1e-4):
        if self.potential is None:
            raise ConnectionDataError("no potential to difference")
        p = np.asarray(p, dtype=float)
        A = np.asarray(self.potential(p))
        dA = np.empty((7, 7, self.rank, self.rank), dtype=complex)
        for i in range(7):
            dA[i] = central_difference(
                lambda q: np.asarray(self.potential(q)), (p,), (AXES[i],), h
            )
        F = np.empty((len(PAIRS2), self.rank, self.rank), dtype=complex)
        for a, (i, j) in enumerate(PAIRS2):
            F[a] = dA[i][j] - dA[j][i] + A[i] @ A[j] - A[j] @ A[i]
        return F

    def curvature_dense(self, p, h=1e-4):
        """Dense antisymmetric (7, 7, rank, rank) curvature array."""
        F = self.curvature(p, h)
        i, j = np.triu_indices(7, 1)  # PAIRS2, in the same order
        out = np.zeros((7, 7, self.rank, self.rank), dtype=complex)
        out[i, j], out[j, i] = F, -F
        return out


# ---------------------------------------------------------------------------
# connection families (constant-curvature abelian ones are the workhorses)


def _abelian_from_2form(coeffs, label, params):
    """Rank-1 connection with constant curvature i * (the given 2-form),
    realized by the chart-local linear potential A_j = i/2 sum_i f_ij p_i."""
    dense = KForm(7, 2, coeffs).as_matrix()

    def potential(p):
        vals = 0.5j * (np.asarray(p) @ dense)
        return vals.reshape(7, 1, 1)

    def curvature(_p):
        return 1j * coeffs.reshape(-1, 1, 1)

    return ConnectionData(
        rank=1,
        potential=potential,
        curvature_analytic=curvature,
        label=label,
        params=params,
    )


def make_connection(family, point, index=0, vector=0, mix=0.0):
    """Named families keyed for the batch driver.

    flat: zero connection; const-14: curvature from the point's computed
    14-part basis (by index); const-7: curvature rho . e_vector; mixed:
    const-14 plus mix * const-7.
    """
    if family not in CONNECTION_FAMILIES:
        raise ConnectionDataError(f"unknown connection family {family!r}")
    if not 0 <= index < 14:
        raise ConnectionDataError(f"index must be in 0..13, got {index}")
    if not 0 <= vector < 7:
        raise ConnectionDataError(f"vector must be in 0..6, got {vector}")
    if family == "flat":
        return ConnectionData(
            rank=1,
            potential=lambda p: np.zeros((7, 1, 1), dtype=complex),
            curvature_analytic=lambda p: np.zeros((21, 1, 1), dtype=complex),
            label="flat",
            params={},
        )
    if family == "const-14":
        coeffs = point.lambda2_basis_14[:, index].copy()
        return _abelian_from_2form(coeffs, "const-14", {"index": index})
    if family == "const-7":
        coeffs = contract(point.rho, AXES[vector]).coeffs
        return _abelian_from_2form(coeffs, "const-7", {"vector": vector})
    coeffs = point.lambda2_basis_14[:, index] + mix * contract(point.rho, AXES[vector]).coeffs
    return _abelian_from_2form(coeffs, "mixed", {"index": index, "vector": vector, "mix": mix})


# ---------------------------------------------------------------------------
# instanton test


def _gram_norm(F, gram):
    """Norm of a (21, r, r) curvature: metric Gram on the form index,
    Frobenius on the bundle indices."""
    val = np.einsum("Iab,IJ,Jab->", np.conj(F), gram, F).real
    return float(np.sqrt(max(val, 0.0)))


def is_g2_instanton(field, conn, sample_points, tol=1e-8, h=None):
    """(verdict, max residual): residual is the norm of the 7-part of the
    curvature at each sample."""
    h = field.h if h is None else h
    worst = 0.0
    for p in sample_points:
        point = field.point_data(np.asarray(p, dtype=float))
        F = conn.curvature(p, h)
        P7, _ = point.lambda2_projectors
        F7 = np.einsum("IJ,Jab->Iab", P7, F)
        worst = max(worst, _gram_norm(F7, point.metric.gram(2)))
    return worst <= tol, worst


# ---------------------------------------------------------------------------
# CR Dolbeault operators


def cr_dolbeault_on_functions(field, tp, f, h=None):
    """(d-bar f)(b) = derivative of f along each (0,1) basis vector."""
    h = field.h if h is None else h
    tangents = cr_splitting(tp).tangents_01(tp)
    return np.array([central_difference(f, (tp.m, tp.x), t, h) for t in tangents])


def dolbeault_square_function_residual(field, tp, f, h=None):
    """Max over (0,1) pairs of the degree-2 operator applied twice to f.

    Uses the Cartan pattern on 1-covectors: (d-bar a)(b1, b2) =
    -b1 a(b2) + b2 a(b1) + a([b1, b2]); identically zero in the continuum.
    """
    h = field.h if h is None else h
    tangents = cr_splitting(tp).tangents_01(tp)

    def df_along(j):
        # b_j f as a function of the twistor point, extended like b_j itself
        def val(m, x):
            ext = _ext_tangent(field, tp, tangents[j], m, x)
            return central_difference(f, (m, x), ext, h)

        return val

    at = (tp.m, tp.x)
    worst = 0.0
    for i, j in itertools.combinations(range(len(tangents)), 2):
        term1 = -central_difference(df_along(j), at, tangents[i], h)
        term2 = central_difference(df_along(i), at, tangents[j], h)
        br = frobenius_bracket(field, tp, tangents[i], tangents[j], h=h, projection="cr01")
        term3 = central_difference(f, at, br, h)
        worst = max(worst, abs(term1 + term2 + term3))
    return worst


def _ext_tangent(field, tp, vec, m, x):
    """The cr01 section extension of vec, evaluated at ambient (m, x)."""
    return _extension_value(field, tp, vec[0], tp.vertical_part(vec), m, x, "transport", "cr01")


def cr_holomorphicity_residual(field, conn, tp, h=None):
    """Aggregated (0,2)-norm of the pulled-back curvature on the (0,1) basis:
    sqrt(sum over pairs |F(b_i, b_j)|_Frob^2).

    For a rank-1 curvature i*beta this equals the (0,2)-part norm
    |beta^{0,2}| of the restriction of beta to the fiber complement, i.e.
    the (2,0)+(0,2) output of hodge_type_on_complement divided by sqrt(2).
    """
    h = field.h if h is None else h
    F = conn.curvature_dense(tp.m, h)
    cs = cr_splitting(tp)
    wbar = np.einsum("ra,ia->ri", cs.b01, tp.w_basis)
    total = 0.0
    for i, j in itertools.combinations(range(3), 2):
        val = np.einsum("ijab,i,j->ab", F, wbar[i], wbar[j])
        total += float(np.sum(np.abs(val) ** 2))
    return float(np.sqrt(total))


def hodge_type_cr_residual(field, conn, tp, h=None):
    """Second computation path for rank-1 connections: the (0,2)-norm of
    the curvature 2-form restricted to the fiber complement, via the
    pointwise type decomposition."""
    h = field.h if h is None else h
    if conn.rank != 1:
        raise ConnectionDataError("hodge-type path applies to rank-1 connections")
    F = conn.curvature(tp.m, h)[:, 0, 0]
    beta = KForm(7, 2, F.imag) if np.abs(F.real).max() < 1e-12 else None
    if beta is None:
        raise ConnectionDataError("rank-1 curvature must be purely imaginary")
    p2002, _, _ = hodge_type_on_complement(field.point_data(tp.m), beta, tp.x, frame=tp.su3)
    return p2002 / np.sqrt(2.0)


def dolbeault_square_section_residual(field, conn, tp, h=None):
    """Operator-level d-bar^2 on constant sections of the pulled-back
    bundle, compared against the curvature route: the residual of
    (d-bar^2 xi)(b_i, b_j) + F(b_i, b_j) xi.
    """
    h = field.h if h is None else h
    cs = cr_splitting(tp)
    tangents = cs.tangents_01(tp)
    wbar = np.einsum("ra,ia->ri", cs.b01, tp.w_basis)
    F = conn.curvature_dense(tp.m, h)

    def A_at(p):
        return np.asarray(conn.potential(p))

    def nabla(j, section_fn):
        """Covariant derivative along b_j of a section-valued function."""

        def val(m, x):
            ext = _ext_tangent(field, tp, tangents[j], m, x)
            der = central_difference(section_fn, (m, x), ext, h)
            return der + np.einsum("iab,i,b->a", A_at(m), ext[0], section_fn(m, x))

        return val

    at = (tp.m, tp.x)
    worst = 0.0
    for s in range(conn.rank):
        xi0 = np.zeros(conn.rank, dtype=complex)
        xi0[s] = 1.0

        def xi(m, x):
            return xi0

        eta = [nabla(j, xi) for j in range(3)]
        for i, j in itertools.combinations(range(3), 2):
            t1 = -central_difference(eta[j], at, tangents[i], h) - np.einsum(
                "iab,i,b->a", A_at(tp.m), tangents[i][0], eta[j](tp.m, tp.x)
            )
            t2 = central_difference(eta[i], at, tangents[j], h) + np.einsum(
                "iab,i,b->a", A_at(tp.m), tangents[j][0], eta[i](tp.m, tp.x)
            )
            br = frobenius_bracket(field, tp, tangents[i], tangents[j], h=h, projection="cr01")
            t3 = central_difference(xi, at, br, h) + np.einsum(
                "iab,i,b->a", A_at(tp.m), br[0], xi0
            )
            dbar2 = t1 + t2 + t3
            fval = np.einsum("ijab,i,j,b->a", F, wbar[i], wbar[j], xi0)
            worst = max(worst, float(np.abs(dbar2 + fval).max()))
    return worst
