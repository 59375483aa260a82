"""Connections on bundles over the 7-torus: the 14-component curvature
test, the CR Dolbeault operator along the twistor distribution, and the
(0,2)-curvature residual of pulled-back connections.

Curvature 2-forms are stored as arrays of shape (21, r, r): one
anti-Hermitian r x r matrix per increasing index pair.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .fields import central_difference
from .forms import KForm, contract, minors
from .pointwise import hodge_type_on_complement, lambda2_projectors
from .twistor import _PAIR_I, _PAIR_J, _brackets, _extension_values

AXES = np.eye(7)
#: the increasing index pairs (i, j), the form index of a (21, r, r) curvature
_PAIRS = np.triu_indices(7, 1)
CONNECTION_FAMILIES = ("flat", "const-14", "const-7", "mixed")
#: the verdicts: a G2-instanton has f7 residuals, a CR-holomorphic connection CR residuals, at most these
F7_TOL = CR_TOL = 1e-8


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

    def curvature(self, p, h):
        p = np.asarray(p, dtype=float)
        if self.curvature_analytic is not None:
            return np.asarray(self.curvature_analytic(p))
        if self.potential is None:
            raise ConnectionDataError("connection has neither potential nor curvature")
        return self.curvature_differenced(p, h)

    def curvature_differenced(self, p, h):
        if self.potential is None:
            raise ConnectionDataError("no potential to difference")
        p = np.asarray(p, dtype=float)
        A = np.asarray(self.potential(p))
        # dA[i, j] = d_i A_j, the potential evaluated at one stacked point per row
        dA = central_difference(
            lambda Q: np.array([self.potential(q) for q in Q], dtype=complex), (p,), (AXES,), h
        )
        i, j = _PAIRS
        return dA[i, j] - dA[j, i] + A[i] @ A[j] - A[j] @ A[i]


def dense_curvature(F):
    """Dense antisymmetric (..., 7, 7, r, r) arrays of (..., 21, r, r) curvatures."""
    i, j = _PAIRS
    out = np.zeros(F.shape[:-3] + (7, 7) + F.shape[-2:], dtype=complex)
    out[..., i, j, :, :], out[..., j, i, :, :] = F, -F
    return out


# ---------------------------------------------------------------------------
# connection families (constant-curvature abelian ones are the workhorses)


def _abelian_from_2form(coeffs, label):
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
        return _abelian_from_2form(np.zeros(21), "flat")
    if family == "const-14":
        coeffs = point.lambda2_basis_14[:, index].copy()
        return _abelian_from_2form(coeffs, "const-14")
    if family == "const-7":
        coeffs = contract(point.rho, AXES[vector]).coeffs
        return _abelian_from_2form(coeffs, "const-7")
    coeffs = point.lambda2_basis_14[:, index] + mix * contract(point.rho, AXES[vector]).coeffs
    return _abelian_from_2form(coeffs, "mixed")


# ---------------------------------------------------------------------------
# instanton test


def f7_residuals(R, g, ginv, vol, F):
    """Per row of the stacks (R, g, ginv, vol) of `StructureField.point_stacks`,
    the norm of the 7-part of its (21, r, r) curvature, F stacked (N, 21, r, r):
    metric Gram on the form index, Frobenius on the bundle indices.  Row i
    equals the one-point call bit for bit."""
    if not len(R):
        return []
    P7, _ = lambda2_projectors(R, g, vol)
    gram = minors(ginv, 2)
    F7 = np.einsum("nIJ,nJab->nIab", P7, F)
    val = np.einsum("nIab,nIJ,nJab->n", np.conj(F7), gram, F7).real
    return [float(np.sqrt(max(v, 0.0))) for v in val]


def f7_residual(point, F):
    """Norm of the 7-part of a (21, r, r) curvature F at a G2 point: the
    N = 1 view of `f7_residuals`."""
    return f7_residuals(*point.stacks, np.asarray(F)[None])[0]


def is_g2_instanton(field, conn, sample_points):
    """(max residual <= F7_TOL, max residual): residual is the norm of the 7-part
    of the curvature at each sample; one `point_stacks` pass serves all samples."""
    P = np.asarray(sample_points, dtype=float).reshape(-1, 7)
    F = np.array([conn.curvature(p, field.h) for p in P])
    worst = max(f7_residuals(*field.point_stacks(P)[:4], F), default=0.0)
    return worst <= F7_TOL, worst


# ---------------------------------------------------------------------------
# CR Dolbeault operators


def cr_dolbeault_on_functions(field, tp, f):
    """(d-bar f)(b) = derivative of f along each (0,1) basis vector."""
    return np.array([central_difference(f, (tp.m, tp.x), t, field.h) for t in tp.tangents_01])


def _dbar_squared(field, tp, sections, potential):
    """Per section s, (d-bar^2 s)(b_i, b_j) for the (0,1) pairs i < j, by the
    Cartan pattern on 1-covectors (d-bar a)(b1, b2) = -b1 a(b2) + b2 a(b1) +
    a([b1, b2]) applied to a = d-bar s: -nabla_i nabla_j s + nabla_j nabla_i s
    + nabla_[b_i, b_j] s.  Each s(m, x) is a section of the pulled-back bundle
    with connection potential(p) -> (7, r, r); potential None is the trivial
    bundle (a function s, no connection term).  The inner derivatives run
    along the cr01 extensions of the b_j; the three brackets come from one
    kernel pass that every section shares."""
    tangents = tp.tangents_01
    at = (tp.m, tp.x)
    brackets = _brackets(field, tp.rows, tangents[None], "transport", "cr01")[0]

    def nabla(s, vec, m, x):
        der = central_difference(s, (m, x), vec, field.h)
        if potential is None:
            return der
        return der + np.einsum("iab,i,b->a", np.asarray(potential(m)), vec[0], s(m, x))

    def eta(section, j):
        return lambda m, x: nabla(section, _ext_tangent(field, tp, tangents[j], m, x), m, x)

    return [
        [
            -nabla(eta(s, j), tangents[i], *at) + nabla(eta(s, i), tangents[j], *at) + nabla(s, br, *at)
            for i, j, br in zip(_PAIR_I, _PAIR_J, brackets)
        ]
        for s in sections
    ]


def dolbeault_square_function_residual(field, tp, f):
    """Max over (0,1) pairs of the degree-2 operator applied twice to f:
    `_dbar_squared` on the trivial bundle, identically zero in the continuum."""
    return max(0.0, *(abs(v) for v in _dbar_squared(field, tp, [f], None)[0]))


def _ext_tangent(field, tp, vec, m, x):
    """The cr01 section extension of vec from tp, evaluated at ambient (m, x)."""
    base0, vert0 = np.asarray(vec[0])[None, None], tp.vertical_part(vec)[None, None]
    P, Y = m[None], x[None]
    return _extension_values(field, np.zeros(1, int), tp.rows, base0, vert0, P, Y, "transport", "cr01")[0, 0]


def cr_holomorphicity_residuals(tps, F):
    """Per twistor point of the record tps, the aggregated (0,2)-norm of the
    pulled-back curvature on the (0,1) basis: sqrt(sum over pairs |F(b_i, b_j)|_Frob^2),
    F the (N, 21, r, r) curvatures at the base points, as `f7_residuals` takes
    them.  Row i equals the one-point call bit for bit.

    For a rank-1 curvature i*beta this equals the (0,2)-part norm
    |beta^{0,2}| of the restriction of beta to the fiber complement, i.e.
    the (2,0)+(0,2) output of hodge_type_on_complement divided by sqrt(2).
    """
    tps = tps.rows
    if not tps:
        return []
    F = dense_curvature(F)
    wbar = tps.wbar
    total = 0.0
    for i, j in zip(_PAIR_I, _PAIR_J):
        val = np.einsum("nijab,ni,nj->nab", F, wbar[:, i], wbar[:, j])
        total = total + np.sum((np.abs(val) ** 2).reshape(len(tps), -1), axis=1)
    return [float(v) for v in np.sqrt(total)]


def cr_holomorphicity_residual(field, conn, tp):
    """Aggregated (0,2)-norm of the pulled-back curvature on the (0,1) basis:
    the N = 1 view of `cr_holomorphicity_residuals`."""
    return cr_holomorphicity_residuals(tp, conn.curvature(tp.m, field.h)[None])[0]


def hodge_type_cr_residual(field, conn, tp):
    """Second computation path for rank-1 connections: the (0,2)-norm of
    the curvature 2-form restricted to the fiber complement, via the
    pointwise type decomposition."""
    if conn.rank != 1:
        raise ConnectionDataError("hodge-type path applies to rank-1 connections")
    F = conn.curvature(tp.m, field.h)[:, 0, 0]
    beta = KForm(7, 2, F.imag) if np.abs(F.real).max() < 1e-12 else None
    if beta is None:
        raise ConnectionDataError("rank-1 curvature must be purely imaginary")
    p2002, _, _ = hodge_type_on_complement(tp.point, beta, tp.x, frame=tp.su3)
    return p2002 / np.sqrt(2.0)


def dolbeault_square_section_residual(field, conn, tp):
    """Operator-level d-bar^2 on constant sections of the pulled-back
    bundle, compared against the curvature route: the residual of
    (d-bar^2 xi)(b_i, b_j) + F(b_i, b_j) xi.
    """
    wbar = tp.wbar
    F = dense_curvature(conn.curvature(tp.m, field.h))
    xis = np.eye(conn.rank, dtype=complex)
    sections = [lambda m, x, xi0=xi0: xi0 for xi0 in xis]
    worst = 0.0
    for xi0, dbar2 in zip(xis, _dbar_squared(field, tp, sections, conn.potential)):
        for i, j, val in zip(_PAIR_I, _PAIR_J, dbar2):
            fval = np.einsum("ijab,i,j,b->a", F, wbar[i], wbar[j], xi0)
            worst = max(worst, float(np.abs(val + fval).max()))
    return worst
