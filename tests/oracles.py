"""Slow, independent reference implementations used as test oracles.

Everything here goes through explicit permutation sums, so the fast
coefficient pipelines in the package are checked against a genuinely
different algorithm rather than against themselves.
"""

import functools
import itertools
from math import comb

import numpy as np

from g2twistor.fields import AXES, _d_from_partials, central_difference, christoffels
from g2twistor.forms import (
    KForm,
    _contract_table,
    _wedge_table,
    contract,
    dense_stack,
    increasing_indices,
    minors,
    transform,
)
from g2twistor.instanton import dense_curvature
from g2twistor.pointwise import _pairing_gathers, induced_metrics, structure_stacks


def inversion_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def det_perm(M):
    """Determinant as an explicit permutation sum."""
    n = M.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(n)):
        term = 1.0
        for i, p in enumerate(perm):
            term = term * M[i, p]
            if term == 0.0:
                break
        else:  # the sign is only needed for a nonzero product
            total += inversion_sign(perm) * term
    return total


def eval_form(form, vectors):
    """Evaluate through minors computed by permutation sums."""
    V = np.array(vectors, dtype=float).reshape(-1, form.dim).T
    total = 0.0
    for pos, I in enumerate(increasing_indices(form.dim, form.degree)):
        c = form.coeffs[pos]
        if c != 0.0:
            total += c * det_perm(V[list(I), :])
    return total


def wedge_eval(a, b, vectors):
    """(a ^ b)(v_1..v_{p+q}) as a shuffle sum of separate evaluations."""
    p, q = a.degree, b.degree
    total = 0.0
    for subset in itertools.combinations(range(p + q), p):
        rest = tuple(i for i in range(p + q) if i not in subset)
        sign = inversion_sign(subset + rest)
        total += sign * eval_form(a, [vectors[i] for i in subset]) * eval_form(
            b, [vectors[i] for i in rest]
        )
    return total


def interior_eval(a, v, vectors):
    """(a . v)(x_2..x_k) = a(v, x_2, ..., x_k), straight from the definition."""
    return eval_form(a, [v] + list(vectors))


def form_inner(a, b, ginv):
    """<a, b> via minors of the inverse metric, permutation-sum determinants."""
    total = 0.0
    for pa, I in enumerate(increasing_indices(a.dim, a.degree)):
        if a.coeffs[pa] == 0.0:
            continue
        for pb, J in enumerate(increasing_indices(b.dim, b.degree)):
            if b.coeffs[pb] == 0.0:
                continue
            total += a.coeffs[pa] * b.coeffs[pb] * det_perm(ginv[np.ix_(I, J)])
    return total


def hodge_by_solving(a, g_entries, orientation=1):
    """Hodge star from its defining identity, solved as a linear system:
    for every basis form e^I,  (e^I ^ *a)_top = <e^I, a> * or * sqrt(det g).
    """
    n, k = a.dim, a.degree
    ginv = np.linalg.inv(g_entries)
    sdet = np.sqrt(det_perm(np.asarray(g_entries, dtype=float)))
    rhs = np.array([form_inner(KForm.basis(n, I), a, ginv) for I in increasing_indices(n, k)])
    coeffs = np.linalg.solve(_basis_wedge_pairing(n, k), rhs * sdet * orientation)
    return KForm(n, n - k, coeffs)


@functools.lru_cache(maxsize=None)
def _basis_wedge_pairing(n, k):
    """P[I, K] = (e^I ^ e^K)(e_1, ..., e_n) over basis k- and (n-k)-forms."""
    rows_in = increasing_indices(n, k)
    rows_out = increasing_indices(n, n - k)
    P = np.zeros((len(rows_in), len(rows_out)))
    basis_vecs = list(np.eye(n))
    for i, I in enumerate(rows_in):
        eI = KForm.basis(n, I)
        for j, K in enumerate(rows_out):
            P[i, j] = wedge_eval(eI, KForm.basis(n, K), basis_vecs)
    return P


def derivation_eval(a, A, vectors):
    """(A.a)(x_1..x_k) = sum_i a(x_1, ..., A x_i, ..., x_k) by evaluation."""
    total = 0.0
    for r in range(len(vectors)):
        vv = [np.asarray(v, dtype=float) for v in vectors]
        vv[r] = np.asarray(A) @ vv[r]
        total += eval_form(a, vv)
    return total


def lambda2_projectors_by_basis(point):
    """(P7, P14) = Q Q^T gram2 from g-orthonormal bases: Q7 of the image of
    v -> rho . v and Q14 of the stabilizer algebra lowered through g."""
    gram2 = point.metric.gram(2)
    S7 = np.column_stack([contract(point.rho, e).coeffs for e in np.eye(7)])
    w, U = np.linalg.eigh(S7.T @ gram2 @ S7)
    Q7 = S7 @ U / np.sqrt(w)
    Q14 = point.lambda2_basis_14
    return Q7 @ Q7.T @ gram2, Q14 @ Q14.T @ gram2


def curvature_by_axis_loop(conn, p, h):
    """F_ij = d_i A_j - d_j A_i + [A_i, A_j] over increasing pairs, one
    central difference per axis and one pair at a time."""
    A = np.asarray(conn.potential(p))
    dA = np.empty((7, 7, conn.rank, conn.rank), dtype=complex)
    for i, e in enumerate(np.eye(7)):
        dA[i] = central_difference(lambda q: np.asarray(conn.potential(q)), (p,), (e,), h)
    pairs = increasing_indices(7, 2)
    F = np.empty((len(pairs), conn.rank, conn.rank), dtype=complex)
    for a, (i, j) in enumerate(pairs):
        F[a] = dA[i][j] - dA[j][i] + A[i] @ A[j] - A[j] @ A[i]
    return F


def su3_frame_by_rows(point, v):
    """The arrays (basis, I, b10, omega, Omega_re, Omega_im) of the SU(3)
    frame on v-perp, one column and one candidate at a time: a pivoted
    Gram-Schmidt of the g-projected coordinate vectors, then a Hermitian
    sweep over (e_a - i I e_a)/sqrt(2) keeping the rows of norm above 1/2."""
    g = point.g
    cand = np.eye(7) - np.outer(v, v @ g)
    cols, remaining = [], list(range(7))
    for _ in range(6):
        k = remaining[int(np.argmax([cand[:, j] @ g @ cand[:, j] for j in remaining]))]
        u = cand[:, k] / np.sqrt(cand[:, k] @ g @ cand[:, k])
        cols.append(u)
        remaining.remove(k)
        for j in remaining:
            cand[:, j] = cand[:, j] - (cand[:, j] @ g @ u) * u
    W = np.column_stack(cols)
    I6 = W.T @ g @ np.einsum("ijk,i,jb->kb", point.cross_tensor, v, W)
    rows = []
    for a in range(6):
        c = (np.eye(6)[a] - 1j * I6[:, a]) / np.sqrt(2.0)
        for r in rows:
            c = c - (np.conj(r) @ c) * r
        n = np.linalg.norm(c)
        if n > 0.5:
            rows.append(c / n)
    omega = transform(contract(point.rho, v), W).coeffs
    Omega_im = -1.0 * transform(contract(point.rho_star, v), W).coeffs
    return W, I6, np.array(rows), omega, transform(point.rho, W).coeffs, Omega_im


def cr_residual_by_pairs(conn, tp, h):
    """sqrt(sum over (0,1) pairs of |F(b_i, b_j)|^2), one pair at a time."""
    F = dense_curvature(conn.curvature(tp.m, h))
    total = 0.0
    for i, j in itertools.combinations(range(3), 2):
        val = np.einsum("ijab,i,j->ab", F, tp.wbar[i], tp.wbar[j])
        total += float(np.sum(np.abs(val) ** 2))
    return float(np.sqrt(total))


def f7_residual_by_point(point, F):
    """|P7 F| with P7 = (I + T)/3 built from one point's own tensors."""
    _, _, mi, ms = _pairing_gathers()
    T = minors(point.g, 2) @ (point.rho.coeffs[mi] * ms) / (point.orientation * point.metric.sqrt_det)
    F7 = np.einsum("IJ,Jab->Iab", (np.eye(21) + T) / 3.0, F)
    val = np.einsum("Iab,IJ,Jab->", np.conj(F7), point.metric.gram(2), F7).real
    return float(np.sqrt(max(val, 0.0)))


def metrics_without_reuse(field, P):
    """(g, orientation) at the rows of P from one induced-metric pass over all
    of them, repeated 3-forms included."""
    return induced_metrics(field.rho_coeffs(P))


def point_stacks_without_reuse(field, P):
    """Stacks (rho, g, g^-1, orientation * sqrt(det g), rho_star) at the rows
    of P, every row through its own induced-metric and Hodge-star rows."""
    R = field.rho_coeffs(P)
    return (R, *structure_stacks(R))


def christoffel_terms_without_reuse(field, P, h):
    """(g^-1, terms) at the rows of P, terms[n, i, j, l] = d_i g_jl + d_j g_il
    - d_l g_ij, every stencil row through its own induced-metric row."""

    def metrics(Q):
        return metrics_without_reuse(field, Q.reshape(-1, 7))[0].reshape(Q.shape + (7,))

    dg = central_difference(metrics, (P[:, None],), (AXES,), h)
    terms = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    return np.linalg.inv(metrics_without_reuse(field, P)[0]), terms


def christoffels_without_reuse(field, P, h):
    """Christoffel symbols (N, 7, 7, 7) at the rows of P, every stencil row
    through its own induced-metric row, raised by the kernel's product."""
    ginv, terms = christoffel_terms_without_reuse(field, P, h)
    return 0.5 * (ginv @ terms.reshape(-1, 49, 7).transpose(0, 2, 1)).reshape(-1, 7, 7, 7)


def torsion_residuals_without_reuse(field, P, h):
    """(|d rho|, |d *rho|) at the rows of P, the Hodge star taken on every
    stencil row."""

    def rho_and_star(Q):
        R = field.rho_coeffs(Q.reshape(-1, 7))
        return np.concatenate([R, structure_stacks(R)[3]], axis=1).reshape(Q.shape[:-1] + (70,))

    partials = central_difference(rho_and_star, (P[:, None],), (AXES,), h)
    d_rho = _d_from_partials(partials[..., :35], 3)
    d_star = _d_from_partials(partials[..., 35:], 4)
    return [(float(np.linalg.norm(a)), float(np.linalg.norm(b))) for a, b in zip(d_rho, d_star)]


def omega_values_dense(field, P, Y, B):
    """Omega at the ambient points (P, Y) on the base parts B (R, 3, 7), row
    by row, as full contractions of the dense rho and *rho arrays (7^3 and
    7^4 entries a row) with the vectors."""
    R = field.rho_coeffs(P)
    b1, b2, b3 = B[:, 0], B[:, 1], B[:, 2]
    re = np.einsum("nijk,ni,nj,nk->n", dense_stack(R, 7, 3), b1, b2, b3)
    im = -np.einsum("nijkl,ni,nj,nk,nl->n", dense_stack(structure_stacks(R)[3], 7, 4), Y, b1, b2, b3)
    return re + 1j * im


def central_difference_two_calls(f, at, direction, h):
    """(f(*(a + h d)) - f(*(a - h d))) / 2h with one call of f per stencil
    side and per part of a complex direction, whatever the shape of the bases."""
    direction = np.asarray(direction)

    def diff(d):
        plus = f(*(a + h * di for a, di in zip(at, d)))
        minus = f(*(a - h * di for a, di in zip(at, d)))
        return (plus - minus) / (2.0 * h)

    out = diff(direction.real)
    if np.iscomplexobj(direction) and np.abs(direction.imag).max() > 0.0:
        out = out + 1j * diff(direction.imag)
    return out


def contract_stack_add_at(A, V, dim, degree):
    """Interior products of stacked forms A with the vectors V, row by row,
    the terms of each entry added into zeros by `np.add.at` in table order."""
    comp, src, dst, sg = _contract_table(dim, degree)
    out = np.zeros((len(A), comb(dim, degree - 1)))
    np.add.at(out, (slice(None), dst), sg * V[:, comp] * A[:, src])
    return out


def d_from_partials_add_at(partials, degree):
    """sum_i e^i ^ d_i a from stacked partials (N, 7, C(7, k)), the terms of
    each entry added into zeros by `np.add.at` in table order."""
    ia, ib, io, sg = _wedge_table(7, 1, degree)
    out = np.zeros((len(partials), comb(7, degree + 1)))
    np.add.at(out, (slice(None), io), sg * partials[:, ia, ib])
    return out


# ---------------------------------------------------------------------------
# the twistor contractions as single einsums (the kernels contract the vector
# operands first, in stacked matrix products)


def hor_fibers_einsum(gamma, y, b):
    """-Gamma(b, y) row by row: the fiber components of the horizontal lifts of
    the base vectors b at the fibers y."""
    return -np.einsum("nkij,ni,nj->nk", gamma, b, y)


def lifts_einsum(gamma, V, X):
    """-Gamma(v_a, x) for the vectors V (N, a, 7) of each point at its fiber X (N, 7)."""
    return -np.einsum("nkij,nai,nj->nak", gamma, V, X)


def christoffels_einsum(ginv, terms):
    """1/2 g^{kl} terms[i, j, l] row by row: the Christoffel symbols from their terms."""
    return 0.5 * np.einsum("nkl,nijl->nkij", ginv, terms)


def cross_products_einsum(R, ginv, xhat, b):
    """xhat x b row by row, through the dense (N, 7, 7, 7) stack of the 3-forms R
    raised with g^-1."""
    cross = np.einsum("nijm,nkm->nijk", dense_stack(R, 7, 3), ginv)
    return np.einsum("nijk,ni,nj->nk", cross, xhat, b)


def curvature_vectors_einsum(riemann, wi, wj, x):
    """The lowered R(wi, wj) x row by row, over one curvature row per vector triple."""
    return np.einsum("nijkl,ni,nj,nl->nk", riemann, wi, wj, x)


def extension_values_einsum(field, rows, tps, base0, vert0, P, Y, carrier, projection):
    """`twistor._extension_values` with its Gamma(b, y) and cross-product
    contractions taken by the einsums above."""
    gamma, g = christoffels(field, P)
    yg = Y[:, None] @ g
    yy = yg @ Y[:, :, None]
    xhat = Y / np.sqrt(yy[:, 0])
    values = []
    for b, vert in zip(base0.swapaxes(0, 1), vert0.swapaxes(0, 1)):
        if carrier == "parallel":
            b = b + hor_fibers_einsum(tps.gamma[rows], b, P - tps.m[rows])
        if projection != "none":
            b = b - ((yg @ b[:, :, None]) / yy)[:, 0] * Y
            if projection in ("cr01", "cr10"):
                Ib = cross_products_einsum(field.rho_coeffs(P), np.linalg.inv(g), xhat, b)
                b = 0.5 * (b + 1j * Ib) if projection == "cr01" else 0.5 * (b - 1j * Ib)
        vt = vert - ((yg @ vert[:, :, None]) / yy)[:, 0] * Y
        values.append(np.stack([b, hor_fibers_einsum(gamma, Y, b) + vt], axis=1))
    return np.stack(values, axis=1)


def vertical_curvature_obstructions_einsum(tps, riemann):
    """Per point of the record tps, the max over (0,1)-pairs of |R(wbar_i, wbar_j) x|_g
    from the lowered curvature riemann (N, 7, 7, 7, 7), gathered once per pair."""
    rep = np.repeat(np.arange(len(tps)), 3)
    wbar = tps.wbar
    wi, wj = wbar[:, [0, 0, 1]].reshape(-1, 7), wbar[:, [1, 2, 2]].reshape(-1, 7)
    v = tps.ginv[rep] @ curvature_vectors_einsum(riemann[rep], wi, wj, tps.x[rep])[:, :, None]
    norms = np.sqrt(np.maximum(np.real(np.conj(v).transpose(0, 2, 1) @ tps.g[rep] @ v)[:, 0, 0], 0.0))
    return norms.reshape(-1, 3).max(axis=1, initial=0.0)
