"""Slow, independent reference implementations used as test oracles.

Everything here goes through explicit permutation sums, so the fast
coefficient pipelines in the package are checked against a genuinely
different algorithm rather than against themselves.
"""

import functools
import itertools

import numpy as np

from g2twistor.fields import central_difference
from g2twistor.forms import KForm, contract, increasing_indices


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
