"""Dense coordinate exterior algebra over R^n for small n (n <= 8).

A k-form is stored as a coefficient vector over the lexicographically
ordered strictly increasing multi-indices of length k.  Every sign
computation funnels through ``sort_with_sign``: the contraction, complement
and derivation tables are read off the wedge table, so the shuffle-sign
convention lives in exactly one place.

Sign conventions (see docs/CONVENTIONS.md for the full sheet):

* contraction puts the vector in the *first* slot,
* the Hodge star is fixed by  a ^ *b = <a, b> vol  with
  vol = orientation * sqrt(det g) * e^{1...n}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np

MAX_DIM = 8
RANK_RTOL = 1e-9  # relative SVD cutoff for stabilizer rank decisions
PD_TOL = 1e-12  # positive definiteness tolerance at metric construction


class ExteriorAlgebraError(ValueError):
    """Contract violation in the exterior algebra layer."""


class DimensionMismatch(ExteriorAlgebraError):
    pass


class DegreeError(ExteriorAlgebraError):
    pass


class NotPositiveDefinite(ExteriorAlgebraError):
    pass


# ---------------------------------------------------------------------------
# multi-index bookkeeping


@lru_cache(maxsize=None)
def increasing_indices(dim, degree):
    """All strictly increasing multi-indices of the given length, lex order."""
    return tuple(itertools.combinations(range(dim), degree))


@lru_cache(maxsize=None)
def index_position(dim, degree):
    return {I: p for p, I in enumerate(increasing_indices(dim, degree))}


def sort_with_sign(indices):
    """Sort a multi-index; return (sorted tuple, permutation sign).

    A repeated index yields sign 0.
    """
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j] < idx[j - 1]:
            idx[j], idx[j - 1] = idx[j - 1], idx[j]
            sign = -sign
            j -= 1
        if j > 0 and idx[j] == idx[j - 1]:
            return None, 0
    return tuple(idx), sign


def minors(A, k):
    """k-th compound matrices of stacked n x m arrays A (..., n, m): entry
    [..., p, q] = det(A[..., I_p, J_q]) for I_p, J_q the increasing
    k-multi-indices of rows and columns.  Each entry is formed elementwise
    from its own matrix, and the result is C-ordered (a gather puts the
    stack axis innermost), so a stacked call equals the per-matrix calls bit
    for bit, layout included.  A complex stack stays complex."""
    A = np.asarray(A, dtype=complex if np.iscomplexobj(A) else float)
    if k == 0:
        return np.ones(A.shape[:-2] + (1, 1))
    if k == 1:
        return A
    n, m = A.shape[-2:]
    I = np.array(increasing_indices(n, k), dtype=int)
    J = np.array(increasing_indices(m, k), dtype=int)

    def sub(a, b):  # entry (a, b) of every k x k submatrix, gathered one at a time
        return A[..., I[:, a, None], J[:, b]]

    if k == 2:
        out = sub(0, 0) * sub(1, 1) - sub(0, 1) * sub(1, 0)
    elif k == 3:
        out = (
            sub(0, 0) * (sub(1, 1) * sub(2, 2) - sub(1, 2) * sub(2, 1))
            - sub(0, 1) * (sub(1, 0) * sub(2, 2) - sub(1, 2) * sub(2, 0))
            + sub(0, 2) * (sub(1, 0) * sub(2, 1) - sub(1, 1) * sub(2, 0))
        )
    else:
        out = np.linalg.det(A[..., I[:, None, :, None], J[None, :, None, :]])
    return np.ascontiguousarray(out)


@lru_cache(maxsize=None)
def _dense_table(dim, degree):
    """Entries (src, dst, sign) of the dense array: flat[dst] = sign * coeffs[src]."""
    src, dst, sg = [], [], []
    for p, I in enumerate(increasing_indices(dim, degree)):
        for perm in itertools.permutations(I):
            src.append(p)
            dst.append(sum(i * dim ** (degree - 1 - r) for r, i in enumerate(perm)))
            sg.append(sort_with_sign(perm)[1])
    return np.array(src, dtype=int), np.array(dst, dtype=int), np.array(sg, dtype=float)


def dense_stack(coeffs, dim, degree):
    """Antisymmetric dense arrays (..., dim, ..., dim) of coefficient rows (..., C(dim, degree))."""
    src, dst, sg = _dense_table(dim, degree)
    lead = coeffs.shape[:-1]
    out = np.zeros(lead + (dim**degree,), dtype=coeffs.dtype)
    out[..., dst] = sg * coeffs[..., src]
    return out.reshape(lead + (dim,) * degree)


# ---------------------------------------------------------------------------
# k-forms


@dataclass(frozen=True)
class KForm:
    """Antisymmetric k-linear form, dense lexicographic coefficient storage."""

    dim: int
    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        if not 2 <= self.dim <= MAX_DIM:
            raise DimensionMismatch(f"dim must be in 2..{MAX_DIM}, got {self.dim}")
        if not 0 <= self.degree <= self.dim:
            raise DegreeError(f"degree must be in 0..{self.dim}, got {self.degree}")
        c = np.asarray(self.coeffs, dtype=float)
        want = comb(self.dim, self.degree)
        if c.shape != (want,):
            raise ExteriorAlgebraError(
                f"need {want} coefficients for a {self.degree}-form on R^{self.dim}, "
                f"got shape {c.shape}"
            )
        object.__setattr__(self, "coeffs", c)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim, degree):
        return cls(dim, degree, np.zeros(comb(dim, degree)))

    @classmethod
    def basis(cls, dim, indices):
        """e^{i1} ^ ... ^ e^{ik} for a 0-based index tuple (any order)."""
        degree = len(indices)
        sorted_idx, sign = sort_with_sign(tuple(indices))
        c = np.zeros(comb(dim, degree))
        if sign:
            c[index_position(dim, degree)[sorted_idx]] = sign
        return cls(dim, degree, c)

    @classmethod
    def from_terms(cls, dim, terms):
        """Build from a {index tuple: coefficient} dict, 0-based indices."""
        degree = len(next(iter(terms)))
        c = np.zeros(comb(dim, degree))
        pos = index_position(dim, degree)
        for idx, val in terms.items():
            sorted_idx, sign = sort_with_sign(tuple(idx))
            if sign == 0:
                raise DegreeError(f"repeated index in {idx}")
            c[pos[sorted_idx]] += sign * val
        return cls(dim, degree, c)

    # -- linear structure ----------------------------------------------------

    def _check_same_space(self, other):
        if self.dim != other.dim or self.degree != other.degree:
            raise DimensionMismatch("forms live in different spaces")

    def __add__(self, other):
        self._check_same_space(other)
        return KForm(self.dim, self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_same_space(other)
        return KForm(self.dim, self.degree, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return KForm(self.dim, self.degree, self.coeffs * float(scalar))

    __rmul__ = __mul__

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, vectors):
        """Apply the form to `degree` vectors (sequence of 1d arrays)."""
        if len(vectors) != self.degree:
            raise DegreeError(f"need {self.degree} vectors, got {len(vectors)}")
        if self.degree == 0:
            return float(self.coeffs[0])
        V = np.column_stack([np.asarray(v, dtype=float) for v in vectors])
        if V.shape[0] != self.dim:
            raise DimensionMismatch("vector dimension mismatch")
        return float(self.coeffs @ minors(V, self.degree)[:, 0])

    def dense(self):
        """Fully antisymmetric dense array of shape (dim,)*degree."""
        return dense_stack(self.coeffs, self.dim, self.degree)

    def as_matrix(self):
        """Antisymmetric matrix representation of a 2-form."""
        if self.degree != 2:
            raise DegreeError("matrix representation needs degree 2")
        return self.dense()

    @property
    def coefficient_norm(self):
        return float(np.linalg.norm(self.coeffs))


# ---------------------------------------------------------------------------
# metric


@dataclass(eq=False)
class MetricTensor:
    """Symmetric positive definite bilinear form.  Immutable by convention."""

    entries: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.entries, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DimensionMismatch("metric must be a square matrix")
        if not np.array_equal(M, M.T):
            raise ExteriorAlgebraError("metric entries must be exactly symmetric")
        w = np.linalg.eigvalsh(M)
        if w.min() <= PD_TOL * max(1.0, abs(w.max())):
            raise NotPositiveDefinite(f"metric eigenvalue {w.min():.3g} not positive")
        self.entries = M

    @classmethod
    def trusted(cls, M):
        """Unchecked metric on M, known exactly symmetric and positive definite."""
        metric = object.__new__(cls)
        metric.entries = M
        return metric

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim))

    @property
    def dim(self):
        return self.entries.shape[0]

    @cached_property
    def inverse(self):
        return np.linalg.inv(self.entries)

    @cached_property
    def sqrt_det(self):
        return float(np.sqrt(np.linalg.det(self.entries)))

    def inner(self, x, y):
        """Real bilinear pairing; use `norm` for complex vectors."""
        return float(np.asarray(x) @ self.entries @ np.asarray(y))

    def norm(self, x):
        x = np.asarray(x)
        val = np.real(np.conj(x) @ self.entries @ x)
        return float(np.sqrt(max(val, 0.0)))

    def gram(self, degree):
        """Gram matrix of the induced inner product on degree-forms.

        <e^I, e^J> = det( g^{-1}[I, J] ).
        """
        return minors(self.inverse, degree)


# ---------------------------------------------------------------------------
# wedge / contraction tables


@lru_cache(maxsize=None)
def _wedge_table(dim, ka, kb):
    pos_out = index_position(dim, ka + kb)
    ia, ib, io, sg = [], [], [], []
    for pa, I in enumerate(increasing_indices(dim, ka)):
        set_I = set(I)
        for pb, J in enumerate(increasing_indices(dim, kb)):
            if set_I & set(J):
                continue
            K, s = sort_with_sign(I + J)
            ia.append(pa)
            ib.append(pb)
            io.append(pos_out[K])
            sg.append(s)
    return (
        np.array(ia, dtype=int),
        np.array(ib, dtype=int),
        np.array(io, dtype=int),
        np.array(sg, dtype=float),
    )


def wedge(a, b):
    """Exterior product of two forms on the same space."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dim {a.dim} vs {b.dim}")
    degree = a.degree + b.degree
    if degree > a.dim:
        raise DegreeError(f"degree overflow: {a.degree}+{b.degree} > {a.dim}")
    ia, ib, io, sg = _wedge_table(a.dim, a.degree, b.degree)
    out = np.zeros(comb(a.dim, degree))
    np.add.at(out, io, sg * a.coeffs[ia] * b.coeffs[ib])
    return KForm(a.dim, degree, out)


def _contract_table(dim, degree):
    """Entries (comp, src, dst, sign): (a . v)[dst] += sign * v[comp] * a[src],
    the entries of e^comp ^ e^J read backwards; those of one dst come in
    ascending comp."""
    comp, dst, src, sg = _wedge_table(dim, 1, degree - 1)
    return comp, src, dst, sg


def _grouped(key, n, columns):
    """The table columns gathered into (n, m) arrays: row e holds the m
    entries with key e, in table order (every key has m entries)."""
    order = np.argsort(key, kind="stable")
    return tuple(c[order].reshape(n, -1) for c in columns)


@lru_cache(maxsize=None)
def _contract_groups(dim, degree):
    """(comp, src, sign) of `_contract_table`, grouped by dst."""
    comp, src, dst, sg = _contract_table(dim, degree)
    return _grouped(dst, comb(dim, degree - 1), (comp, src, sg))


@lru_cache(maxsize=None)
def _wedge1_groups(dim, degree):
    """(ia, ib, sign) of `_wedge_table(dim, 1, degree)`, grouped by io."""
    ia, ib, io, sg = _wedge_table(dim, 1, degree)
    return _grouped(io, comb(dim, degree + 1), (ia, ib, sg))


def _sum_terms(T):
    """T (..., m) summed over its last axis one term at a time, starting from
    0.0: the sums, and signs of zero, that `np.add.at` into zeros gives."""
    out = np.zeros(T.shape[:-1], dtype=T.dtype)
    for k in range(T.shape[-1]):
        out += T[..., k]
    return out


def contract_stack(A, V, dim, degree):
    """Interior products (N, C(dim, degree - 1)) of stacked degree-forms A
    (N, C(dim, degree)) with the vectors V (N, dim), row by row; each entry
    sums its terms in table order, as the one-form call does."""
    comp, src, sg = _contract_groups(dim, degree)
    return _sum_terms(sg * V[:, comp] * A[:, src])


def contract(a, v):
    """Interior product (v in the first slot): (a . v)(x2..xk) = a(v, x2..xk)."""
    if a.degree == 0:
        raise DegreeError("cannot contract a 0-form")
    v = np.asarray(v, dtype=float)
    if v.shape != (a.dim,):
        raise DimensionMismatch("vector dimension mismatch")
    return KForm(a.dim, a.degree - 1, contract_stack(a.coeffs[None], v[None], a.dim, a.degree)[0])


def _complement_table(dim, degree):
    """For each increasing I: the position of its complement Ic and the sign
    of e^I ^ e^Ic, from the one wedge entry of each I."""
    _, dst, _, sg = _wedge_table(dim, degree, dim - degree)
    return dst, sg


def volume_form(g, orientation=1):
    """g-unit positively oriented top form."""
    top = KForm.zero(g.dim, g.dim)
    top.coeffs[0] = orientation * g.sqrt_det
    return top


@lru_cache(maxsize=None)
def _extend_table(dim, r):
    """For each increasing (r+1)-index I: (position of I[:-1] among r-indices, I[-1])."""
    pos = index_position(dim, r)
    longer = increasing_indices(dim, r + 1)
    prev = np.array([pos[I[:-1]] for I in longer], dtype=int)
    return prev, np.array([I[-1] for I in longer], dtype=int)


def hodge_star_coeffs(a, ginv, vol, degree):
    """Hodge star of stacked k-forms: a (N, C(n,k)), ginv (N, n, n) the inverse
    metrics, vol (N,) the factors orientation * sqrt(det g).

    The raised coefficients gram(k) @ a come from raising one index at a time
    with g^-1; X[:, J, I] holds the form with the increasing index group I
    raised and J still lowered.  Each row goes through its own matrix
    products, so row i equals the N = 1 call on row i bit for bit.
    """
    N, n = a.shape[0], ginv.shape[-1]
    X = a[:, :, None]
    for r in range(degree):
        comp, src, dst, sg = _contract_table(n, degree - r)
        L = np.zeros((N, n, comb(n, degree - r - 1), comb(n, r)))
        L[:, comp, dst] = sg[:, None] * X[:, src]  # lowered slot r+1 split off
        U = ginv @ L.reshape(N, n, L.shape[2] * L.shape[3])  # sized, not -1: N may be 0
        U = U.reshape(L.shape).transpose(0, 2, 1, 3)
        prev, last = _extend_table(n, r)
        X = U[:, :, last, prev]
    weights = X[:, 0, :] * vol[:, None]
    dst, sg = _complement_table(n, degree)
    out = np.zeros((N, comb(n, n - degree)))
    out[:, dst] = sg * weights
    return out


def hodge_star(a, g, orientation=1):
    """Hodge star fixed by  a ^ *b = <a, b> vol_g."""
    if g.dim != a.dim:
        raise DimensionMismatch(f"form dim {a.dim} vs metric dim {g.dim}")
    if orientation not in (1, -1):
        raise ExteriorAlgebraError("orientation must be +1 or -1")
    vol = np.array([g.sqrt_det * orientation])
    out = hodge_star_coeffs(a.coeffs[None], g.inverse[None], vol, a.degree)
    return KForm(a.dim, a.dim - a.degree, out[0])


def sharp(g, covector):
    """Raise an index: 1-form (KForm or coefficient array) to vector."""
    xi = covector.coeffs if isinstance(covector, KForm) else np.asarray(covector)
    return g.inverse @ xi


def flat(g, vector):
    """Lower an index: vector to 1-form coefficient array."""
    return g.entries @ np.asarray(vector)


def inner_product(a, b, g):
    a._check_same_space(b)
    return float(a.coeffs @ g.gram(a.degree) @ b.coeffs)


def form_norm(a, g):
    return float(np.sqrt(max(inner_product(a, a, g), 0.0)))


# ---------------------------------------------------------------------------
# pullback / transform


def transform(a, A):
    """Pullback of `a` by the linear map with matrix A (columns = images).

    A may be rectangular (n x m); the result is an m-dimensional form:
    (A*a)(u1..uk) = a(A u1, ..., A uk).
    """
    A = np.asarray(A, dtype=float)
    if A.shape[0] != a.dim:
        raise DimensionMismatch("matrix rows must match the form dimension")
    m = A.shape[1]
    if not 2 <= m <= MAX_DIM:
        raise DimensionMismatch(f"target dimension {m} out of range")
    if a.degree > m:
        raise DegreeError("degree exceeds target dimension")
    return KForm(m, a.degree, minors(A, a.degree).T @ a.coeffs)


# ---------------------------------------------------------------------------
# gl(n) derivation action and annihilators


@lru_cache(maxsize=None)
def _derivation_table(dim, degree):
    """Entries (src, dst, m, j, sign) of the derivation action.

    For A in gl(n) acting on forms by (A.a)(x1..xk) = sum_i a(x1..A xi..xk):
    out[dst] += sign * A[m, j] * a[src].  As A.e^K = sum A[m, j] e^j ^ (e_m . e^K),
    each entry joins a contraction e_m . e^K = s1 e^L with a wedge
    e^j ^ e^L = s2 e^P on L, and the entries come in (dst, j, m) order.
    """
    if degree == 0:
        return tuple(np.zeros(0, dtype=t) for t in (int, int, int, int, float))
    mm, src, lc, s1 = _contract_table(dim, degree)  # e_m . e^K = s1 e^L, L at lc
    jj, lw, dst, s2 = _wedge_table(dim, 1, degree - 1)  # e^j ^ e^L = s2 e^P, L at lw
    c, w = np.nonzero(lc[:, None] == lw)  # every (contraction, wedge) pair sharing L
    order = np.lexsort((mm[c], jj[w], dst[w]))
    c, w = c[order], w[order]
    return src[c], dst[w], mm[c], jj[w], s1[c] * s2[w]


def derivation_apply(a, A):
    """(A.a)(x1..xk) = sum_i a(x1, ..., A xi, ..., xk)."""
    A = np.asarray(A, dtype=float)
    src, dst, mm, jj, sg = _derivation_table(a.dim, a.degree)
    out = np.zeros_like(a.coeffs)
    np.add.at(out, dst, sg * A[mm, jj] * a.coeffs[src])
    return KForm(a.dim, a.degree, out)


def _stabilizer_matrix(a):
    """Matrix of L: gl(n) -> Lambda^k, L(A) = A.a, columns indexed by (m, j)."""
    n = a.dim
    src, dst, mm, jj, sg = _derivation_table(n, a.degree)
    L = np.zeros((comb(n, a.degree), n * n))
    np.add.at(L, (dst, mm * n + jj), sg * a.coeffs[src])
    return L


def annihilator_dimension(a):
    """dim { A in gl(n) : A.a = 0 }: the size of `annihilator_basis`."""
    return len(annihilator_basis(a))


def annihilator_basis(a):
    """Orthonormal basis of the annihilator algebra, shape (dim_ann, n, n)."""
    n = a.dim
    L = _stabilizer_matrix(a)
    _, s, Vt = np.linalg.svd(L, full_matrices=True)
    smax = s.max(initial=0.0)
    rank = int(np.count_nonzero(s > RANK_RTOL * smax))
    return Vt[rank:].reshape(-1, n, n)
