"""Dense coordinate exterior algebra over R^n for small n (n <= 8).

A k-form is stored as a coefficient vector over the lexicographically
ordered strictly increasing multi-indices of length k.  Every sign
computation funnels through ``sort_with_sign`` / ``merge_sign`` so the
shuffle-sign convention lives in exactly one place.

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


def merge_sign(left, right):
    """Shuffle sign of concatenating two disjoint sorted index tuples."""
    sign = 1
    for i in left:
        for j in right:
            if i > j:
                sign = -sign
    return sign


def minors(A, k):
    """k-th compound matrix of an n x m array: entry [p, q] = det(A[I_p, J_q])
    for I_p, J_q the increasing k-multi-indices of rows and columns."""
    A = np.asarray(A, dtype=float)
    if k == 0:
        return np.ones((1, 1))
    if k == 1:
        return A
    n, m = A.shape
    I = np.array(increasing_indices(n, k), dtype=int)
    J = np.array(increasing_indices(m, k), dtype=int)
    sub = A[I[:, None, :, None], J[None, :, None, :]]
    if k == 2:
        return sub[..., 0, 0] * sub[..., 1, 1] - sub[..., 0, 1] * sub[..., 1, 0]
    if k == 3:
        return (
            sub[..., 0, 0] * (sub[..., 1, 1] * sub[..., 2, 2] - sub[..., 1, 2] * sub[..., 2, 1])
            - sub[..., 0, 1] * (sub[..., 1, 0] * sub[..., 2, 2] - sub[..., 1, 2] * sub[..., 2, 0])
            + sub[..., 0, 2] * (sub[..., 1, 0] * sub[..., 2, 1] - sub[..., 1, 1] * sub[..., 2, 0])
        )
    return np.linalg.det(sub)


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

    def __neg__(self):
        return KForm(self.dim, self.degree, -self.coeffs)

    def __mul__(self, scalar):
        return KForm(self.dim, self.degree, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return KForm(self.dim, self.degree, self.coeffs / float(scalar))

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
        src, dst, sg = _dense_table(self.dim, self.degree)
        out = np.zeros(self.dim**self.degree)
        out[dst] = sg * self.coeffs[src]
        return out.reshape((self.dim,) * self.degree)

    def as_matrix(self):
        """Antisymmetric matrix representation of a 2-form."""
        if self.degree != 2:
            raise DegreeError("matrix representation needs degree 2")
        M = np.zeros((self.dim, self.dim))
        for p, (i, j) in enumerate(increasing_indices(self.dim, 2)):
            M[i, j] = self.coeffs[p]
            M[j, i] = -self.coeffs[p]
        return M

    @classmethod
    def from_matrix(cls, M):
        M = np.asarray(M, dtype=float)
        dim = M.shape[0]
        c = np.array([M[i, j] for i, j in increasing_indices(dim, 2)])
        return cls(dim, 2, c)

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
        self._gram_cache = {}

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
        G = self._gram_cache.get(degree)
        if G is None:
            G = self._gram_cache[degree] = minors(self.inverse, degree)
        return G


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


@lru_cache(maxsize=None)
def _contract_table(dim, degree):
    pos_out = index_position(dim, degree - 1)
    comp, src, dst, sg = [], [], [], []
    for p, I in enumerate(increasing_indices(dim, degree)):
        for r, c in enumerate(I):
            comp.append(c)
            src.append(p)
            dst.append(pos_out[tuple(x for x in I if x != c)])
            sg.append((-1.0) ** r)
    return (
        np.array(comp, dtype=int),
        np.array(src, dtype=int),
        np.array(dst, dtype=int),
        np.array(sg, dtype=float),
    )


def contract(a, v):
    """Interior product (v in the first slot): (a . v)(x2..xk) = a(v, x2..xk)."""
    if a.degree == 0:
        raise DegreeError("cannot contract a 0-form")
    v = np.asarray(v, dtype=float)
    if v.shape != (a.dim,):
        raise DimensionMismatch("vector dimension mismatch")
    comp, src, dst, sg = _contract_table(a.dim, a.degree)
    out = np.zeros(comb(a.dim, a.degree - 1))
    np.add.at(out, dst, sg * v[comp] * a.coeffs[src])
    return KForm(a.dim, a.degree - 1, out)


@lru_cache(maxsize=None)
def _complement_table(dim, degree):
    pos_out = index_position(dim, dim - degree)
    dst = np.empty(comb(dim, degree), dtype=int)
    sg = np.empty(comb(dim, degree))
    full = set(range(dim))
    for p, I in enumerate(increasing_indices(dim, degree)):
        Ic = tuple(sorted(full - set(I)))
        dst[p] = pos_out[Ic]
        sg[p] = merge_sign(I, Ic)
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
        U = (ginv @ L.reshape(N, n, -1)).reshape(L.shape).transpose(0, 2, 1, 3)
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
    out[dst] += sign * A[m, j] * a[src].
    """
    pos = index_position(dim, degree)
    src, dst, mm, jj, sg = [], [], [], [], []
    for p, J in enumerate(increasing_indices(dim, degree)):
        for r, j in enumerate(J):
            rest = J[:r] + J[r + 1 :]
            rest_set = set(rest)
            for m in range(dim):
                if m in rest_set:
                    continue
                K, s = sort_with_sign(rest + (m,))
                # moving m from the last slot back to slot r costs (-1)^(k-1-r)
                s *= (-1.0) ** (degree - 1 - r)
                dst.append(p)
                src.append(pos[K])
                mm.append(m)
                jj.append(j)
                sg.append(s)
    return (
        np.array(src, dtype=int),
        np.array(dst, dtype=int),
        np.array(mm, dtype=int),
        np.array(jj, dtype=int),
        np.array(sg, dtype=float),
    )


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
    """dim { A in gl(n) : A.a = 0 } via a relative SVD rank cutoff."""
    L = _stabilizer_matrix(a)
    s = np.linalg.svd(L, compute_uv=False)
    smax = s.max(initial=0.0)
    rank = int(np.count_nonzero(s > RANK_RTOL * smax))
    return a.dim * a.dim - rank


def annihilator_basis(a):
    """Orthonormal basis of the annihilator algebra, shape (dim_ann, n, n)."""
    n = a.dim
    L = _stabilizer_matrix(a)
    _, s, Vt = np.linalg.svd(L, full_matrices=True)
    smax = s.max(initial=0.0)
    rank = int(np.count_nonzero(s > RANK_RTOL * smax))
    return Vt[rank:].reshape(-1, n, n)
