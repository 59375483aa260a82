import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2twistor.forms import (
    DegreeError,
    DimensionMismatch,
    ExteriorAlgebraError,
    KForm,
    MetricTensor,
    NotPositiveDefinite,
    _complement_table,
    _contract_table,
    annihilator_basis,
    annihilator_dimension,
    contract,
    contract_stack,
    derivation_apply,
    hodge_star,
    hodge_star_coeffs,
    increasing_indices,
    index_position,
    minors,
    sort_with_sign,
    transform,
    wedge,
)
from g2twistor.fields import make_field
from g2twistor.pointwise import RHO_STD_TERMS
from g2twistor.sampling import sphere_bundle_samples

import oracles

RNG = np.random.default_rng(20240811)


def e(*idx):
    """1-based basis form on R^7."""
    return KForm.basis(7, tuple(i - 1 for i in idx))


def rho_std():
    return KForm.from_terms(7, RHO_STD_TERMS)


def random_form(dim, degree, rng=RNG):
    return KForm(dim, degree, rng.standard_normal(comb(dim, degree)))


def random_spd(dim, rng=RNG):
    A = rng.standard_normal((dim, dim))
    S = A @ A.T + dim * np.eye(dim)
    return MetricTensor((S + S.T) / 2.0)


# ---------------------------------------------------------------------------
# storage and evaluation


def test_coefficient_count_enforced():
    with pytest.raises(Exception):
        KForm(7, 3, np.zeros(34))
    with pytest.raises(DimensionMismatch):
        KForm(9, 2, np.zeros(36))
    with pytest.raises(DegreeError):
        KForm(7, 8, np.zeros(1))


def test_evaluation_antisymmetry_witness():
    a = random_form(7, 3)
    v, w = RNG.standard_normal(7), RNG.standard_normal(7)
    assert a.evaluate([v, v, w]) == pytest.approx(0.0, abs=1e-12)


def test_evaluate_matches_permutation_oracle():
    for dim, degree in [(4, 2), (6, 3), (7, 4)]:
        a = random_form(dim, degree)
        vecs = [RNG.standard_normal(dim) for _ in range(degree)]
        assert a.evaluate(vecs) == pytest.approx(oracles.eval_form(a, vecs), abs=1e-10)


@given(st.permutations(list(range(5))))
def test_sort_sign_matches_inversion_count(perm):
    srt, sign = sort_with_sign(tuple(perm))
    assert srt == tuple(range(5))
    assert sign == oracles.inversion_sign(tuple(perm))


def test_sort_sign_zero_on_repeats():
    assert sort_with_sign((1, 1, 2)) == (None, 0)


# ---------------------------------------------------------------------------
# wedge


def test_wedge_basis_case():
    out = wedge(e(1), e(2))
    assert np.allclose(out.coeffs, e(1, 2).coeffs)


def test_wedge_odd_degree_square_is_zero():
    a = random_form(7, 3)
    assert wedge(a, a).coefficient_norm == pytest.approx(0.0, abs=1e-12)


def test_wedge_hand_expansion():
    out = wedge(e(1) + e(2), e(1) - e(2))
    assert np.allclose(out.coeffs, (-2.0 * e(1, 2)).coeffs)


def test_wedge_errors():
    with pytest.raises(DimensionMismatch):
        wedge(random_form(7, 1), random_form(6, 1))
    with pytest.raises(DegreeError):
        wedge(random_form(7, 4), random_form(7, 4))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5),
    st.data(),
)
def test_wedge_graded_commutativity_exact_on_integers(dim, data):
    ka = data.draw(st.integers(0, dim))
    kb = data.draw(st.integers(0, dim - ka))
    a = KForm(dim, ka, np.array(data.draw(
        st.lists(st.integers(-3, 3), min_size=comb(dim, ka), max_size=comb(dim, ka))
    ), dtype=float))
    b = KForm(dim, kb, np.array(data.draw(
        st.lists(st.integers(-3, 3), min_size=comb(dim, kb), max_size=comb(dim, kb))
    ), dtype=float))
    lhs = wedge(a, b).coeffs
    rhs = ((-1.0) ** (ka * kb)) * wedge(b, a).coeffs
    assert np.array_equal(lhs, rhs)


def test_wedge_associativity_all_dims():
    for dim in range(2, 9):
        for _ in range(5):
            ka = int(RNG.integers(0, dim + 1))
            kb = int(RNG.integers(0, dim - ka + 1))
            kc = int(RNG.integers(0, dim - ka - kb + 1))
            a, b, c = random_form(dim, ka), random_form(dim, kb), random_form(dim, kc)
            lhs = wedge(wedge(a, b), c).coeffs
            rhs = wedge(a, wedge(b, c)).coeffs
            assert np.abs(lhs - rhs).max() < 1e-12


def test_wedge_matches_shuffle_oracle():
    a, b = random_form(6, 2), random_form(6, 3)
    vecs = [RNG.standard_normal(6) for _ in range(5)]
    assert wedge(a, b).evaluate(vecs) == pytest.approx(
        oracles.wedge_eval(a, b, vecs), abs=1e-9
    )


# ---------------------------------------------------------------------------
# contraction


def test_contract_basis_case():
    out = contract(e(1, 2, 3), np.eye(7)[0])
    assert np.allclose(out.coeffs, e(2, 3).coeffs)


def test_contract_linearity_zero_vector():
    a = random_form(7, 3)
    assert contract(a, np.zeros(7)).coefficient_norm == 0.0


def test_contract_twice_zero():
    a = random_form(7, 4)
    v = RNG.standard_normal(7)
    assert contract(contract(a, v), v).coefficient_norm < 1e-12


def test_contract_degree_zero_errors():
    with pytest.raises(DegreeError):
        contract(KForm(7, 0, np.array([1.0])), np.zeros(7))


def test_contract_matches_first_slot_oracle():
    a = random_form(7, 3)
    v = RNG.standard_normal(7)
    vecs = [RNG.standard_normal(7) for _ in range(2)]
    assert contract(a, v).evaluate(vecs) == pytest.approx(
        oracles.interior_eval(a, v, vecs), abs=1e-10
    )


def test_contract_rho_std_gives_hermitian_form():
    out = contract(rho_std(), np.eye(7)[0])
    want = e(2, 3) + e(4, 5) + e(6, 7)
    assert np.allclose(out.coeffs, want.coeffs)


def test_cartan_antiderivation_identity():
    for _ in range(10):
        a, b = random_form(7, 2), random_form(7, 3)
        v = RNG.standard_normal(7)
        lhs = contract(wedge(a, b), v)
        rhs = wedge(contract(a, v), b) + ((-1.0) ** a.degree) * wedge(a, contract(b, v))
        assert (lhs - rhs).coefficient_norm < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 6),
    st.data(),
)
def test_cartan_antiderivation_exact_on_integers(dim, data):
    ka = data.draw(st.integers(1, dim - 1))
    kb = data.draw(st.integers(1, dim - ka))
    ints = lambda k: st.lists(st.integers(-2, 2), min_size=comb(dim, k), max_size=comb(dim, k))
    a = KForm(dim, ka, np.array(data.draw(ints(ka)), dtype=float))
    b = KForm(dim, kb, np.array(data.draw(ints(kb)), dtype=float))
    v = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)), dtype=float)
    lhs = contract(wedge(a, b), v).coeffs
    rhs = (wedge(contract(a, v), b) + ((-1.0) ** ka) * wedge(a, contract(b, v))).coeffs
    assert np.array_equal(lhs, rhs)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=4))
def test_basis_form_signs(indices):
    srt, sign = sort_with_sign(tuple(indices))
    form = KForm.basis(7, tuple(indices))
    if sign == 0:
        assert form.coefficient_norm == 0.0
    else:
        assert form.coeffs[index_position(7, len(indices))[srt]] == sign


# ---------------------------------------------------------------------------
# Hodge star


def test_hodge_of_one_is_volume():
    g = MetricTensor(np.eye(7))
    one = KForm(7, 0, np.array([1.0]))
    out = hodge_star(one, g)
    top = KForm.basis(7, tuple(range(7)))
    assert np.allclose(out.coeffs, top.coeffs)


def test_double_star_sign_all_degrees():
    g = random_spd(7)
    for k in range(8):
        a = random_form(7, k)
        twice = hodge_star(hodge_star(a, g), g)
        sign = (-1.0) ** (k * (7 - k))
        assert np.abs(twice.coeffs - sign * a.coeffs).max() < 1e-8


def test_hodge_star_of_rho_std():
    g = MetricTensor(np.eye(7))
    star = hodge_star(rho_std(), g, 1)
    want = (
        e(4, 5, 6, 7) + e(2, 3, 6, 7) + e(2, 3, 4, 5) + e(1, 3, 5, 7)
        - e(1, 3, 4, 6) - e(1, 2, 5, 6) - e(1, 2, 4, 7)
    )
    assert np.abs(star.coeffs - want.coeffs).max() < 1e-12
    # the scalar 7 = |rho|^2 is computed, not assumed
    norm2 = oracles.form_inner(rho_std(), rho_std(), np.eye(7))
    assert norm2 == pytest.approx(7.0, abs=1e-12)
    assert wedge(rho_std(), star).coeffs[0] == pytest.approx(norm2, abs=1e-12)


def test_hodge_matches_defining_equation_oracle():
    g = random_spd(5)
    a = random_form(5, 2)
    fast = hodge_star(a, g, 1)
    slow = oracles.hodge_by_solving(a, g.entries, 1)
    assert np.abs(fast.coeffs - slow.coeffs).max() < 1e-8


@pytest.mark.parametrize("dim, degree", [(7, 3)] + [(5, k) for k in range(6)])
def test_stacked_hodge_star_matches_oracle(dim, degree):
    """Rows of the stacked star match the defining-equation oracle and the
    N = 1 call bit for bit."""
    rng = np.random.default_rng(100 * dim + degree)
    metrics = [random_spd(dim, rng) for _ in range(4)]
    a = rng.standard_normal((4, comb(dim, degree)))
    orientation = np.array([1, -1, 1, -1])
    vol = np.array([g.sqrt_det for g in metrics]) * orientation
    ginv = np.array([g.inverse for g in metrics])
    out = hodge_star_coeffs(a, ginv, vol, degree)
    for i, g in enumerate(metrics):
        slow = oracles.hodge_by_solving(KForm(dim, degree, a[i]), g.entries, orientation[i])
        assert np.abs(out[i] - slow.coeffs).max() < 1e-10
        one = hodge_star(KForm(dim, degree, a[i]), g, orientation[i])
        assert np.array_equal(out[i], one.coeffs)


def test_hodge_is_isometry():
    g = random_spd(7)
    for k in (1, 2, 3):
        a, b = random_form(7, k), random_form(7, k)
        assert oracles.form_inner(a, b, g.inverse) == pytest.approx(
            oracles.form_inner(hodge_star(a, g), hodge_star(b, g), g.inverse), abs=1e-8
        )


def test_hodge_orientation_flips_sign():
    g = MetricTensor(np.eye(7))
    a = random_form(7, 3)
    plus = hodge_star(a, g, 1)
    minus = hodge_star(a, g, -1)
    assert np.allclose(plus.coeffs, -minus.coeffs)


# ---------------------------------------------------------------------------
# metric


def test_metric_pairings_do_not_depend_on_the_operand_layout():
    """A strided row pairs and norms as its contiguous copy does, bit for
    bit: BLAS rounds a product with a non-unit stride differently, so the
    operands are made contiguous on entry."""
    ms, xs = sphere_bundle_samples(100, 12)
    field = make_field("closed-perturbed", 32, epsilon=0.05, frequency=(1, 2, 0, 1, 0, 0, -1))
    for m, x in zip(ms, np.asfortranarray(xs)):
        assert not x.flags.c_contiguous
        g, y = field.point_data(m).metric, x.copy()
        assert g.inner(x, x) == g.inner(y, y)
        assert g.norm(x) == g.norm(y)


def test_metric_requires_exact_symmetry_and_positivity():
    M = np.eye(3)
    M[0, 1] = 1e-17
    with pytest.raises(Exception):
        MetricTensor(M)
    with pytest.raises(NotPositiveDefinite):
        MetricTensor(np.diag([1.0, -1.0, 1.0]))


def test_user_metric_rejects_inexact_symmetry():
    M = np.eye(7)
    M[2, 5] = 1e-17
    with pytest.raises(ExteriorAlgebraError, match="exactly symmetric"):
        MetricTensor(M)


def test_metric_positivity_cutoff_is_scale_relative():
    """The smallest eigenvalue must exceed 1e-12 times the largest when that is
    above 1, and 1e-12 itself below 1: each cutoff is pinned from both sides."""
    for top, cut in ((1e6, 1e-6), (0.5, 1e-12)):
        MetricTensor(np.diag([top, 1.2 * cut, 0.25]))
        with pytest.raises(NotPositiveDefinite, match="not positive"):
            MetricTensor(np.diag([top, 0.8 * cut, 0.25]))


def test_user_metric_rejects_non_positive():
    for w in ([1.0, -1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1e-14, 1.0]):
        with pytest.raises(NotPositiveDefinite, match="not positive"):
            MetricTensor(np.diag(w))


# ---------------------------------------------------------------------------
# annihilators


def test_annihilator_of_zero_form():
    assert annihilator_dimension(KForm.zero(7, 3)) == 49


def test_annihilator_of_rho_std_is_14():
    assert annihilator_dimension(rho_std()) == 14


def test_annihilator_of_generic_3form_is_14():
    for _ in range(5):
        a = random_form(7, 3)
        assert annihilator_dimension(a) == 14


def test_annihilator_dimension_basis_invariant():
    a = rho_std()
    for _ in range(10):
        A = RNG.standard_normal((7, 7))
        while abs(np.linalg.det(A)) < 0.1:
            A = RNG.standard_normal((7, 7))
        assert annihilator_dimension(transform(a, A)) == 14


def test_annihilator_basis_annihilates():
    a = rho_std()
    for A in annihilator_basis(a):
        assert np.abs(derivation_apply(a, A).coeffs).max() < 1e-10


def test_derivation_action_matches_evaluation_oracle():
    for dim, degree in [(d, k) for d in (4, 7) for k in range(d + 1)]:
        a = random_form(dim, degree)
        A = RNG.standard_normal((dim, dim))
        out = derivation_apply(a, A)
        for _ in range(3):
            vecs = [RNG.standard_normal(dim) for _ in range(degree)]
            assert out.evaluate(vecs) == pytest.approx(
                oracles.derivation_eval(a, A, vecs), abs=1e-9
            )


# ---------------------------------------------------------------------------
# pullbacks


def test_transform_composition():
    a = random_form(7, 3)
    A, B = RNG.standard_normal((7, 7)), RNG.standard_normal((7, 7))
    lhs = transform(a, A @ B)
    rhs = transform(transform(a, A), B)
    assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-10


def test_transform_matches_evaluation():
    a = random_form(7, 2)
    A = RNG.standard_normal((7, 4))
    out = transform(a, A)
    for _ in range(3):
        u, v = RNG.standard_normal(4), RNG.standard_normal(4)
        assert out.evaluate([u, v]) == pytest.approx(a.evaluate([A @ u, A @ v]), abs=1e-10)


# ---------------------------------------------------------------------------
# compound matrices, checked against permutation-sum determinants


def _close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("shape", [(7, 5), (5, 7)])
def test_minors_match_permutation_oracle(shape):
    A = np.random.default_rng(5).standard_normal(shape)
    for k in range(5):
        C = minors(A, k)
        rows, cols = increasing_indices(shape[0], k), increasing_indices(shape[1], k)
        assert C.shape == (len(rows), len(cols))
        for p, I in enumerate(rows):
            for q, J in enumerate(cols):
                assert _close(C[p, q], oracles.det_perm(A[np.ix_(I, J)]))


def test_minors_keep_a_complex_stack_complex():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((5, 7, 4)) + 1j * rng.standard_normal((5, 7, 4))
    for k in (2, 3):
        C = minors(A, k)
        assert C.dtype == complex and C.shape == (5, comb(7, k), comb(4, k))
        for n in range(5):
            for p, I in enumerate(increasing_indices(7, k)):
                for q, J in enumerate(increasing_indices(4, k)):
                    want = oracles.det_perm(A[n][np.ix_(I, J)])
                    assert abs(C[n, p, q] - want) <= 1e-13 * max(1.0, abs(want))


def test_minors_of_a_real_stack_equal_those_of_its_float_cast():
    A = np.random.default_rng(9).integers(-5, 6, size=(5, 7, 4))
    for k in range(5):
        want = minors(A.astype(float), k)
        for real in (A, A.tolist()):
            got = minors(real, k)
            assert got.dtype == float and np.array_equal(got, want)


@pytest.mark.parametrize("m", [6, 4])
def test_transform_coefficients_match_evaluation_oracle(m):
    rng = np.random.default_rng(6)
    A = rng.standard_normal((7, m))
    for degree in range(1, 5):
        a = random_form(7, degree, rng)
        out = transform(a, A)
        for q, J in enumerate(increasing_indices(m, degree)):
            assert _close(out.coeffs[q], oracles.eval_form(a, [A[:, j] for j in J]))


def test_dense_matches_evaluation_oracle():
    rng = np.random.default_rng(7)
    basis = np.eye(5)
    for degree in range(5):
        a = random_form(5, degree, rng)
        D = a.dense()
        assert D.shape == (5,) * degree
        for idx in itertools.product(range(5), repeat=degree):
            assert _close(D[idx], oracles.eval_form(a, [basis[i] for i in idx]))


@pytest.mark.parametrize("dim", range(2, 9))
def test_contract_table_entries_per_output_in_ascending_component(dim):
    """Each entry of the contraction table is e^c ^ e^J = sign e^I; the entries
    of one output J come in ascending c, the order `contract` sums them in."""
    for k in range(1, dim + 1):
        comp, src, dst, sg = _contract_table(dim, k)
        for c, p, q, s in zip(comp, src, dst, sg):
            J = increasing_indices(dim, k - 1)[q]
            assert sort_with_sign((c,) + J) == (increasing_indices(dim, k)[p], s)
        for J in np.unique(dst):
            assert np.all(np.diff(comp[dst == J]) > 0)


def signed_zeros(shape, rng):
    """Random normals with about a third of the entries +0.0 or -0.0."""
    X = rng.standard_normal(shape)
    X[rng.random(shape) < 0.35] = 0.0
    X[rng.random(shape) < 0.5] *= -1.0
    return X


@pytest.mark.parametrize("dim", range(2, 9))
def test_contract_stack_equals_the_add_at_route_bit_for_bit(dim):
    """Each entry adds its terms in table order from 0.0, as `np.add.at` into
    zeros does: the same values and the same signs of zero, on stacks that
    hold +0.0 and -0.0."""
    rng = np.random.default_rng(dim)
    for k in range(1, dim + 1):
        for n in (0, 1, 240):
            A, V = signed_zeros((n, comb(dim, k)), rng), signed_zeros((n, dim), rng)
            got, want = contract_stack(A, V, dim, k), oracles.contract_stack_add_at(A, V, dim, k)
            assert got.shape == want.shape
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("dim", range(2, 9))
def test_complement_table_is_the_sorting_sign_of_each_index_and_its_complement(dim):
    for k in range(dim + 1):
        dst, sg = _complement_table(dim, k)
        for p, I in enumerate(increasing_indices(dim, k)):
            Ic = tuple(i for i in range(dim) if i not in I)
            assert dst[p] == index_position(dim, dim - k)[Ic]
            assert sg[p] == sort_with_sign(I + Ic)[1]
