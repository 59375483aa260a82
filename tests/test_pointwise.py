from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

import oracles

from g2twistor.forms import KForm, MetricTensor, annihilator_dimension, contract, transform, wedge
from g2twistor.pointwise import (
    DegenerateFormError,
    DependentBasisError,
    G2Point,
    G2StructureError,
    NonUnitVectorError,
    RHO_STD_TERMS,
    SplitFormError,
    hodge_type_on_complement,
    induced_metric,
    induced_metrics,
    is_associative_subspace,
    octonion_multiply,
    project_lambda2,
    standard_g2_point,
    _check_su3_frames,
    su3_structure,
)

RNG = np.random.default_rng(7)
E = np.eye(7)


@pytest.fixture(scope="module")
def std():
    return standard_g2_point()


def unit(v):
    return v / np.linalg.norm(v)


def random_unit():
    return unit(RNG.standard_normal(7))


# ---------------------------------------------------------------------------
# the canonical point and the induced metric


def test_standard_point_metric_is_identity(std):
    assert np.abs(std.g - np.eye(7)).max() < 1e-12
    assert std.orientation == 1


def test_standard_point_star_form_coefficients(std):
    nz = {
        idx: c
        for idx, c in zip(
            __import__("itertools").combinations(range(7), 4), std.rho_star.coeffs
        )
        if abs(c) > 1e-12
    }
    want = {
        (3, 4, 5, 6): 1.0,
        (1, 2, 5, 6): 1.0,
        (1, 2, 3, 4): 1.0,
        (0, 2, 4, 6): 1.0,
        (0, 2, 3, 5): -1.0,
        (0, 1, 4, 5): -1.0,
        (0, 1, 3, 6): -1.0,
    }
    assert set(nz) == set(want)
    for idx, c in want.items():
        assert nz[idx] == pytest.approx(c, abs=1e-12)


def test_induced_metric_so7_equivariance(std):
    for _ in range(20):
        Q, _ = np.linalg.qr(RNG.standard_normal((7, 7)))
        if np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]
        g, orientation = induced_metric(transform(std.rho, Q))
        assert np.abs(g.entries - np.eye(7)).max() < 1e-10
        assert orientation == 1


def test_induced_metric_general_equivariance(std):
    """g(A* rho) = A^T g(rho) A for orientation-preserving A (pullback)."""
    A = RNG.standard_normal((7, 7))
    if np.linalg.det(A) < 0:
        A[:, 0] = -A[:, 0]
    g0, _ = induced_metric(std.rho)
    gA, _ = induced_metric(transform(std.rho, A))
    want = A.T @ g0.entries @ A
    assert np.abs(gA.entries - want).max() < 1e-8 * np.abs(want).max()


def test_induced_metric_scaling_exponent(std):
    """The normalization is homogeneous of degree 2/3 in the 3-form."""
    for t in (0.3, 0.5, 1.7, 3.0):
        g, _ = induced_metric(t * std.rho)
        assert np.abs(g.entries - t ** (2.0 / 3.0) * np.eye(7)).max() < 1e-10


def test_induced_metric_rejects_degenerate():
    rho = KForm.from_terms(7, {(0, 1, 2): 1.0, (3, 4, 5): 1.0})
    with pytest.raises(DegenerateFormError):
        induced_metric(rho)


def test_induced_metric_rejects_split_form():
    terms = dict(RHO_STD_TERMS)
    terms[(2, 4, 5)] = 1.0  # sign flip lands in the split stratum
    rho = KForm.from_terms(7, terms)
    from g2twistor.forms import annihilator_dimension

    assert annihilator_dimension(rho) == 14  # stabilizer test alone passes
    with pytest.raises(SplitFormError):
        induced_metric(rho)


def _gl7_images(std, n, rng):
    """Coefficients (n, 35) of rho_std pulled back by random well-conditioned A."""
    rows = []
    while len(rows) < n:
        A = rng.standard_normal((7, 7))
        if np.linalg.cond(A) < 50:
            rows.append(transform(std.rho, A).coeffs)
    return np.array(rows)


@pytest.mark.parametrize("n", [1, 14, 50])
def test_induced_metrics_rows_match_single_point(std, n):
    R = _gl7_images(std, n, np.random.default_rng(n))
    g, orientation = induced_metrics(R)
    assert g.shape == (n, 7, 7) and orientation.shape == (n,)
    for i in range(n):
        gi, oi = induced_metric(KForm(7, 3, R[i]))
        assert np.array_equal(g[i], gi.entries)
        assert orientation[i] == oi


def test_induced_metric_checks_positivity_once(std, monkeypatch):
    """The metric of a 3-form takes one eigenvalue call (the pairing's) and
    comes out exactly symmetric, so a user-built MetricTensor accepts it."""
    R = _gl7_images(std, 5, np.random.default_rng(3))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    metrics = [induced_metric(KForm(7, 3, r), check_nondegenerate=False)[0] for r in R]
    assert calls == [(1, 7, 7)] * len(R)
    monkeypatch.undo()
    for metric in metrics:
        assert np.array_equal(MetricTensor(metric.entries).entries, metric.entries)


def test_induced_metrics_reject_one_bad_row(std):
    R = _gl7_images(std, 14, np.random.default_rng(5))
    split = dict(RHO_STD_TERMS)
    split[(2, 4, 5)] = 1.0
    bad = [
        (KForm.from_terms(7, split).coeffs, SplitFormError),
        (KForm.from_terms(7, {(0, 1, 2): 1.0, (3, 4, 5): 1.0}).coeffs, DegenerateFormError),
        (np.full(35, np.nan), DegenerateFormError),
        (1e300 * std.rho.coeffs, DegenerateFormError),
    ]
    for row, error in bad:
        stacked = R.copy()
        stacked[9] = row
        with pytest.raises(error):
            induced_metrics(stacked)
        with pytest.raises(error):
            induced_metric(KForm(7, 3, row))


# a GL(7) element U diag(s) V^T with singular values s in [0.5, 2] (condition
# number at most 4), U and V orthogonal from a seeded QR, det of either sign
_WELL_CONDITIONED = st.tuples(
    st.integers(0, 2**32 - 1), st.lists(st.floats(0.5, 2.0), min_size=7, max_size=7)
)


def _gl7(seed, singular_values):
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    V, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    return U @ np.diag(singular_values) @ V.T


@settings(max_examples=40, deadline=None)
@given(st.lists(_WELL_CONDITIONED, min_size=1, max_size=8))
def test_gl7_images_batch_rows_match_single_point(std, params):
    R = np.array([transform(std.rho, _gl7(*p)).coeffs for p in params])
    g, orientation = induced_metrics(R)
    for i, row in enumerate(R):
        gi, oi = induced_metric(KForm(7, 3, row))
        assert np.array_equal(g[i], gi.entries)
        assert orientation[i] == oi
        assert annihilator_dimension(KForm(7, 3, row)) == 14


_SPLIT_TERMS = {**RHO_STD_TERMS, (2, 4, 5): 1.0}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["split", "degenerate"]),
    st.lists(st.floats(-1.0, 1.0), min_size=35, max_size=35),
    st.floats(1e-14, 1e-2),
)
def test_near_split_and_degenerate_forms_raise_form_errors(case, direction, size):
    """Small perturbations of the split and degenerate cases above end in
    SplitFormError or DegenerateFormError, never in a LinAlgError."""
    terms = _SPLIT_TERMS if case == "split" else {(0, 1, 2): 1.0, (3, 4, 5): 1.0}
    row = KForm.from_terms(7, terms).coeffs + size * np.array(direction)
    with pytest.raises((SplitFormError, DegenerateFormError)):
        induced_metrics(row[None])
    with pytest.raises((SplitFormError, DegenerateFormError)):
        induced_metric(KForm(7, 3, row))


def test_pairing_self_consistency_enforced(std):
    # the stored metric and orientation must reproduce the volume-valued pairing
    with pytest.raises(G2StructureError, match="pairing"):
        G2Point(std.rho, std.metric, -std.orientation)


def test_orientation_reversal():
    """Pulling back by a reflection flips the orientation, not the metric."""
    std = standard_g2_point()
    A = np.diag([-1.0, 1, 1, 1, 1, 1, 1])
    g, orientation = induced_metric(transform(std.rho, A))
    assert orientation == -1
    assert np.abs(g.entries - np.eye(7)).max() < 1e-10


# ---------------------------------------------------------------------------
# cross product and octonions


def test_cross_antisymmetry(std):
    x = RNG.standard_normal(7)
    assert np.abs(std.cross(x, x)).max() < 1e-12


def test_cross_basis_case(std):
    assert np.allclose(std.cross(E[0], E[1]), E[2])


def test_cross_orthogonality_and_norm(std):
    for _ in range(100):
        x, y = RNG.standard_normal(7), RNG.standard_normal(7)
        w = std.cross(x, y)
        assert abs(std.metric.inner(w, x)) < 1e-10
        assert abs(std.metric.inner(w, y)) < 1e-10
        lhs = std.metric.inner(w, w)
        rhs = std.metric.inner(x, x) * std.metric.inner(y, y) - std.metric.inner(x, y) ** 2
        assert abs(lhs - rhs) < 1e-12 * max(1.0, rhs)


def test_cross_unit_norm_on_complement(std):
    for _ in range(20):
        v = RNG.standard_normal(7)
        v -= E[0] * v[0]
        v = unit(v)
        assert std.metric.norm(std.cross(E[0], v)) == pytest.approx(1.0, abs=1e-12)


def test_octonion_unit_element(std):
    y, t = RNG.standard_normal(7), RNG.standard_normal()
    vec, s = octonion_multiply(std, (np.zeros(7), 1.0), (y, t))
    assert np.allclose(vec, y) and s == pytest.approx(t)


def test_octonion_split_variant_square(std):
    """With the +g(x,y) scalar sign, unit vectors square to +1."""
    x = random_unit()
    vec, s = octonion_multiply(std, (x, 0.0), (x, 0.0), scalar_sign=+1.0)
    assert np.abs(vec).max() < 1e-12
    assert s == pytest.approx(1.0, abs=1e-12)


def test_octonion_frozen_convention_square(std):
    x = random_unit()
    vec, s = octonion_multiply(std, (x, 0.0), (x, 0.0))
    assert np.abs(vec).max() < 1e-12
    assert s == pytest.approx(-1.0, abs=1e-12)


def test_octonion_alternativity_frozen_convention(std):
    worst = 0.0
    for _ in range(1000):
        a = (RNG.standard_normal(7), float(RNG.standard_normal()))
        b = (RNG.standard_normal(7), float(RNG.standard_normal()))
        aa = octonion_multiply(std, a, a)
        ab = octonion_multiply(std, a, b)
        left = octonion_multiply(std, aa, b)
        right = octonion_multiply(std, a, ab)
        worst = max(worst, np.abs(left[0] - right[0]).max(), abs(left[1] - right[1]))
    assert worst < 1e-10


def test_octonion_split_variant_not_alternative(std):
    """The +g variant fails (aa)b = a(ab); this pins why the sign is frozen."""
    x, y = E[0], E[1]
    aa = octonion_multiply(std, (x, 0.0), (x, 0.0), scalar_sign=+1.0)
    ab = octonion_multiply(std, (x, 0.0), (y, 0.0), scalar_sign=+1.0)
    left = octonion_multiply(std, aa, (y, 0.0), scalar_sign=+1.0)
    right = octonion_multiply(std, (x, 0.0), ab, scalar_sign=+1.0)
    assert np.abs(left[0] - right[0]).max() > 1.0


def test_quaternion_triples(std):
    for _ in range(200):
        v = random_unit()
        vp = RNG.standard_normal(7)
        vp = unit(vp - v * (v @ vp))
        k = std.cross(v, vp)
        for a in (v, vp, k):
            vec, s = octonion_multiply(std, (a, 0.0), (a, 0.0))
            assert np.abs(vec).max() < 1e-10 and abs(s + 1.0) < 1e-10
        ij, s = octonion_multiply(std, (v, 0.0), (vp, 0.0))
        assert np.abs(ij - k).max() < 1e-10 and abs(s) < 1e-10
        jk, s = octonion_multiply(std, (vp, 0.0), (k, 0.0))
        assert np.abs(jk - v).max() < 1e-10 and abs(s) < 1e-10


# ---------------------------------------------------------------------------
# associative subspaces


def test_associative_coordinate_plane(std):
    assert is_associative_subspace(std, [E[0], E[1], E[2]])


def test_non_associative_coordinate_plane(std):
    assert not is_associative_subspace(std, [E[0], E[1], E[4]])


def test_cross_closure_plane_is_associative(std):
    for _ in range(50):
        v = random_unit()
        vp = RNG.standard_normal(7)
        vp = unit(vp - v * (v @ vp))
        assert is_associative_subspace(std, [v, vp, std.cross(v, vp)])


def test_associative_rejects_dependent_basis(std):
    with pytest.raises(DependentBasisError):
        is_associative_subspace(std, [E[0], E[1], E[0] + E[1]])


# ---------------------------------------------------------------------------
# SU(3) structure on v-perp


def test_su3_standard_direction(std):
    fr = su3_structure(std, E[0])
    act = fr.basis @ fr.I @ fr.basis.T
    assert np.allclose(act @ E[1], E[2], atol=1e-12)
    assert np.allclose(act @ E[3], E[4], atol=1e-12)
    assert np.allclose(act @ E[5], E[6], atol=1e-12)


def test_su3_trace_free(std):
    for _ in range(20):
        fr = su3_structure(std, random_unit())
        assert abs(np.trace(fr.I)) < 1e-10


def test_su3_rejects_non_unit(std):
    with pytest.raises(NonUnitVectorError):
        su3_structure(std, 1.01 * E[0])


def test_su3_rejects_nan_vector(std):
    v = E[0].copy()
    v[3] = np.nan
    with pytest.raises(NonUnitVectorError):
        su3_structure(std, v)


def test_su3_omega_matches_contraction(std):
    """The Hermitian form of the frame is the restriction of rho . v."""
    from g2twistor.forms import transform

    for _ in range(20):
        v = random_unit()
        fr = su3_structure(std, v)
        restricted = transform(contract(std.rho, v), fr.basis)
        assert (restricted - fr.omega).coefficient_norm < 1e-12


def test_induced_metric_rejects_wrong_shape():
    with pytest.raises(DegenerateFormError):
        induced_metric(KForm.from_terms(7, {(0, 1): 1.0}))
    with pytest.raises(DegenerateFormError):
        induced_metric(KForm.from_terms(6, {(0, 1, 2): 1.0}))


def test_su3_cross_consistency(std):
    """I y agrees with the raised contraction rho(v, y, .) for y in v-perp."""
    for _ in range(30):
        v = random_unit()
        fr = su3_structure(std, v)
        y = RNG.standard_normal(7)
        y -= v * std.metric.inner(v, y)
        Iy = fr.basis @ fr.I @ (fr.basis.T @ std.g @ y)
        want = std.ginv @ contract(contract(std.rho, v), y).coeffs
        assert np.abs(Iy - want).max() < 1e-10


def test_su3_volume_wedge_hermitian_vanishes(std):
    """(3,0) ^ (1,1) has no room in six dimensions."""
    for _ in range(100):
        fr = su3_structure(std, random_unit())
        for part in (fr.Omega_re, fr.Omega_im):
            assert wedge(part, fr.omega).coefficient_norm < 1e-10


def test_su3_volume_nondegenerate(std):
    """Re ^ Im = +4 vol on the canonical frame (so Omega ^ conj(Omega) is
    the expected nonzero imaginary multiple -8i vol of the volume)."""
    fr = su3_structure(std, E[0])
    top = wedge(fr.Omega_re, fr.Omega_im).coeffs[0]
    assert top == pytest.approx(4.0, abs=1e-10)


def test_su3_check_rejects_broken_frames(std):
    """The frame check names each broken invariant: a flipped I against
    omega, the (0,3) variant Omega_re + i Omega_im, and a zero Omega."""

    def check(fr):
        forms = (fr.omega, fr.Omega_re, fr.Omega_im)
        omega, re, im = (f.coeffs[None] for f in forms)
        _check_su3_frames(omega, fr.I[None], fr.b10[None], re, im)

    fr = su3_structure(std, random_unit())
    check(fr)
    with pytest.raises(G2StructureError, match="inconsistent"):
        check(replace(fr, I=-fr.I))
    with pytest.raises(G2StructureError, match="wrong type"):
        check(replace(fr, Omega_im=-1.0 * fr.Omega_im))
    zero = 0.0 * fr.Omega_re
    with pytest.raises(G2StructureError, match="degenerate"):
        check(replace(fr, Omega_re=zero, Omega_im=zero))


# ---------------------------------------------------------------------------
# 2-form splitting


def test_seven_part_projects_to_itself(std):
    a = contract(std.rho, RNG.standard_normal(7))
    a7, a14 = project_lambda2(std, a)
    assert a14.coefficient_norm < 1e-12
    assert (a7 - a).coefficient_norm < 1e-12


def test_fourteen_part_from_stabilizer(std):
    A = std.stabilizer_algebra[5]
    M = A.T @ std.g
    b = KForm(7, 2, ((M - M.T) / 2.0)[np.triu_indices(7, 1)])
    b7, b14 = project_lambda2(std, b)
    assert b7.coefficient_norm < 1e-12


def test_projection_is_orthogonal_parseval(std):
    for _ in range(50):
        a = KForm(7, 2, RNG.standard_normal(21))
        a7, a14 = project_lambda2(std, a)
        assert (a7 + a14 - a).coefficient_norm < 1e-12
        total = a7.coeffs @ a7.coeffs + a14.coeffs @ a14.coeffs
        assert total == pytest.approx(a.coeffs @ a.coeffs, abs=1e-10)


def test_projector_equivariance_under_stabilizer(std):
    P7, _ = std.lambda2_projectors
    for _ in range(50):
        c = RNG.standard_normal(14)
        A = np.einsum("a,aij->ij", c, std.stabilizer_algebra)
        U = expm(A)
        assert np.abs(transform(std.rho, U).coeffs - std.rho.coeffs).max() < 1e-10
        a = KForm(7, 2, RNG.standard_normal(21))
        lhs = KForm(7, 2, P7 @ transform(a, U).coeffs)
        rhs = transform(KForm(7, 2, P7 @ a.coeffs), U)
        assert (lhs - rhs).coefficient_norm < 1e-8


def test_closed_form_projectors_on_gl7_images(std):
    """The first 100 well-conditioned draws of default_rng(0), every second
    one with its orientation flipped."""
    rows = _gl7_images(std, 100, np.random.default_rng(0))
    rows[1::2] *= -1.0
    points = [G2Point.from_rho(KForm(7, 3, r)) for r in rows]
    assert {p.orientation for p in points} == {-1, 1}
    for point in points:
        P7, P14 = point.lambda2_projectors
        R7, R14 = oracles.lambda2_projectors_by_basis(point)
        assert np.abs(P7 - R7).max() <= 1e-8 and np.abs(P14 - R14).max() <= 1e-8
        gram2 = point.metric.gram(2)
        S7 = np.column_stack([contract(point.rho, e).coeffs for e in E])
        Q14 = point.lambda2_basis_14
        for err in (
            P7 @ P14,
            gram2 @ P7 - (gram2 @ P7).T,
            gram2 @ P14 - (gram2 @ P14).T,
            P7 @ S7 - S7,
            P14 @ Q14 - Q14,
        ):
            assert np.abs(err).max() <= 1e-9
        assert abs(np.trace(P7) - 7) <= 1e-9 and abs(np.trace(P14) - 14) <= 1e-9


# ---------------------------------------------------------------------------
# Hodge types on complements


def test_hermitian_form_is_pure_omega_component(std):
    v = random_unit()
    omega = contract(std.rho, v)
    p2002, p11, om = hodge_type_on_complement(std, omega, v)
    assert p2002 < 1e-10 and p11 < 1e-10
    assert om == pytest.approx(np.sqrt(3.0), abs=1e-10)


def test_hermitian_form_on_orthogonal_complement(std):
    """The Hermitian 2-form of one direction restricts to a pure
    (2,0)+(0,2) form on the complement of any orthogonal direction."""
    for _ in range(200):
        v = random_unit()
        v1 = RNG.standard_normal(7)
        v1 = unit(v1 - v * (v @ v1))
        omega_v = contract(std.rho, v)
        p2002, p11, om = hodge_type_on_complement(std, omega_v, v1)
        assert np.hypot(p11, om) < 1e-10
        assert p2002 > 0.1  # and it is nonzero there


def test_fourteen_part_omega_orthogonal_everywhere(std):
    """The one direction-independent half: 14-part forms are orthogonal to
    the Hermitian form of every complement."""
    for c in range(14):
        b = KForm(7, 2, std.lambda2_basis_14[:, c])
        for _ in range(50):
            _, _, om = hodge_type_on_complement(std, b, random_unit())
            assert abs(om) < 1e-10


def test_fourteen_part_primitive_oneone_at_annihilator_vectors(std):
    """A 14-part form is primitive (1,1) on the complement of any vector
    its endomorphism annihilates (the direction-adapted statement that the
    generic-direction claim reduces to)."""
    for c in range(14):
        b = KForm(7, 2, std.lambda2_basis_14[:, c])
        A = -b.dense()
        w, V = np.linalg.eigh(A @ A.T)
        v = unit(V[:, 0])
        assert np.abs(A @ v).max() < 1e-8
        p2002, _, om = hodge_type_on_complement(std, b, v)
        assert p2002 < 1e-8 and abs(om) < 1e-8


def test_fourteen_part_not_oneone_at_generic_complement(std):
    """Pinned counterexample: e23 - e45 annihilates the 3-form, yet its
    restriction to the complement of e2 has a (2,0)+(0,2) part of norm
    1/sqrt(2).  The direction-blind (1,1) claim for 14-part forms is false;
    see docs/DECISIONS.md for the consequences."""
    from g2twistor.forms import derivation_apply

    alpha = KForm.from_terms(7, {(1, 2): 1.0, (3, 4): -1.0})
    assert np.abs(derivation_apply(std.rho, -alpha.dense()).coeffs).max() == 0.0
    a7, _ = project_lambda2(std, alpha)
    assert a7.coefficient_norm < 1e-12
    p2002, _, _ = hodge_type_on_complement(std, alpha, E[1])
    assert p2002 == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


def test_seven_part_witness_always_found(std):
    """Every test form with a visible 7-part betrays itself at some sampled
    direction through a nonzero (2,0)+(0,2) or Hermitian component."""
    for _ in range(25):
        a = KForm(7, 2, RNG.standard_normal(21))
        a7, _ = project_lambda2(std, a)
        if a7.coefficient_norm < 0.1:
            a = a + contract(std.rho, random_unit())
            a7, _ = project_lambda2(std, a)
        assert a7.coefficient_norm >= 0.1
        found = 0.0
        for _ in range(200):
            p2002, _, om = hodge_type_on_complement(std, a, random_unit())
            found = max(found, p2002 + abs(om))
            if found >= 1e-3:
                break
        assert found >= 1e-3
