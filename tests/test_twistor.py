import itertools

import numpy as np
import pytest

from g2twistor.fields import (
    fit_convergence_order,
    levi_civita,
    make_field,
)
from g2twistor.forms import KForm, contract
from g2twistor.sampling import sphere_bundle_samples
from g2twistor.twistor import (
    TwistorError,
    canonical_form_horizontal_residual,
    cartan_identity_residual,
    cr_splitting,
    flat_noise_floor,
    form_bundle_lift,
    frobenius_bracket,
    involutivity_residual,
    omega_closure_residual,
    tautological_forms,
    theta_value,
    twistor_point,
    vertical_curvature_obstruction,
    xi_factorization_residual,
    xi_value,
)

RNG = np.random.default_rng(23)
NS = (8, 16, 32)
HS = [1.0 / n for n in NS]
MS, XS = sphere_bundle_samples(10, 17)


@pytest.fixture(scope="module")
def flat():
    return make_field("flat", 16)


@pytest.fixture(scope="module")
def conformal():
    return make_field("conformal", 16, epsilon=0.05)


@pytest.fixture(scope="module")
def generic():
    return make_field("generic-perturbed", 16, epsilon=0.1)


# ---------------------------------------------------------------------------
# frames


def test_flat_frame_is_constant(flat):
    tp = twistor_point(flat, MS[0], XS[0])
    assert np.allclose(tp.theta[0], tp.x)
    assert np.abs(tp.theta[1]).max() == 0.0
    for a in range(6):
        assert np.abs(tp.b_lifts[a][1]).max() == 0.0
        assert abs(tp.x @ tp.b_lifts[a][0]) < 1e-10


def test_frame_orthonormal(generic):
    tp = twistor_point(generic, MS[1], XS[1])
    g = tp.point.g
    vecs = [tp.theta] + list(tp.b_lifts)
    for i, u in enumerate(vecs):
        for j, v in enumerate(vecs):
            want = 1.0 if i == j else 0.0
            assert abs(u[0] @ g @ v[0] - want) < 1e-10
    for a in range(6):
        va = tp.vert_basis[a][1]
        assert abs(tp.x @ g @ va) < 1e-10
        for b in range(6):
            want = 1.0 if a == b else 0.0
            assert abs(va @ g @ tp.vert_basis[b][1] - want) < 1e-10


def test_normalization_is_internal(generic):
    tp1 = twistor_point(generic, MS[2], XS[2])
    tp2 = twistor_point(generic, MS[2], 3.7 * XS[2])
    assert np.allclose(tp1.x, tp2.x)
    assert np.allclose(tp1.theta, tp2.theta)


def test_zero_fiber_vector_rejected(flat):
    with pytest.raises(TwistorError):
        twistor_point(flat, MS[0], np.zeros(7))


def test_lift_beats_naive_transport(conformal):
    """Moving along a horizontal lift preserves the unit norm an order of
    magnitude better than freezing the fiber component."""
    for n in NS:
        field = make_field("conformal", n, epsilon=0.05)
        tp = twistor_point(field, MS[1], XS[1])
        h = field.h
        b = tp.b_lifts[0]
        lifted = abs(
            field.point_data(tp.m + h * b[0]).metric.inner(tp.x + h * b[1], tp.x + h * b[1]) - 1.0
        )
        naive = abs(field.point_data(tp.m + h * b[0]).metric.inner(tp.x, tp.x) - 1.0)
        assert lifted < naive / 10.0


# ---------------------------------------------------------------------------
# CR splitting


def test_splitting_eigen_equations(generic):
    tp = twistor_point(generic, MS[3], XS[3])
    cs = cr_splitting(tp)
    I6 = tp.su3.I
    assert np.abs(I6 @ I6 + np.eye(6)).max() < 1e-10
    for r in cs.b10:
        assert np.abs(I6 @ r - 1j * r).max() < 1e-10
    for r in cs.b01:
        assert np.abs(I6 @ r + 1j * r).max() < 1e-10
    assert np.array_equal(cs.b01, np.conj(cs.b10))
    gram = np.conj(cs.b10) @ cs.b10.T
    assert np.abs(gram - np.eye(3)).max() < 1e-10


def test_splitting_standard_direction_span(flat):
    tp = twistor_point(flat, MS[0], np.eye(7)[0])
    cs = cr_splitting(tp)
    amb = np.einsum("ra,ia->ri", cs.b10, tp.w_basis)
    want = np.array(
        [
            [0, 1, -1j, 0, 0, 0, 0],
            [0, 0, 0, 1, -1j, 0, 0],
            [0, 0, 0, 0, 0, 1, -1j],
        ]
    ) / np.sqrt(2)
    residuals = np.linalg.lstsq(amb.T, want.T, rcond=None)[1]
    assert np.abs(residuals).max() < 1e-20


# ---------------------------------------------------------------------------
# brackets


def test_flat_horizontal_brackets_vanish(flat):
    tp = twistor_point(flat, MS[4], XS[4])
    br = frobenius_bracket(flat, tp, tp.b_lifts[0], tp.b_lifts[1])
    assert np.abs(br).max() == 0.0


def test_bracket_antisymmetry_exact(conformal):
    tp = twistor_point(conformal, MS[4], XS[4])
    X, Y = tp.b_lifts[0], tp.b_lifts[3]
    assert np.array_equal(
        frobenius_bracket(conformal, tp, X, Y), -frobenius_bracket(conformal, tp, Y, X)
    )


def test_vertical_bracket_equals_curvature(conformal):
    """The vertical component of horizontal brackets is -R(X, Y)x; checked
    against the Christoffel-route curvature at second-order rate."""
    errs = []
    for n in NS:
        field = make_field("conformal", n, epsilon=0.05)
        worst = 0.0
        for k in range(4):
            tp = twistor_point(field, MS[k], XS[k])
            conn = levi_civita(field, tp.m)
            for i, j in [(0, 1), (2, 4)]:
                X, Y = tp.b_lifts[i], tp.b_lifts[j]
                br = frobenius_bracket(field, tp, X, Y)
                vert = tp.vertical_part(br)
                want = -conn.curvature_vector(X[0], Y[0], tp.x)
                worst = max(worst, np.abs(vert - want).max())
        errs.append(worst)
    assert fit_convergence_order(HS, errs) > 1.5
    assert errs[-1] < 5e-3


def test_b_section_brackets_stay_orthogonal_to_theta(conformal):
    """Brackets of pointwise sections of B have no theta component; the
    discrete cancellation is exact, mirroring the canonical-form mechanism."""
    tp = twistor_point(conformal, MS[0], XS[0])
    for i, j in [(0, 1), (2, 3), (4, 5)]:
        br = frobenius_bracket(conformal, tp, tp.b_lifts[i], tp.b_lifts[j], projection="b")
        assert abs(tp.x @ tp.point.g @ br[0]) < 1e-12


# ---------------------------------------------------------------------------
# involutivity


def test_flat_involutivity_zero(flat):
    for k in range(6):
        tp = twistor_point(flat, MS[k], XS[k])
        assert involutivity_residual(flat, tp) <= 1e-10


def test_generic_involutivity_positive(generic):
    floor = flat_noise_floor(16, n_samples=10, seed=5)
    vals = [
        involutivity_residual(generic, twistor_point(generic, MS[k], XS[k]))
        for k in range(6)
    ]
    assert max(vals) >= 10.0 * floor
    assert max(vals) > 0.05


def test_involutivity_conjugation_symmetry(generic):
    tp = twistor_point(generic, MS[5], XS[5])
    r01 = involutivity_residual(generic, tp, which="01")
    r10 = involutivity_residual(generic, tp, which="10")
    assert abs(r01 - r10) < 1e-12


def test_involutivity_extension_independence(conformal):
    """Two admissible section extensions agree to O(h)."""
    diffs = []
    for n in NS:
        field = make_field("conformal", n, epsilon=0.05)
        tp = twistor_point(field, MS[1], XS[1])
        a = involutivity_residual(field, tp, carrier="transport")
        b = involutivity_residual(field, tp, carrier="parallel")
        diffs.append(abs(a - b))
    assert fit_convergence_order(HS, diffs) > 0.9


def test_vertical_obstruction_flat_zero(flat):
    tp = twistor_point(flat, MS[6], XS[6])
    assert vertical_curvature_obstruction(flat, tp) == 0.0


def test_vertical_obstruction_matches_bracket_route(conformal):
    """Two computation paths: the curvature evaluated on the (0,1) basis
    against the vertical part of the numerical brackets."""
    diffs = []
    for n in NS:
        field = make_field("conformal", n, epsilon=0.05)
        tp = twistor_point(field, MS[2], XS[2])
        oracle = vertical_curvature_obstruction(field, tp)
        cs = cr_splitting(tp)
        t01 = cs.tangents_01(tp)
        worst = 0.0
        for i, j in itertools.combinations(range(3), 2):
            br = frobenius_bracket(field, tp, t01[i], t01[j], projection="cr01")
            worst = max(worst, tp.point.metric.norm(tp.vertical_part(br)))
        diffs.append(abs(oracle - worst))
    assert fit_convergence_order(HS, diffs) > 1.0
    assert diffs[-1] < 0.01


def test_vertical_obstruction_synthetic_seven_block(flat):
    """Curvature forced into the 7 x so(7) block obstructs at every
    sampled point."""
    std = flat.point_data(np.zeros(7))
    omega1 = contract(std.rho, np.eye(7)[0]).as_matrix()
    S = RNG.standard_normal((7, 7))
    S = (S - S.T) / 2
    R = np.einsum("ij,kl->ijkl", omega1, S)
    R = (R - np.einsum("ijlk->ijkl", R)) / 2
    for k in range(5):
        tp = twistor_point(flat, MS[k], XS[k])
        assert vertical_curvature_obstruction(flat, tp, curvature=R) > 1e-2


# ---------------------------------------------------------------------------
# tautological forms


def random_tangent(k):
    from math import comb

    return (RNG.standard_normal(7), RNG.standard_normal(comb(7, k)))


def test_theta_kills_vertical_vectors():
    lam = KForm(7, 3, RNG.standard_normal(35))
    tangents = [(np.zeros(7), RNG.standard_normal(35)) for _ in range(3)]
    assert theta_value(lam, tangents) == 0.0


def test_xi_kills_pure_vertical():
    lam = KForm(7, 3, RNG.standard_normal(35))
    tangents = [(np.zeros(7), RNG.standard_normal(35)) for _ in range(4)]
    assert xi_value(lam, tangents) == 0.0


def test_xi_alternating_and_multilinear():
    lam = KForm(7, 2, RNG.standard_normal(21))
    t = [random_tangent(2) for _ in range(3)]
    swapped = [t[1], t[0], t[2]]
    assert xi_value(lam, t) == pytest.approx(-xi_value(lam, swapped), abs=1e-12)
    t2 = [(2.0 * t[0][0], 2.0 * t[0][1]), t[1], t[2]]
    assert xi_value(lam, t2) == pytest.approx(2.0 * xi_value(lam, t), abs=1e-10)


def test_xi_is_derivative_of_theta():
    """Finite-difference exterior derivative of Theta on the total space
    matches the coordinate formula for Xi (Theta is linear in the fiber
    coordinate, so the differences are exact)."""
    from math import comb

    k = 2
    lam0 = RNG.standard_normal(comb(7, k))
    tangents = [random_tangent(k) for _ in range(k + 1)]
    h = 1e-3
    total = 0.0
    for j in range(k + 1):
        others = [tangents[i] for i in range(k + 1) if i != j]
        db, df = tangents[j]
        plus = theta_value(KForm(7, k, lam0 + h * df), others)
        minus = theta_value(KForm(7, k, lam0 - h * df), others)
        total += (-1.0) ** j * (plus - minus) / (2 * h)
    want = xi_value(KForm(7, k, lam0), tangents)
    assert total == pytest.approx(want, abs=1e-9)


def test_tautological_forms_wrapper():
    lam = KForm(7, 3, RNG.standard_normal(35))
    tangents = [random_tangent(3) for _ in range(4)]
    th, xi = tautological_forms(lam, tangents)
    assert th == pytest.approx(theta_value(lam, tangents[:3]))
    assert xi == pytest.approx(xi_value(lam, tangents))


def test_canonical_form_horizontal_flat_exact(flat):
    for k in (1, 3):
        assert canonical_form_horizontal_residual(flat, k, n_samples=10, seed=0) < 1e-12


def test_canonical_form_horizontal_conformal_within_h2(conformal):
    """The residual sits far below the c h^2 ceiling at every resolution
    (the discrete cancellation needs only exact symmetry of the differenced
    Christoffel symbols, so it reaches rounding level)."""
    for n in NS:
        field = make_field("conformal", n, epsilon=0.05)
        for k in (1, 3):
            r = canonical_form_horizontal_residual(field, k, n_samples=10, seed=0)
            assert r <= 1.0 / n**2
            assert r < 1e-12


def test_form_bundle_lift_parallel_transport(conformal):
    """The lift's fiber velocity matches a one-step parallel transport of
    the form along the base direction at second order."""
    gen = conformal.generator
    p = MS[0]
    lam = KForm(7, 3, RNG.standard_normal(35))
    b = RNG.standard_normal(7)
    gamma = gen.exact_christoffel(p)
    _, lam_dot = form_bundle_lift(gamma, lam, b)
    # oracle: difference quotient of the pullback along the exact transport
    t = 1e-6
    from g2twistor.forms import transform

    A = np.eye(7) + t * np.einsum("kij,i->kj", gamma, b)
    moved = transform(lam, A)  # transport of the coframe acts by pullback
    quotient = (moved.coeffs - lam.coeffs) / t
    assert np.abs(lam_dot - quotient).max() < 1e-4


# ---------------------------------------------------------------------------
# the holomorphic volume form


def test_omega_closure_flat_zero(flat):
    tps = [twistor_point(flat, MS[k], XS[k]) for k in range(3)]
    assert omega_closure_residual(flat, tps, max_combos=10) <= 1e-12


def test_omega_matches_frame_volume(flat, generic):
    from g2twistor.twistor import _omega_eval

    for field in (flat, generic):
        tp = twistor_point(field, MS[1], XS[1])
        fr = tp.su3
        for (a, b, c) in [(0, 1, 2), (1, 3, 5), (0, 2, 4)]:
            val = _omega_eval(field, tp.m, tp.x, [tp.b_lifts[a], tp.b_lifts[b], tp.b_lifts[c]])
            basis = np.eye(6)
            want = fr.Omega_re.evaluate([basis[a], basis[b], basis[c]]) + 1j * fr.Omega_im.evaluate(
                [basis[a], basis[b], basis[c]]
            )
            assert abs(val - want) < 1e-10


def test_omega_closure_detects_coclosed_failure():
    """A closed perturbation keeps d(rho) = 0 but not d(*rho); the closure
    residual sees it through the imaginary part."""
    field = make_field("closed-perturbed", 16, epsilon=0.05)
    tps = [twistor_point(field, MS[k], XS[k]) for k in range(3)]
    assert omega_closure_residual(field, tps, max_combos=10) > 0.01


def test_xi_factorization_two_paths(conformal):
    """d((pullback *rho) . theta) computed directly agrees with the exact
    canonical form pulled through the embedding into the 3-form bundle."""
    errs = []
    for n in NS:
        field = make_field("conformal", n, epsilon=0.05)
        tps = [twistor_point(field, MS[0], XS[0])]
        errs.append(xi_factorization_residual(field, tps, max_combos=6))
    assert fit_convergence_order(HS, errs) > 1.8


def test_cartan_identity_flat_zero(flat):
    tp = twistor_point(flat, MS[2], XS[2])
    assert cartan_identity_residual(flat, tp) <= 1e-12


def test_cartan_identity_conformal_rate(conformal):
    """d Omega(X, Y, Z, T) + Omega(X, Y, [Z, T]) -> 0 at first order or
    better while both sides stay O(1); this pins the sign conventions."""
    errs = []
    for n in NS:
        field = make_field("conformal", n, epsilon=0.05)
        tp = twistor_point(field, MS[0], XS[0])
        errs.append(cartan_identity_residual(field, tp))
    assert fit_convergence_order(HS, errs) > 0.9
    assert errs[-1] < errs[0]


def test_noise_floor_reported(flat):
    floor = flat_noise_floor(16, n_samples=8, seed=0)
    assert 0 < floor <= 1e-10
