import numpy as np
import pytest

from g2twistor.fields import (
    ConformalGenerator,
    StructureField,
    UnknownGeneratorError,
    calibrate_integrability,
    central_difference,
    christoffel,
    curvature_g2_check,
    exterior_derivative,
    fernandez_gray_residual,
    fit_convergence_order,
    integrability_verdict,
    levi_civita,
    make_field,
    torsion_residual,
)
from g2twistor.forms import KForm, wedge
from g2twistor.pointwise import RHO_STD_TERMS
from g2twistor.sampling import sphere_bundle_samples, torus_points
from g2twistor.twistor import involutivity_residual, twistor_point

RNG = np.random.default_rng(11)
AXES = np.eye(7)
NS = (8, 16, 32)
HS = [1.0 / n for n in NS]


@pytest.fixture(scope="module")
def flat():
    return make_field("flat", 16)


@pytest.fixture(scope="module")
def conformal():
    return make_field("conformal", 16, epsilon=0.05)


@pytest.fixture(scope="module")
def points():
    return torus_points(6, 99)


# ---------------------------------------------------------------------------
# generators


def test_unknown_family_rejected():
    with pytest.raises(UnknownGeneratorError):
        make_field("nope", 16)


def test_generators_periodic(points):
    for fam, eps in [
        ("flat", 0.0),
        ("closed-perturbed", 0.05),
        ("generic-perturbed", 0.05),
        ("conformal", 0.05),
    ]:
        field = make_field(fam, 16, epsilon=eps)
        for p in points[:3]:
            for i in range(7):
                a = field.rho(p)
                b = field.rho(p + AXES[i])
                assert (a - b).coefficient_norm < 1e-12


def test_generators_pass_point_invariants(points):
    for fam, eps in [
        ("closed-perturbed", 0.1),
        ("generic-perturbed", 0.1),
        ("conformal", 0.05),
    ]:
        field = make_field(fam, 16, epsilon=eps)
        for p in points[:3]:
            field.validate_at(p)  # raises on any failed invariant


def _pointwise_rho(family, eps, freq, p):
    """Each family's formula at one point, written with KForm algebra."""
    f = np.asarray(freq, dtype=float)
    phase = 2.0 * np.pi * float(f @ p)
    rho = KForm.from_terms(7, RHO_STD_TERMS)
    if family == "closed-perturbed":
        kappa = KForm.from_terms(7, {(1, 3): 1.0, (2, 5): 1.0})
        scale = -eps * np.sin(phase) / np.linalg.norm(f)
        for i in np.flatnonzero(f):
            rho = rho + (scale * f[i]) * wedge(KForm.basis(7, (i,)), kappa)
    elif family == "generic-perturbed":
        rho = rho + eps * np.sin(phase) * KForm.from_terms(7, {(1, 3, 5): 1.0, (2, 4, 6): 1.0})
    elif family == "conformal":
        rho = float(np.exp(3.0 * eps * np.sin(phase))) * rho
    return rho


@pytest.mark.parametrize(
    "family, freq",
    [
        ("flat", (1, 0, 0, 0, 0, 0, 0)),
        ("closed-perturbed", (1, 0, 0, 1, 0, 0, 1)),
        ("generic-perturbed", (1, 0, 0, 0, 0, 0, 0)),
        ("generic-perturbed", (0, 1, 0, 0, 1, 0, 0)),
        ("conformal", (1, 0, 0, 0, 0, 0, 0)),
        ("conformal", (0, 0, 1, 0, 0, 1, 0)),
    ],
)
def test_generator_coeffs_match_pointwise_formula(family, freq):
    """Stacked coefficients equal the one-point formula; row i of a batch is
    the one-point call on row i bit for bit."""
    gen = make_field(family, 16, epsilon=0.05, frequency=freq).generator
    P = torus_points(50, 3)
    C = gen.coeffs(P)
    assert C.shape == (50, 35)
    for p, row in zip(P, C):
        assert np.abs(row - _pointwise_rho(family, 0.05, freq, p).coeffs).max() < 1e-15
        assert np.array_equal(row, gen(p).coeffs)
        assert np.array_equal(row, gen.coeffs(p[None])[0])


def test_closed_multi_frequency_keeps_d_rho_zero(points):
    """Nonzero frequency entries of equal size: every axis stencil damps the
    sine by the same factor, so the discrete d(rho) cancels to rounding."""
    field = make_field("closed-perturbed", 16, epsilon=0.05, frequency=(1, 0, 0, 1, 0, 0, 1))
    d, ds = fernandez_gray_residual(field, points)
    assert d < 1e-13
    assert ds > 0.05


@pytest.mark.parametrize("n", [1, 14, 50])
def test_batched_field_rows_match_point_data(n):
    field = make_field("generic-perturbed", 16, epsilon=0.1)
    P = torus_points(n, 8)
    g, orientation = field.metrics(P)
    star = field.star_rho_coeffs(P)
    for i, p in enumerate(P):
        pd = field.point_data(p)
        assert np.array_equal(g[i], pd.g)
        assert orientation[i] == pd.orientation
        assert np.array_equal(star[i], pd.rho_star.coeffs)


def test_generic_callable_generator_stacks_points(points):
    field = make_field("generic-perturbed", 16, epsilon=0.1)
    plain = StructureField(generator=lambda p: field.rho(p), resolution=16)
    assert np.array_equal(plain.rho_coeffs(points), field.rho_coeffs(points))


def test_conformal_metric_closed_form(points):
    field = make_field("conformal", 16, epsilon=0.05)
    gen = field.generator
    for p in points:
        assert np.abs(field.metric(p).entries - gen.exact_metric(p)).max() < 1e-12


# ---------------------------------------------------------------------------
# exterior derivative


def test_central_difference_exact_on_quadratic():
    """Exact to rounding on quadratics; a complex direction u + i v gives
    D_u f + i D_v f, on a (p,) base and on an (m, x) base."""
    A = RNG.standard_normal((7, 7))
    b = RNG.standard_normal(7)
    p, m, x = RNG.random(7), RNG.random(7), RNG.standard_normal(7)
    u, v = RNG.standard_normal((2, 7)), RNG.standard_normal((2, 7))
    h = 1.0 / 16

    def f(q):
        return q @ A @ q + b @ q

    grad = (A + A.T) @ p + b
    assert central_difference(f, (p,), (u[0],), h) == pytest.approx(grad @ u[0], abs=1e-12)
    got = central_difference(f, (p,), (u[0] + 1j * v[0],), h)
    assert got == pytest.approx(grad @ u[0] + 1j * (grad @ v[0]), abs=1e-12)

    def g(m, x):
        return np.array([m @ A @ x, x @ x + b @ m])

    def dg(w):  # exact derivative of g at (m, x) along the tangent w = (dm, dx)
        return np.array([w[0] @ A @ x + m @ A @ w[1], 2.0 * x @ w[1] + b @ w[0]])

    got = central_difference(g, (m, x), u + 1j * v, h)
    np.testing.assert_allclose(got, dg(u) + 1j * dg(v), rtol=0.0, atol=1e-12)
    # a complex direction with zero imaginary part gives a real result
    assert np.isrealobj(central_difference(g, (m, x), u.astype(complex), h))


def test_exterior_derivative_constant_field_exact(flat, points):
    for p in points:
        assert exterior_derivative(flat.rho, p, flat.h).coefficient_norm == 0.0


def test_exterior_derivative_closed_form_rate():
    def field(p):
        c = np.zeros(7)
        c[0] = np.sin(2 * np.pi * p[1])
        return KForm(7, 1, c)

    p0 = RNG.random(7)
    errs = []
    for h in HS:
        d = exterior_derivative(field, p0, h)
        want = KForm.from_terms(7, {(1, 0): 2 * np.pi * np.cos(2 * np.pi * p0[1])})
        errs.append((d - want).coefficient_norm)
    assert fit_convergence_order(HS, errs) > 1.9


def test_exterior_derivative_squares_to_zero():
    """d of d vanishes to rounding at every step size: mixed central
    differences commute exactly, so the discrete d has an exact square-zero
    property (stronger than the h^2 bound it is required to satisfy)."""
    freq = np.array([1.0, 2.0, 0, 0, 1.0, 0, 0])

    def one_form(p):
        c = np.zeros(7)
        c[2] = np.cos(2 * np.pi * freq @ p)
        c[5] = np.sin(2 * np.pi * p[0])
        return KForm(7, 1, c)

    p0 = RNG.random(7)
    for h in HS:
        dd = exterior_derivative(lambda q: exterior_derivative(one_form, q, h), p0, h)
        assert dd.coefficient_norm <= 40.0 * h * h  # and in fact ~ machine eps
        assert dd.coefficient_norm < 1e-12


def test_exterior_derivative_rejects_bad_step(flat):
    with pytest.raises(ValueError):
        exterior_derivative(flat.rho, np.zeros(7), 0.0)


@pytest.mark.parametrize("h", [0.0, float("nan")])
@pytest.mark.parametrize(
    "op", ["christoffel", "levi_civita", "involutivity_residual", "exterior_derivative"]
)
def test_stencil_consumers_reject_bad_step(op, h):
    """A zero or NaN step raises instead of caching NaN or reading as zero."""
    field = make_field("generic-perturbed", 16, epsilon=0.1)
    ms, xs = sphere_bundle_samples(1, 4)
    calls = {
        "christoffel": lambda: christoffel(field, ms[0], h=h),
        "levi_civita": lambda: levi_civita(field, ms[0], h=h),
        "involutivity_residual": lambda: involutivity_residual(
            field, twistor_point(field, ms[0], xs[0]), h=h
        ),
        "exterior_derivative": lambda: exterior_derivative(field.rho, ms[0], h),
    }
    with pytest.raises(ValueError, match="step must be positive and finite"):
        calls[op]()
    assert all(key[1] == field.h for key in field._gamma_cache)


# ---------------------------------------------------------------------------
# torsion residuals


def test_flat_field_torsion_free_exactly(flat, points):
    d, ds = fernandez_gray_residual(flat, points)
    assert d < 1e-13 and ds < 1e-13


@pytest.mark.parametrize("family", ["closed-perturbed", "generic-perturbed", "conformal"])
def test_torsion_residual_matches_per_point_route(family, points):
    """The batched stencil gives the same bits as differencing rho and *rho
    point by point through point_data."""
    field = make_field(family, 16, epsilon=0.05)
    for p in points:
        want = (
            exterior_derivative(field.rho, p, field.h).coefficient_norm,
            exterior_derivative(field.star_rho, p, field.h).coefficient_norm,
        )
        assert torsion_residual(field, p) == want


def test_closed_perturbation_keeps_d_rho_zero(points):
    field = make_field("closed-perturbed", 16, epsilon=0.05)
    d, ds = fernandez_gray_residual(field, points)
    assert d < calibrate_integrability(16)
    assert ds > 0.05


def test_generic_perturbation_breaks_both(points):
    eps = 0.05
    field = make_field("generic-perturbed", 16, epsilon=eps)
    d, ds = fernandez_gray_residual(field, points)
    assert d >= 0.1 * eps and ds >= 0.1 * eps


def test_integrability_verdicts(points):
    assert integrability_verdict(make_field("flat", 16), points)[0]
    assert not integrability_verdict(
        make_field("closed-perturbed", 16, epsilon=0.05), points
    )[0]
    assert not integrability_verdict(
        make_field("generic-perturbed", 16, epsilon=0.05), points
    )[0]


# ---------------------------------------------------------------------------
# connection and curvature


def test_flat_connection_exact(flat, points):
    conn = levi_civita(flat, points[0])
    assert np.abs(conn.gamma).max() == 0.0
    assert np.abs(conn.riemann).max() == 0.0


def test_christoffel_matches_conformal_closed_form(points):
    gen = ConformalGenerator(0.05)
    errs = []
    for n in NS:
        field = StructureField(generator=gen, resolution=n)
        e = max(
            np.abs(christoffel(field, p) - gen.exact_christoffel(p)).max()
            for p in points[:3]
        )
        errs.append(e)
    assert fit_convergence_order(HS, errs) > 1.9


def test_christoffel_symmetric_exactly(conformal, points):
    G = christoffel(conformal, points[0])
    assert np.array_equal(G, np.transpose(G, (0, 2, 1)))


def test_christoffel_equals_loop_reference(points):
    """The transposed sum in christoffel equals the loop over (i, j) bit for bit."""
    field = make_field("generic-perturbed", 16, epsilon=0.1)
    for p in points[:3]:
        dg = central_difference(lambda P: field.metrics(P)[0], (p,), (AXES,), field.h)
        term = np.empty((7, 7, 7))
        for i in range(7):
            for j in range(7):
                term[i, j] = dg[i][j] + dg[j][i] - dg[:, i, j]
        want = 0.5 * np.einsum("kl,ijl->kij", np.linalg.inv(field.point_data(p).g), term)
        assert np.array_equal(christoffel(field, p), want)


def test_curvature_antisymmetries_exact(conformal, points):
    R = levi_civita(conformal, points[0]).riemann
    assert np.array_equal(R, -np.transpose(R, (1, 0, 2, 3)))
    assert np.array_equal(R, -np.transpose(R, (0, 1, 3, 2)))


def test_curvature_matches_exact_christoffel_route(points):
    """Oracle: curvature assembled from the closed-form Christoffel symbols
    with a tight independent differencing step."""
    gen = ConformalGenerator(0.05)
    p = points[1]

    def oracle(h=1e-5):
        G = gen.exact_christoffel(p)
        dG = np.zeros((7, 7, 7, 7))
        for i in range(7):
            dG[i] = (
                gen.exact_christoffel(p + h * AXES[i])
                - gen.exact_christoffel(p - h * AXES[i])
            ) / (2 * h)
        mixed = (
            np.einsum("ikjl->klij", dG)
            - np.einsum("jkil->klij", dG)
            + np.einsum("kim,mjl->klij", G, G)
            - np.einsum("kjm,mil->klij", G, G)
        )
        low = np.einsum("km,mlij->ijkl", gen.exact_metric(p), mixed)
        return (low - np.einsum("ijlk->ijkl", low)) / 2

    want = oracle()
    errs = []
    for n in NS:
        field = StructureField(generator=gen, resolution=n)
        errs.append(np.abs(levi_civita(field, p).riemann - want).max())
    assert fit_convergence_order(HS, errs) > 1.8


def test_first_bianchi_scaling(points):
    """Residual of the first Bianchi identity shrinks at least at h^2."""
    p = points[2]
    errs = []
    for n in NS:
        field = make_field("generic-perturbed", n, epsilon=0.1)
        R = levi_civita(field, p).riemann
        b = R + np.einsum("iklj->ijkl", R) + np.einsum("iljk->ijkl", R)
        errs.append(max(np.abs(b).max(), 1e-16))
    assert errs[-1] <= errs[0]
    assert errs[-1] < 0.25 * errs[0] or errs[-1] < 1e-12


def test_metric_compatibility_residual(points):
    """nabla g vanishes to rounding at every resolution: the Christoffel
    formula is an algebraic identity in whatever first differences of g are
    fed to it, so discrete metric compatibility is exact (stronger than the
    h^2 bound it is required to satisfy)."""
    gen = ConformalGenerator(0.05)
    p = points[0]
    for n in NS:
        field = StructureField(generator=gen, resolution=n)
        h = field.h
        G = christoffel(field, p)
        dg = np.empty((7, 7, 7))
        for k in range(7):
            dg[k] = (
                field.metric(p + h * AXES[k]).entries
                - field.metric(p - h * AXES[k]).entries
            ) / (2 * h)
        g = field.metric(p).entries
        nabla = dg - np.einsum("mki,mj->kij", G, g) - np.einsum("mkj,im->kij", G, g)
        assert np.abs(nabla).max() < 1e-12


def test_metric_field_smoothness(points):
    """Second differences of the induced metric stay bounded in N."""
    field16 = make_field("generic-perturbed", 16, epsilon=0.1)
    p = points[3]

    def second_diff(field, h):
        worst = 0.0
        for k in range(3):
            val = (
                field.metric(p + h * AXES[k]).entries
                - 2 * field.metric(p).entries
                + field.metric(p - h * AXES[k]).entries
            ) / h**2
            worst = max(worst, np.abs(val).max())
        return worst

    vals = [
        second_diff(make_field("generic-perturbed", n, epsilon=0.1), 1.0 / n)
        for n in NS
    ]
    assert max(vals) < 1.5 * min(vals) + 1.0


# ---------------------------------------------------------------------------
# curvature 14-block check


def test_curvature_block_flat_zero(flat, points):
    assert curvature_g2_check(flat, points[0]) == 0.0


def test_curvature_block_perturbed_positive(points):
    field = make_field("generic-perturbed", 16, epsilon=0.1)
    vals = [curvature_g2_check(field, p) for p in points[:4]]
    assert max(vals) > 1e-3


def test_curvature_block_equals_loop_reference(points):
    """The pair gather in curvature_g2_check equals the double loop bit for bit."""
    field = make_field("generic-perturbed", 16, epsilon=0.1)
    p = points[2]
    R = levi_civita(field, p).riemann
    pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
    M = np.array([[R[i, j, k, l] for k, l in pairs] for i, j in pairs])
    point = field.point_data(p)
    _, P14 = point.lambda2_projectors
    D = M - P14 @ M @ P14.T
    G2 = point.metric.gram(2)
    want = float(np.sqrt(max(np.einsum("IJ,IK,JL,KL->", D, G2, G2, D), 0.0)))
    assert curvature_g2_check(field, p) == want


def test_curvature_block_frame_invariant(points):
    """Recomputed in a consistently rotated frame (a signed permutation,
    which preserves the torus) the residual is unchanged."""
    field = make_field("generic-perturbed", 16, epsilon=0.1)
    perm = np.array([2, 0, 1, 4, 3, 6, 5])
    signs = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0])
    A = np.zeros((7, 7))
    for i in range(7):
        A[perm[i], i] = signs[i]
    if np.linalg.det(A) < 0:
        A[:, 0] = -A[:, 0]

    from g2twistor.forms import transform

    class Rotated:
        def __call__(self, p):
            return transform(field.rho(A @ p), A)

        def params(self):
            return {}

    rot = StructureField(generator=Rotated(), resolution=16)
    p = points[1]
    a = curvature_g2_check(field, A @ p)
    b = curvature_g2_check(rot, p)
    assert a == pytest.approx(b, rel=1e-6, abs=1e-10)
