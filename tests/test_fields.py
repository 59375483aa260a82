import dataclasses
from functools import partial
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import g2twistor.fields as fields_module
import g2twistor.pointwise as pointwise_module
import oracles
from g2twistor.fields import (
    ConformalGenerator,
    FlatGenerator,
    StructureField,
    UnknownGeneratorError,
    _d_from_partials,
    _distinct_rows,
    calibrate_integrability,
    central_difference,
    christoffel,
    christoffels,
    curvature_g2_check,
    exterior_derivative,
    fit_convergence_order,
    integrability_verdict,
    levi_civita,
    make_field,
    riemanns,
    torsion_residual,
    torsion_residuals,
)
from g2twistor.forms import KForm, hodge_star, minors, wedge
from g2twistor.instanton import cr_holomorphicity_residuals, f7_residuals
from g2twistor.pointwise import (
    RHO_STD_TERMS,
    DegenerateFormError,
    G2Point,
    G2StructureError,
    SplitFormError,
    su3_structures,
)
from g2twistor.sampling import sphere_bundle_samples, torus_points
from g2twistor.twistor import (
    BLOCK,
    involutivity_residuals,
    omega_closure_residuals,
    twistor_points,
    vertical_curvature_obstructions,
)

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
            G2Point.from_rho(field.rho(p))  # raises on any failed invariant


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
    d, ds = integrability_verdict(field, points)[1:3]
    assert d < 1e-13
    assert ds > 0.05


@pytest.mark.parametrize("n", [1, 14, 50])
def test_batched_field_rows_match_point_data(n):
    """Batch rows equal the one-point G2 point bit for bit, the stacked
    inverse, volume factor and Hodge star included."""
    field = make_field("generic-perturbed", 16, epsilon=0.1)
    P = torus_points(n, 8)
    g, orientation = field.metrics(P)
    R, stacked_g, ginv, vol, stacked_star = field.point_stacks(P)
    for i, p in enumerate(P):
        pd = field.point_data(p)
        want = G2Point.from_rho(field.rho(p), validate=False)
        assert np.array_equal(g[i], want.g) and np.array_equal(pd.g, want.g)
        assert np.array_equal(R[i], want.rho.coeffs) and np.array_equal(stacked_g[i], want.g)
        assert orientation[i] == pd.orientation == want.orientation
        assert np.array_equal(ginv[i], want.ginv) and vol[i] == want.orientation * want.metric.sqrt_det
        star = hodge_star(want.rho, want.metric, want.orientation)
        assert np.array_equal(pd.rho_star.coeffs, star.coeffs)
        assert np.array_equal(stacked_star[i], star.coeffs)


def test_structure_field_holds_no_state():
    """A field is its generator and resolution, frozen; a twistor scan writes nothing to it."""
    assert [f.name for f in dataclasses.fields(StructureField)] == ["generator", "resolution"]
    field = make_field("generic-perturbed", 16, epsilon=0.1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        field.resolution = 32
    with pytest.raises(dataclasses.FrozenInstanceError):
        field.rows = {}
    before = dict(vars(field))
    ms, xs = sphere_bundle_samples(3, 4)
    tps = twistor_points(field, ms, xs)
    involutivity_residuals(field, tps)
    vertical_curvature_obstructions(field, tps)
    omega_closure_residuals(field, tps, range(3), max_combos=2)
    assert vars(field) == before


@pytest.mark.parametrize("n", [1, 12, 15, 196])
def test_christoffels_rows_match_cold_christoffel(n):
    """Every batch row, repeated rows included, equals a cold one-point call bit
    for bit, and the returned inverse metrics are `np.linalg.inv` of the metrics."""
    P = torus_points(n, 5)
    P[n - n // 4 :] = P[: n // 4]  # the last quarter repeats the first
    field = make_field("generic-perturbed", 16, epsilon=0.1)
    G, g, ginv = christoffels(field, P)
    assert G.shape == (n, 7, 7, 7) and g.shape == ginv.shape == (n, 7, 7)
    assert np.array_equal(ginv, np.linalg.inv(g))
    for p, gamma in zip(P, G):
        cold = make_field("generic-perturbed", 16, epsilon=0.1)
        assert np.array_equal(gamma, christoffel(cold, p))
    for got, want in zip(christoffels(field, P[::-1]), (G, g, ginv), strict=True):
        assert np.array_equal(got, want[::-1])


def test_conformal_metric_closed_form(points):
    field = make_field("conformal", 16, epsilon=0.05)
    gen = field.generator
    for p in points:
        assert np.abs(field.point_data(p).metric.entries - gen.exact_metric(p)).max() < 1e-12


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


@settings(max_examples=60, deadline=None)
@given(
    layout=st.sampled_from(["axes", "per-row", "one-point"]),
    n=st.integers(0, 2 * BLOCK + 1),
    two=st.booleans(),
    kind=st.sampled_from(["real", "complex", "zero-imag"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_central_difference_matches_the_two_call_route(layout, n, two, kind, seed):
    """Equal bit for bit to one call of f per stencil side, on one or two base
    arrays and real, complex and zero-imaginary directions.  Stacked bases take
    one call per part of the direction, on the + rows then the - rows; a
    one-point base takes one call per side and part."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((7, 7))
    k = 2 if two else 1
    if layout == "axes":  # (p[:, None],) along a stacked direction, as the torsion stencils
        at, shape = [rng.random((n, 1, 7)) for _ in range(k)], (k, 3, 7)
    elif layout == "per-row":  # one direction per row, as the bracket and Omega stencils
        at, shape = [rng.random((n, 7)) for _ in range(k)], (k, n, 7)
    else:
        at, shape = [rng.random(7) for _ in range(k)], (k, 7)
    d = rng.standard_normal(shape)
    if kind == "complex":
        d = d + 1j * rng.standard_normal(shape)
    elif kind == "zero-imag":
        d = d.astype(complex)
    calls = []

    def f(*Q):  # row-independent, as every batch caller's f: one (1, 7) @ (7, 7) product a row
        calls.append(Q[0].shape)
        return (np.sin(Q[0])[..., None, :] @ A)[..., 0, :] + Q[0] * Q[-1] ** 2

    got = central_difference(f, tuple(at), d, 1.0 / 16)
    parts = 2 if kind == "complex" and d.size else 1
    assert len(calls) == (2 * parts if layout == "one-point" else parts)
    if layout != "one-point":  # the n rows of the + side, then the n rows of the - side
        assert all(rows == 2 * n for rows, *_ in calls)
    calls.clear()
    # an empty complex direction has no imaginary part to difference
    want = oracles.central_difference_two_calls(f, tuple(at), d if d.size else d.real, 1.0 / 16)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert np.iscomplexobj(got) == (kind == "complex" and d.size > 0)


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
@pytest.mark.parametrize("op", ["central_difference", "exterior_derivative"])
def test_stencil_consumers_reject_bad_step(op, h):
    """A zero or NaN step raises instead of reading as zero or reaching the
    metric; the kernels on a field take its own step h = 1/N."""
    field = make_field("generic-perturbed", 16, epsilon=0.1)
    ms, _ = sphere_bundle_samples(1, 4)
    calls = {
        "central_difference": lambda: central_difference(field.rho_coeffs, (ms[:1],), (AXES[0],), h),
        "exterior_derivative": lambda: exterior_derivative(field.rho, ms[0], h),
    }
    with pytest.raises(ValueError, match="step must be positive and finite"):
        calls[op]()


@pytest.mark.parametrize("build", ["StructureField", "make_field"])
@pytest.mark.parametrize("resolution", [0, -4, 16.5, True])
def test_field_rejects_bad_resolution(build, resolution):
    """A resolution that is not a positive integer fails when the field is
    built, with one line, not at its first difference."""
    make = {
        "StructureField": lambda: StructureField(generator=FlatGenerator(), resolution=resolution),
        "make_field": lambda: make_field("flat", resolution),
    }
    with pytest.raises(ValueError, match="resolution must be a positive integer") as err:
        make[build]()
    assert "\n" not in str(err.value)


# ---------------------------------------------------------------------------
# torsion residuals


def test_flat_field_torsion_free_exactly(flat, points):
    d, ds = integrability_verdict(flat, points)[1:3]
    assert d < 1e-13 and ds < 1e-13


def _per_point_torsion(field, p):
    """(|d rho|, |d *rho|) from differencing rho and *rho point by point through point_data."""
    return (
        exterior_derivative(field.rho, p, field.h).coefficient_norm,
        exterior_derivative(lambda q: field.point_data(q).rho_star, p, field.h).coefficient_norm,
    )


@pytest.mark.parametrize("family", ["closed-perturbed", "generic-perturbed", "conformal"])
def test_torsion_residual_matches_per_point_route(family, points):
    """The batched stencil gives the same bits as differencing rho and *rho
    point by point through point_data."""
    field = make_field(family, 16, epsilon=0.05)
    for p in points:
        assert torsion_residual(field, p) == _per_point_torsion(field, p)


@pytest.mark.parametrize("n", [1, 5, BLOCK + 1])
@pytest.mark.parametrize("family", ["closed-perturbed", "generic-perturbed", "conformal"])
def test_torsion_residuals_rows_match_one_point_calls(family, n):
    """Row i of the stacked torsion kernel equals the one-point residual and
    the per-point route bit for bit (each norm taken row by row: a norm
    along axis 1 moves the last bit of a row of closed-perturbed here), and
    the Fernandez-Gray residual takes the column maxima."""
    field = make_field(family, 16, epsilon=0.05)
    P = torus_points(n, 21)
    rows = torsion_residuals(field, P)
    assert rows == [torsion_residual(field, p) for p in P]
    assert rows == [_per_point_torsion(field, p) for p in P]
    assert integrability_verdict(field, P)[1:3] == tuple(max(0.0, *col) for col in zip(*rows))


@pytest.mark.parametrize("resolution", [8, 16, 32, 64])
def test_calibration_matches_per_point_loop(resolution):
    """One stacked pass gives the threshold of the per-point loop exactly:
    random((n, 7)) draws the stream of n calls of random(7)."""
    gen = ConformalGenerator(0.01)
    field = StructureField(generator=gen, resolution=resolution)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        p = rng.random(7)
        approx = exterior_derivative(field.rho, p, field.h).coeffs
        worst = max(worst, float(np.linalg.norm(approx - gen.exact_drho(p).coeffs)))
    assert calibrate_integrability(resolution) == 5.0 * max(worst, 1e-14)


@pytest.mark.parametrize(
    "op, want",
    [
        ("twistor_points", []),
        ("involutivity_residuals", []),
        ("vertical_curvature_obstructions", []),
        ("omega_closure_residuals", []),
        ("torsion_residuals", []),
        ("fernandez_gray_residual", (0.0, 0.0)),
        ("riemanns", (0, 7, 7, 7, 7)),
        ("christoffels", [(0, 7, 7, 7), (0, 7, 7), (0, 7, 7)]),
        ("su3_structures", [(0, 7, 6), (0, 6, 6), (0, 3, 6), (0, 15), (0, 20), (0, 20)]),
        ("f7_residuals", []),
        ("cr_holomorphicity_residuals", []),
    ],
)
def test_batches_accept_no_rows(flat, op, want):
    """A batch of no rows gives no rows (stacks of no rows: Christoffel
    symbols of shape (0, 7, 7, 7) with metrics and inverses of shape (0, 7, 7), the
    curvature and SU(3) stacks), and the Fernandez-Gray maxima start at zero."""
    none = np.zeros((0, 7))
    no_tps = twistor_points(flat, none, none)
    no_points = (np.zeros((0, 7, 7)), np.zeros((0, 7, 7)), np.zeros((0, 35)), np.zeros((0, 35)))
    calls = {
        "twistor_points": lambda: list(twistor_points(flat, [], [])),
        "involutivity_residuals": lambda: involutivity_residuals(flat, no_tps),
        "vertical_curvature_obstructions": lambda: vertical_curvature_obstructions(flat, no_tps),
        "omega_closure_residuals": lambda: omega_closure_residuals(flat, no_tps, []),
        "torsion_residuals": lambda: torsion_residuals(flat, []),
        "fernandez_gray_residual": lambda: integrability_verdict(flat, [])[1:3],
        "riemanns": lambda: riemanns(flat, none, np.zeros((0, 7, 7, 7)), np.zeros((0, 7, 7))).shape,
        "christoffels": lambda: [a.shape for a in christoffels(flat, none)],
        "su3_structures": lambda: [s.shape for s in su3_structures(*no_points, none)],
        "f7_residuals": lambda: f7_residuals(
            np.zeros((0, 35)), *no_points[:2], np.zeros(0), np.zeros((0, 21, 1, 1))
        ),
        "cr_holomorphicity_residuals": lambda: cr_holomorphicity_residuals(no_tps, np.zeros((0, 21, 1, 1))),
    }
    assert calls[op]() == want


def test_closed_perturbation_keeps_d_rho_zero(points):
    field = make_field("closed-perturbed", 16, epsilon=0.05)
    d, ds = integrability_verdict(field, points)[1:3]
    assert d < calibrate_integrability(16)
    assert ds > 0.05


def test_generic_perturbation_breaks_both(points):
    eps = 0.05
    field = make_field("generic-perturbed", 16, epsilon=eps)
    d, ds = integrability_verdict(field, points)[1:3]
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
    gamma, _, riemann = levi_civita(flat, points[0])
    assert np.abs(gamma).max() == 0.0
    assert np.abs(riemann).max() == 0.0


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
    """The transposed sum in christoffel equals the loop over (i, j) bit for
    bit, both raised with g^-1 by the kernel's one-row product."""
    field = make_field("generic-perturbed", 16, epsilon=0.1)
    for p in points[:3]:
        dg = central_difference(lambda P: field.metrics(P)[0], (p,), (AXES,), field.h)
        term = np.empty((7, 7, 7))
        for i in range(7):
            for j in range(7):
                term[i, j] = dg[i][j] + dg[j][i] - dg[:, i, j]
        ginv = np.linalg.inv(field.point_data(p).g)
        want = 0.5 * (ginv[None] @ term.reshape(1, 49, 7).transpose(0, 2, 1)).reshape(7, 7, 7)
        assert np.array_equal(christoffel(field, p), want)


def test_curvature_antisymmetries_exact(conformal, points):
    R = levi_civita(conformal, points[0])[2]
    assert np.array_equal(R, -np.transpose(R, (1, 0, 2, 3)))
    assert np.array_equal(R, -np.transpose(R, (0, 1, 3, 2)))


def test_levi_civita_metric_is_the_centre_metric_of_its_pass(monkeypatch):
    """One `levi_civita` call makes two induced-metric passes, one per
    `christoffels` pass (stencil sides and centres together), and its metric
    is the centre metric of its own pass, not a fresh G2 point."""
    field = make_field("generic-perturbed", 16, epsilon=0.1)
    p = torus_points(1, 3)[0]
    calls = []
    induced = fields_module.induced_metrics

    def counted(R):
        calls.append(len(R))
        return induced(R)

    monkeypatch.setattr(fields_module, "induced_metrics", counted)
    monkeypatch.setattr(pointwise_module, "induced_metrics", counted)
    g = levi_civita(field, p)[1]
    assert len(calls) == 2
    monkeypatch.undo()
    assert np.array_equal(g, field.point_data(p).metric.entries)


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
        errs.append(np.abs(levi_civita(field, p)[2] - want).max())
    assert fit_convergence_order(HS, errs) > 1.8


def test_first_bianchi_scaling(points):
    """Residual of the first Bianchi identity shrinks at least at h^2."""
    p = points[2]
    errs = []
    for n in NS:
        field = make_field("generic-perturbed", n, epsilon=0.1)
        R = levi_civita(field, p)[2]
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
                field.point_data(p + h * AXES[k]).metric.entries
                - field.point_data(p - h * AXES[k]).metric.entries
            ) / (2 * h)
        g = field.point_data(p).metric.entries
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
                field.point_data(p + h * AXES[k]).metric.entries
                - 2 * field.point_data(p).metric.entries
                + field.point_data(p - h * AXES[k]).metric.entries
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
    R = levi_civita(field, p)[2]
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

    class Rotated(fields_module._Generator):
        """The pullback of the field's 3-form by p -> A p: the wave of frequency A^T f."""

        frequency = tuple(A.T @ field.generator.frequency)

        def profile(self, theta):
            return field.generator.profile(theta) @ minors(A, 3)

    rot = StructureField(generator=Rotated(), resolution=16)
    p = points[1]
    a = curvature_g2_check(field, A @ p)
    b = curvature_g2_check(rot, p)
    assert a == pytest.approx(b, rel=1e-6, abs=1e-10)


# ---------------------------------------------------------------------------
# row reuse: rho-only work keyed on the 3-form's bytes

# off-axis frequency with zero entries, so some axis neighbours share the 3-form
OFF_AXIS = (1, 2, 0, 1, 0, 0, -1)
REUSE_FAMILIES = [("flat", 0.0), ("generic-perturbed", 0.1), ("conformal", 0.05), ("closed-perturbed", 0.05)]


def _rows_with_repeats(n, seed):
    """n torus points whose last third repeats the first, a row moved along a
    zero-frequency axis (same 3-form, new point) and a row moved by a lattice
    translate along the frequency axis e_1 (outside the unit cube, so its
    stencil wraps around the torus), in a seeded permutation."""
    P = torus_points(n, seed)
    P[n - n // 3 :] = P[: n // 3]
    if n > 1:
        P[1, 2] = (P[1, 2] + 0.5) % 1.0
    if n > 2:
        P[2] = P[0] + AXES[0]
    return P[np.random.default_rng(seed).permutation(n)]


@pytest.mark.parametrize("n", [0, 1, BLOCK + 1])
@pytest.mark.parametrize("family, eps", REUSE_FAMILIES)
def test_rho_keyed_rows_match_no_reuse_oracles(family, eps, n):
    """Metrics, point stacks, Christoffel symbols and torsion residuals equal
    references that compute every row, bit for bit."""
    field = make_field(family, 16, epsilon=eps, frequency=OFF_AXIS)
    P = _rows_with_repeats(n, 31)
    g, orientation = field.metrics(P)
    want_g, want_o = oracles.metrics_without_reuse(field, P)
    assert g.shape == (n, 7, 7) and orientation.shape == (n,)
    assert np.array_equal(g, want_g) and np.array_equal(orientation, want_o)

    stacks = field.point_stacks(P)
    for got, want in zip(stacks, oracles.point_stacks_without_reuse(field, P), strict=True):
        assert got.shape[0] == n and np.array_equal(got, want)

    gamma, g, ginv = christoffels(field, P)
    assert np.array_equal(gamma, oracles.christoffels_without_reuse(field, P, field.h))
    assert np.array_equal(g, want_g) and np.array_equal(ginv, stacks[2])
    assert torsion_residuals(field, P) == oracles.torsion_residuals_without_reuse(field, P, field.h)


def test_distinct_keys_are_bytes():
    """-0.0 and 0.0 rows stay apart and a NaN row is never merged into a
    finite one: each row of the result comes from a row with its own bytes."""
    X = np.array([[0.0, 1.0], [-0.0, 1.0], [np.nan, 1.0], [0.0, 1.0], [np.nan, 1.0]])
    seen = []

    def compute(C):
        seen.append(C.copy())
        return C.copy(), np.arange(len(C))

    rows, slot = _distinct_rows(X, compute)
    assert [len(C) for C in seen] == [3]
    assert rows.tobytes() == X.tobytes()
    assert list(slot) == [0, 1, 2, 0, 2]
    empty = _distinct_rows(np.zeros((0, 2)), lambda C: 2.0 * C)
    assert empty.shape == (0, 2)


@pytest.mark.parametrize("degree", range(7))
def test_d_from_partials_equals_the_add_at_route_bit_for_bit(degree):
    """Each coefficient adds its terms in table order from 0.0, as `np.add.at`
    into zeros does, signs of zero included."""
    rng = np.random.default_rng(degree)
    for n in (0, 1, 16):
        partials = rng.standard_normal((n, 7, comb(7, degree)))
        partials[rng.random(partials.shape) < 0.35] = 0.0
        partials[rng.random(partials.shape) < 0.5] *= -1.0
        got, want = _d_from_partials(partials, degree), oracles.d_from_partials_add_at(partials, degree)
        assert got.shape == want.shape
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def _record_rows(monkeypatch, name, rows):
    f = getattr(fields_module, name)

    def recorded(R, *args):
        rows.append((name, np.array(R)))
        return f(R, *args)

    monkeypatch.setattr(fields_module, name, recorded)


def test_one_block_never_passes_a_3form_twice(monkeypatch):
    """Within one twistor block and one integrability block, no induced-metric
    or Hodge-star call receives two byte-identical 3-form rows, and the Hodge
    duals of one integrability block take no 3-form twice across both
    stencil sides."""
    calls = []
    for name in ("induced_metrics", "structure_stacks"):
        _record_rows(monkeypatch, name, calls)
    field = make_field("generic-perturbed", 16, epsilon=0.1)
    ms, xs = sphere_bundle_samples(BLOCK, 5)
    tps = twistor_points(field, ms, xs)
    involutivity_residuals(field, tps)
    vertical_curvature_obstructions(field, tps)
    omega_closure_residuals(field, tps, range(BLOCK), max_combos=5)
    start = len(calls)
    torsion_residuals(make_field("closed-perturbed", 16, epsilon=0.05), torus_points(BLOCK, 0))
    assert {name for name, _ in calls} == {"induced_metrics", "structure_stacks"}
    for name, R in calls:
        assert len({r.tobytes() for r in R}) == len(R), name
    star = np.concatenate([R for name, R in calls[start:] if name == "structure_stacks"])
    assert len({r.tobytes() for r in star}) == len(star)


# the work of each keyed pass of one 16-sample generic-perturbed twistor
# block: ("rows", rows the pass receives), ("profile", distinct phases), then
# ("bytes", rows of the byte key), one triple per keyed pass (the point
# stacks; the centres, the two extension passes and the curvature stencil of
# `christoffels`; the Omega pass), and a lone ("profile", 96) for each unkeyed
# `rho_coeffs` call of the CR projections.  At e_1 the Christoffel and
# curvature stencils difference along e_1 only, so their passes take 48, 288,
# 288 and 96 rows where (1, ..., 7) takes 240, 1440, 1440 and 3360; the
# distinct phases are the same as with all seven axes, whose extra stencil
# rows have the centre's phase.
KEYED_TWISTOR_WORK = {
    (1, 0, 0, 0, 0, 0, 0): [(16, 16), (48, 18), (288, 249), (288, 210), (96, 21), (640, 150)],
    (1, 2, 3, 4, 5, 6, 7): [(16, 16), (240, 240), (1440, 1440), (1440, 1440), (3360, 478), (640, 220)],
}


class RecordedProfile(fields_module._Generator):
    """A generator that logs how many phases each call of its profile takes."""

    def __init__(self, inner, log):
        self.inner, self.frequency, self.log = inner, inner.frequency, log

    def profile(self, theta):
        self.log.append(("profile", len(theta)))
        return self.inner.profile(theta)


def _recorded_field(monkeypatch, family, **kwargs):
    """The field of make_field(family, 16, ...) with a `RecordedProfile`
    generator, and the log that it, `StructureField._keyed` (the rows each
    keyed pass receives) and `_distinct_rows` write."""
    log = []
    keyed, distinct_rows = StructureField._keyed, fields_module._distinct_rows

    def recorded_pass(self, P, compute):
        log.append(("rows", len(P)))
        return keyed(self, P, compute)

    def recorded(X, *args):
        log.append(("bytes", len(X)))
        return distinct_rows(X, *args)

    monkeypatch.setattr(StructureField, "_keyed", recorded_pass)
    monkeypatch.setattr(fields_module, "_distinct_rows", recorded)
    generator = RecordedProfile(make_field(family, 16, **kwargs).generator, log)
    return StructureField(generator=generator, resolution=16), log


@pytest.mark.parametrize("frequency", sorted(KEYED_TWISTOR_WORK))
def test_keyed_twistor_passes_profile_each_phase_once(monkeypatch, frequency):
    """Each keyed pass of one twistor block hands `profile` its distinct
    phases only, and the byte loop the 3-forms of those phases only: at e_1
    664 of the 1376 rows the passes receive, at (1, ..., 7) 3834 of 7136."""
    field, log = _recorded_field(monkeypatch, "generic-perturbed", epsilon=0.1, frequency=frequency)
    ms, xs = sphere_bundle_samples(BLOCK, 5)
    tps = twistor_points(field, ms, xs)
    involutivity_residuals(field, tps)
    vertical_curvature_obstructions(field, tps)
    omega_closure_residuals(field, tps, range(BLOCK), max_combos=5)
    want = []
    for k, (rows, n) in enumerate(KEYED_TWISTOR_WORK[frequency]):
        want += [("rows", rows), ("profile", n), ("bytes", n)] + ([("profile", 96)] if k in (2, 3) else [])
    assert log == want


def test_keyed_integrability_pass_profiles_each_phase_once(monkeypatch):
    """One integrability block at e_1 differences along e_1 only, so its one
    keyed pass receives 32 stencil rows, and hands `profile` and the byte
    loop 18 of them."""
    field, log = _recorded_field(monkeypatch, "closed-perturbed", epsilon=0.05)
    torsion_residuals(field, torus_points(BLOCK, 0))
    assert log == [("rows", 32), ("profile", 18), ("bytes", 18)]


def test_keyed_flat_twistor_points_pass_the_centres_only(monkeypatch):
    """On the flat field, whose phase reads no axis, `twistor_points` makes two
    keyed passes of the 16 centres each (the point stacks, and the Christoffel
    metrics with no stencil row), one phase each."""
    field, log = _recorded_field(monkeypatch, "flat")
    twistor_points(field, *sphere_bundle_samples(BLOCK, 5))
    assert log == [("rows", 16), ("profile", 1), ("bytes", 1)] * 2


@pytest.mark.parametrize("family, eps", REUSE_FAMILIES)
def test_signed_zero_phases_give_one_3form(monkeypatch, family, eps):
    """The phases -0.0 and +0.0, which `np.unique` merges, give byte-equal
    3-forms in every shipped family, so a keyed pass over rows at either
    phase gives each row the 3-form and stacks of its own phase.  `_phase`
    sums from +0.0 and never returns -0.0, so the test hands every other
    zero phase over as -0.0."""
    field = make_field(family, 16, epsilon=eps)
    zeros = field.generator.profile(np.array([-0.0, 0.0]))
    assert zeros[0].tobytes() == zeros[1].tobytes()
    phase = fields_module._phase

    def signed(frequency, P):
        theta = phase(frequency, P)
        odd = np.arange(theta.size).reshape(theta.shape) % 2 == 1
        return np.where(theta == 0.0, np.where(odd, -0.0, 0.0), theta)

    monkeypatch.setattr(fields_module, "_phase", signed)
    P = torus_points(6, 2)
    P[:4, 0] = 0.0
    theta = signed(field.generator.frequency, P)
    assert not theta[:4].any() and list(np.signbit(theta[:4])) == [False, True, False, True]
    for got, want in zip(field.point_stacks(P), oracles.point_stacks_without_reuse(field, P), strict=True):
        assert got.tobytes() == want.tobytes()
    for got, want in zip(field.metrics(P), oracles.metrics_without_reuse(field, P), strict=True):
        assert got.tobytes() == want.tobytes()


#: frequencies whose phase reads no axis, one axis, three axes and all seven
PREMISE_FREQUENCIES = [(0,) * 7, (1, 0, 0, 0, 0, 0, 0), (1, 0, 2, 0, 0, 3, 0), (1, 2, 3, 4, 5, 6, 7)]


@pytest.mark.parametrize("frequency", PREMISE_FREQUENCIES)
@pytest.mark.parametrize("family, eps", REUSE_FAMILIES)
def test_stencil_passes_equal_the_all_axis_stencil(monkeypatch, family, eps, frequency):
    """`_torsion_forms`, `christoffels` and `riemanns`, which difference only
    along the axes the phase reads, equal the same kernels differencing along
    all seven axes byte for byte, on rows with repeats, negative coordinates
    and -0.0 on the axes the phase does not read: along those axes both
    stencil sides have the centre's phase, so the partials of the metrics
    are +0.0, as `_axis_partials` writes them."""
    field = make_field(family, 16, epsilon=eps, frequency=frequency)
    P = _rows_with_repeats(BLOCK + 1, 17)
    P[::2] -= 1.0
    P[1::3, np.flatnonzero(np.asarray(frequency) == 0)] = -0.0
    assert (P < 0).any() and (np.signbit(P) & (P == 0)).any() == (0 in frequency)

    def metrics(Q):
        return field.metrics(Q.reshape(-1, 7))[0].reshape(Q.shape + (7,))

    def kernels():
        gamma, g, ginv = christoffels(field, P)
        dg = fields_module._axis_partials(field, metrics, P)
        return (dg, *fields_module._torsion_forms(field, P), gamma, g, ginv, riemanns(field, P, gamma, g))

    got = kernels()
    monkeypatch.setattr(fields_module, "_axis_partials", oracles.all_axis_partials)
    for a, b in zip(got, kernels(), strict=True):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("axis", [0, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("family, eps", REUSE_FAMILIES[1:])
def test_non_finite_point_raises_like_one_row(family, eps, bad, axis):
    """A point with a NaN or infinite coordinate, on the frequency axis or
    off it, among finite rows and after a finite twin that equals it off the
    bad axis (at axis 3, which e_1 does not read, the two share every
    coordinate the phase reads): every keyed pass, and the Christoffel,
    curvature and torsion stencils, raise the one-row call's error with its
    message, although the key is now its phase and the stencils skip the
    unread axes.  The flat field is left out: its profile ignores the
    phase, so no call raises."""
    field = make_field(family, 16, epsilon=eps)
    P = torus_points(5, 4)
    P[2, axis] = bad
    P = np.insert(P, 2, np.where(np.isfinite(P[2]), P[2], 0.25), axis=0)  # the twin, then the bad row

    def curvature(Q):  # the centre gamma and g enter only after the stencil pass, which raises
        return riemanns(field, Q, np.zeros((len(Q), 7, 7, 7)), np.zeros((len(Q), 7, 7)))

    for one_row, op in (
        (field.metrics, field.metrics),
        (field.point_stacks, field.point_stacks),
        (partial(christoffels, field), partial(christoffels, field)),
        (lambda Q: levi_civita(field, Q[0]), curvature),
        (partial(torsion_residuals, field), partial(torsion_residuals, field)),
    ):
        with pytest.raises((G2StructureError, RuntimeWarning)) as one:
            one_row(P[3:4])
        with pytest.raises(type(one.value)) as batch:
            op(P)
        assert type(batch.value) is type(one.value) and str(batch.value) == str(one.value)


class PickedRows(fields_module._Generator):
    """A wave of frequency e_1 whose profile picks each row's 3-form from its
    phase theta = 2 pi p_1."""

    frequency = (1, 0, 0, 0, 0, 0, 0)

    def __init__(self, pick):
        self.pick = pick

    def profile(self, theta):
        return self.pick(theta[..., None])


@pytest.mark.parametrize(
    "row, error",
    [
        (KForm.from_terms(7, {**RHO_STD_TERMS, (2, 4, 5): 1.0}).coeffs, SplitFormError),
        (KForm.from_terms(7, {(0, 1, 2): 1.0, (3, 4, 5): 1.0}).coeffs, DegenerateFormError),
        (np.full(35, np.nan), DegenerateFormError),
    ],
)
def test_repeated_bad_row_raises_like_one_row(row, error):
    """A batch holding a bad 3-form and its duplicates, after good rows,
    raises the one-row call's error with its message."""
    std = KForm.from_terms(7, RHO_STD_TERMS).coeffs
    field = StructureField(generator=PickedRows(lambda theta: np.where(theta >= np.pi, row, std)), resolution=16)
    P = torus_points(12, 3)
    P[P[:, 0] >= 0.5, 1] = 0.25  # the bad rows repeat one 3-form at distinct points
    bad = P[P[:, 0] >= 0.5][:1]
    assert 1 < (P[:, 0] >= 0.5).sum() < len(P)
    for op in (
        lambda Q: field.metrics(Q),
        lambda Q: field.point_stacks(Q),
        lambda Q: christoffels(field, Q),
        lambda Q: torsion_residuals(field, Q),
    ):
        with pytest.raises(error) as one:
            op(bad)
        with pytest.raises(error) as batch:
            op(P)
        assert str(batch.value) == str(one.value)


def test_two_kinds_of_bad_row_raise_like_one_pass():
    """A split 3-form, then more than BLOCK distinct good ones, then a NaN
    one: every rho-keyed pass raises what one pass over all rows raises (not
    finite is checked before split), not the error of a first part of the rows."""
    std = KForm.from_terms(7, RHO_STD_TERMS).coeffs
    split = KForm.from_terms(7, {**RHO_STD_TERMS, (2, 4, 5): 1.0}).coeffs

    def rho(theta):
        x = theta / (2.0 * np.pi)
        return np.where(x < 0.05, split, np.where(x > 0.95, np.nan, (1.0 + x) * std))

    field = StructureField(generator=PickedRows(rho), resolution=16)
    P = np.full((BLOCK + 6, 7), 0.5)
    P[:, 0] = [0.01, *np.linspace(0.1, 0.9, BLOCK + 4), 0.99]
    for oracle, op in (
        (oracles.metrics_without_reuse, field.metrics),
        (oracles.point_stacks_without_reuse, field.point_stacks),
        (partial(oracles.christoffels_without_reuse, h=field.h), partial(christoffels, field)),
        (partial(oracles.torsion_residuals_without_reuse, h=field.h), partial(torsion_residuals, field)),
    ):
        with pytest.raises(DegenerateFormError) as one:
            oracle(field, P)
        with pytest.raises(DegenerateFormError) as batch:
            op(P)
        assert str(batch.value) == str(one.value)
