import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from g2twistor.fields import (
    StructureField,
    christoffels,
    fit_convergence_order,
    levi_civita,
    make_field,
    riemanns,
)
from g2twistor import fields, forms, pointwise, twistor
from g2twistor.forms import KForm, contract
from g2twistor.pointwise import structure_stacks, su3_structure
from g2twistor.sampling import sphere_bundle_samples
from g2twistor.twistor import (
    BLOCK,
    FLAT_FLOOR,
    TwistorError,
    canonical_form_horizontal_residual,
    cartan_identity_residual,
    flat_noise_floor,
    form_bundle_lift,
    frobenius_bracket,
    involutivity_residual,
    involutivity_residuals,
    omega_closure_residual,
    omega_closure_residuals,
    theta_value,
    twistor_point,
    twistor_points,
    vertical_curvature_obstruction,
    vertical_curvature_obstructions,
    xi_factorization_residual,
    xi_value,
)

import oracles

RNG = np.random.default_rng(23)
NS = (8, 16, 32)
HS = [1.0 / n for n in NS]
MS, XS = sphere_bundle_samples(10, 17)
RECORD_FIELDS = [f.name for f in dataclasses.fields(twistor.TwistorPoints)]


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
    g = tp.g
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
    """A fiber vector with |x|_g below 1e-12 is rejected, as one point and as
    one row of a batch; just above the cutoff it is normalized (g = I here)."""
    x = XS[1] / np.linalg.norm(XS[1])
    for small in (0.0, 0.8e-12):
        with pytest.raises(TwistorError, match="nonzero"):
            twistor_point(flat, MS[0], small * x)
        with pytest.raises(TwistorError, match="nonzero"):
            twistor_points(flat, MS[:3], np.stack([XS[0], small * x, XS[2]]))
    tps = twistor_points(flat, MS[:3], np.stack([XS[0], 1.2e-12 * x, XS[2]]))
    np.testing.assert_allclose(tps.x[1], x, rtol=0.0, atol=1e-12)


class CountingGenerator(fields._Generator):
    """A field's generator that counts the calls of its profile."""

    def __init__(self, inner):
        self.inner, self.frequency, self.calls = inner, inner.frequency, 0

    def profile(self, theta):
        self.calls += 1
        return self.inner.profile(theta)


def counting_field(family, resolution, **kwargs):
    """A field whose every stacked rho evaluation is counted, with its counter."""
    gen = CountingGenerator(make_field(family, resolution, **kwargs).generator)
    return StructureField(generator=gen, resolution=resolution), gen


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_fiber_vector_rejected(bad):
    field, gen = counting_field("flat", 16)
    x = XS[1].copy()
    x[2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no matmul overflow warning on the way
        with pytest.raises(TwistorError, match="finite"):
            twistor_point(field, MS[1], x)
        with pytest.raises(TwistorError, match="finite"):
            twistor_points(field, MS[:3], np.stack([XS[0], x, XS[2]]))
    assert gen.calls == 0  # rejected before any point was computed


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
    I6, b10 = tp.I, tp.b10
    assert np.abs(I6 @ I6 + np.eye(6)).max() < 1e-10
    for r in b10:
        assert np.abs(I6 @ r - 1j * r).max() < 1e-10
    for r in np.conj(b10):
        assert np.abs(I6 @ r + 1j * r).max() < 1e-10
    gram = np.conj(b10) @ b10.T
    assert np.abs(gram - np.eye(3)).max() < 1e-10


def test_splitting_standard_direction_span(flat):
    tp = twistor_point(flat, MS[0], np.eye(7)[0])
    amb = np.einsum("ra,ia->ri", tp.b10, tp.W)
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
            _, g, riemann = levi_civita(field, tp.m)
            for i, j in [(0, 1), (2, 4)]:
                X, Y = tp.b_lifts[i], tp.b_lifts[j]
                br = frobenius_bracket(field, tp, X, Y)
                vert = tp.vertical_part(br)
                want = -np.linalg.inv(g) @ np.einsum("ijkl,i,j,l->k", riemann, X[0], Y[0], tp.x)
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
        assert abs(tp.x @ tp.g @ br[0]) < 1e-12


@pytest.mark.parametrize("carrier", twistor.CARRIERS)
@pytest.mark.parametrize("projection", twistor.PROJECTIONS)
def test_tangent_set_brackets_equal_pair_brackets(generic, carrier, projection):
    """Entry (a, b) of the brackets of each point's three (0,1) tangents
    equals `frobenius_bracket` of that pair at that point bit for bit: a
    bracket depends neither on the rest of its tangent set nor on the other
    points of the record."""
    tps = twistor_points(generic, MS[:3], XS[:3])
    tangents = tps.tangents_01
    brackets = twistor._brackets(generic, tps, tangents, carrier, projection)
    pairs = list(itertools.combinations(range(3), 2))
    assert brackets.shape == (3, len(pairs), 2, 7)
    for n in range(3):
        for (a, b), br in zip(pairs, brackets[n]):
            pair = frobenius_bracket(generic, tps[n], tangents[n, a], tangents[n, b], carrier, projection)
            assert np.array_equal(br, pair)


def test_bracket_passes_hand_christoffels_distinct_rows(generic, monkeypatch):
    """Each tangent of a set is differenced once, so no `christoffels` call of
    the involutivity residuals (both `which`, both carriers) or of the Cartan
    identity receives a row twice (rows compared by their bytes)."""
    tps = twistor_points(generic, MS[:4], XS[:4])
    seen = []

    def spy(field, P):
        seen.append(np.array(P))
        return christoffels(field, P)

    monkeypatch.setattr(twistor, "christoffels", spy)
    for which in twistor.WHICH:
        for carrier in twistor.CARRIERS:
            involutivity_residuals(generic, tps, which, carrier)
    cartan_identity_residual(generic, tps[0])
    assert len(seen) == 2 * 2 * 2 + 2  # real and imaginary parts of each complex direction
    for P in seen:
        assert len({p.tobytes() for p in P}) == len(P)


# ---------------------------------------------------------------------------
# involutivity


def test_flat_involutivity_zero(flat):
    for k in range(6):
        tp = twistor_point(flat, MS[k], XS[k])
        assert involutivity_residual(flat, tp) <= 1e-10


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_flat_residuals_are_exact_zeros(n):
    """On the flat structure every difference of constants is exactly 0.0:
    the Christoffel symbols, both involutivity residuals under both carriers
    and the vertical obstruction, so the noise floor is its clamp."""
    field = make_field("flat", n)
    for seed in (0, 7, 14):
        ms, xs = sphere_bundle_samples(16, seed)
        assert not christoffels(field, ms)[0].any()
        tps = twistor_points(field, ms, xs)
        for which in ("01", "10"):
            for carrier in ("transport", "parallel"):
                assert involutivity_residuals(field, tps, which=which, carrier=carrier) == [0.0] * 16
        assert vertical_curvature_obstructions(field, tps) == [0.0] * 16
        assert flat_noise_floor(n, 24, seed) == 1e-14


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_flat_noise_floor_is_the_clamp_off_the_block_boundary(n):
    """The constant the twistor campaign reports is what the flat scan
    measures, also for sample counts that leave a partial block."""
    for n_samples, seed in ((1, 0), (5, 3), (BLOCK + 1, 9)):
        assert flat_noise_floor(n, n_samples, seed) == FLAT_FLOOR


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


def test_vertical_obstructions_reuse_the_record_centres(generic, monkeypatch):
    """The curvature of the vertical obstruction differences the record's own
    centre gamma and g: `christoffels` never sees the centre rows, and row i
    of the curvature equals the one-point `levi_civita` curvature bit for bit."""
    tps = twistor_points(generic, MS[:4], XS[:4])
    seen = []

    def spy(field, P):
        seen.append(np.array(P))
        return christoffels(field, P)

    monkeypatch.setattr(fields, "christoffels", spy)
    vertical_curvature_obstructions(generic, tps)
    assert seen and not any(P.shape == tps.m.shape and np.array_equal(P, tps.m) for P in seen)
    monkeypatch.undo()
    riemann = riemanns(generic, tps.m, tps.gamma, tps.g)
    for i, m in enumerate(tps.m):
        assert np.array_equal(riemann[i], levi_civita(generic, m)[2])


def test_one_twistor_block_makes_six_metric_passes(monkeypatch):
    """A 12-sample block of the twistor scan makes six induced-metric passes
    and six row keyings: the point stacks, one per `christoffels` call (the
    centres, the two extension passes of the brackets, the curvature stencil)
    and the Hodge duals of the Omega pass.  The metrics `christoffels`
    returns are the `metrics` of its rows bit for bit."""
    field = make_field("generic-perturbed", 16, epsilon=0.1)
    ms, xs = sphere_bundle_samples(12, 5)
    counts = {"induced_metrics": 0, "_distinct_rows": 0}
    for module, name in (
        (fields, "induced_metrics"),
        (pointwise, "induced_metrics"),
        (fields, "_distinct_rows"),
    ):

        def counted(*args, f=getattr(module, name), name=name):
            counts[name] += 1
            return f(*args)

        monkeypatch.setattr(module, name, counted)
    tps = twistor_points(field, ms, xs)
    involutivity_residuals(field, tps)
    vertical_curvature_obstructions(field, tps)
    omega_closure_residuals(field, tps, range(5, 17), max_combos=5)
    assert counts == {"induced_metrics": 6, "_distinct_rows": 6}
    monkeypatch.undo()
    for frequency in ((1, 0, 0, 0, 0, 0, 0), (1, 2, 3, 4, 5, 6, 7)):
        field = make_field("generic-perturbed", 16, epsilon=0.1, frequency=frequency)
        for n in (0, 1, BLOCK + 1):
            P = np.random.default_rng(n).random((n, 7))
            assert np.array_equal(christoffels(field, P)[1], field.metrics(P)[0])


def test_vertical_obstruction_matches_bracket_route(conformal):
    """Two computation paths: the curvature evaluated on the (0,1) basis
    against the vertical part of the numerical brackets."""
    diffs = []
    for n in NS:
        field = make_field("conformal", n, epsilon=0.05)
        tp = twistor_point(field, MS[2], XS[2])
        oracle = vertical_curvature_obstruction(field, tp)
        t01 = tp.tangents_01
        worst = 0.0
        for i, j in itertools.combinations(range(3), 2):
            br = frobenius_bracket(field, tp, t01[i], t01[j], projection="cr01")
            worst = max(worst, field.point_data(tp.m).metric.norm(tp.vertical_part(br)))
        diffs.append(abs(oracle - worst))
    assert fit_convergence_order(HS, diffs) > 1.0
    assert diffs[-1] < 0.01


def test_vertical_obstruction_synthetic_seven_block(flat):
    """Curvature forced into the 7 x so(7) block obstructs at every
    sampled point."""
    std = flat.point_data(np.zeros(7))
    omega1 = contract(std.rho, np.eye(7)[0]).dense()
    S = RNG.standard_normal((7, 7))
    S = (S - S.T) / 2
    R = np.einsum("ij,kl->ijkl", omega1, S)
    R = (R - np.einsum("ijlk->ijkl", R)) / 2
    for k in range(5):
        tp = twistor_point(flat, MS[k], XS[k])
        assert vertical_curvature_obstruction(flat, tp, curvature=R) > 1e-2


# ---------------------------------------------------------------------------
# the stacked products of the twistor scan

PRODUCT_FAMILIES = [("generic-perturbed", 0.1), ("closed-perturbed", 0.05), ("conformal", 0.05)]
FREQUENCIES = {"e1": (1, 0, 0, 0, 0, 0, 0), "f1234567": (1, 2, 3, 4, 5, 6, 7)}


@pytest.mark.parametrize("n", [1, BLOCK + 1])
@pytest.mark.parametrize("frequency", FREQUENCIES.values(), ids=FREQUENCIES.keys())
@pytest.mark.parametrize("family, eps", PRODUCT_FAMILIES)
def test_lift_vertical_parts_are_exact_zeros(family, eps, frequency, n):
    """The fiber row of each of the seven lifts of a point is `_hor_fibers` of
    its base row at the point's x, over the repeated rows of the record, bit
    for bit: the vertical part of every horizontal lift is an exact zero."""
    field = make_field(family, 16, epsilon=eps, frequency=frequency)
    ms, xs = sphere_bundle_samples(n, 9)
    tps = twistor_points(field, ms, xs)
    rep = np.repeat(np.arange(n), 7)
    lifts = tps.lifts.reshape(-1, 2, 7)
    vert = lifts[:, 1] - twistor._hor_fibers(tps.gamma[rep], tps.x[rep], lifts[:, 0])
    assert np.all(vert == 0.0)


def _norm(A, axis):
    """Euclidean norms of A over the axes `axis`, complex entries by their moduli."""
    return np.sqrt(np.sum(np.abs(A) ** 2, axis=axis))


@pytest.mark.parametrize("n", [0, 1, BLOCK + 1])
@pytest.mark.parametrize("family, eps", PRODUCT_FAMILIES)
def test_stacked_products_match_their_einsums(family, eps, n, monkeypatch):
    """Each stacked product of a twistor block agrees with the einsum it
    replaced (tests/oracles.py) within 1e-14 of a row scale, the product of
    the norms that bound its terms:
    - every `_hor_fibers` call, the lifts and the parallel carrier included:
      |Gamma| |b| |y|;
    - the horizontal lifts of the record: |Gamma| |v| |x|;
    - every `christoffels` call: |g^-1| |terms| / 2;
    - every extension pass of the brackets of both CR types and both
      carriers: (|b| (1 + |Gamma_m| |P - m|) + |vert|) (1 + |g| |g^-1|)
      (1 + |rho| |g^-1| |xhat|) (1 + |Gamma_P| |Y|) per row and vector;
    - the vertical curvature obstructions, from the Levi-Civita curvature
      and from a `curvature=` override: |R| |x| |wbar_i| |wbar_j| |g^-1| |g|^1/2."""
    seen = {"_hor_fibers": [], "_extension_values": [], "christoffels": []}
    originals = {name: getattr(twistor, name) for name in seen}
    for name in seen:

        def recording(*args, name=name):
            seen[name].append(args)
            return originals[name](*args)

        monkeypatch.setattr(twistor, name, recording)
        if name == "christoffels":
            monkeypatch.setattr(fields, name, recording)
    field = make_field(family, 16, epsilon=eps, frequency=(1, 2, 0, 1, 0, 0, -1))
    ms, xs = sphere_bundle_samples(n, 13)
    tps = twistor_points(field, ms, xs)
    for which, carrier in itertools.product(twistor.WHICH, twistor.CARRIERS):
        involutivity_residuals(field, tps, which, carrier)
    riemann = riemanns(field, tps.m, tps.gamma, tps.g)
    synthetic = np.random.default_rng(n).standard_normal((7, 7, 7, 7))
    synthetic = synthetic - synthetic.transpose(1, 0, 2, 3)
    synthetic = synthetic - synthetic.transpose(0, 1, 3, 2)
    vertical = [(None, riemann), (synthetic, np.broadcast_to(synthetic, riemann.shape))]
    monkeypatch.undo()
    assert n == 0 or all(seen.values())
    assert {args[-1] for args in seen["_extension_values"]} == ({"cr01", "cr10"} if n else set())
    assert {args[-2] for args in seen["_extension_values"]} == (set(twistor.CARRIERS) if n else set())

    for gamma, y, b in seen["_hor_fibers"]:
        got, want = twistor._hor_fibers(gamma, y, b), oracles.hor_fibers_einsum(gamma, y, b)
        scale = _norm(gamma, (1, 2, 3)) * _norm(y, 1) * _norm(b, 1)
        assert np.all(np.abs(got - want).max(axis=1, initial=0.0) <= 1e-14 * scale)

    V = tps.lifts[:, :, 0]
    want = oracles.lifts_einsum(tps.gamma, V, tps.x)
    scale = (_norm(tps.gamma, (1, 2, 3)) * _norm(tps.x, 1))[:, None] * _norm(V, 2)
    assert np.all(np.abs(tps.lifts[:, :, 1] - want).max(axis=2, initial=0.0) <= 1e-14 * scale)

    for _, P in seen["christoffels"]:
        ginv, terms = oracles.christoffel_terms_without_reuse(field, P, field.h)
        got, want = christoffels(field, P)[0], oracles.christoffels_einsum(ginv, terms)
        scale = 0.5 * _norm(ginv, (1, 2)) * _norm(terms, (1, 2, 3))
        assert np.all(np.abs(got - want).max(axis=(1, 2, 3), initial=0.0) <= 1e-14 * scale)

    for args in seen["_extension_values"]:
        _, rows, record, base0, vert0, P, Y, _, _ = args
        got, want = twistor._extension_values(*args), oracles.extension_values_einsum(*args)
        gamma, g, ginv = christoffels(field, P)
        xhat = Y / np.sqrt((Y[:, None] @ g @ Y[:, :, None])[:, 0, 0])[:, None]
        rho = np.sqrt(6.0) * _norm(field.rho_coeffs(P), 1)  # the norm of the dense 3-form
        carried = 1.0 + _norm(record.gamma[rows], (1, 2, 3)) * _norm(P - record.m[rows], 1)
        row = (
            (1.0 + _norm(g, (1, 2)) * _norm(ginv, (1, 2)))
            * (1.0 + rho * _norm(ginv, (1, 2)) * _norm(xhat, 1))
            * (1.0 + _norm(gamma, (1, 2, 3)) * _norm(Y, 1))
        )
        scale = (_norm(base0, 2) * carried[:, None] + _norm(vert0, 2)) * row[:, None]
        assert np.all(np.abs(got - want).max(axis=(2, 3)) <= 1e-14 * scale)

    for curvature, R in vertical:
        got = vertical_curvature_obstructions(field, tps, curvature)
        want = oracles.vertical_curvature_obstructions_einsum(tps, R)
        wbar = _norm(tps.wbar, 2)
        pairs = np.max(wbar[:, [0, 0, 1]] * wbar[:, [1, 2, 2]], axis=1, initial=0.0)
        scale = _norm(R, (1, 2, 3, 4)) * _norm(tps.x, 1) * pairs * _norm(tps.ginv, (1, 2))
        scale = scale * np.sqrt(_norm(tps.g, (1, 2)))
        assert len(got) == n and np.all(np.abs(np.array(got) - want) <= 1e-14 * scale)


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
    tps = twistor_points(flat, MS[:3], XS[:3])
    assert omega_closure_residual(flat, tps, max_combos=10) <= 1e-12


def test_omega_matches_frame_volume(flat, generic):
    from g2twistor.twistor import _omega_values

    for field in (flat, generic):
        tp = twistor_point(field, MS[1], XS[1])
        fr = su3_structure(field.point_data(tp.m), tp.x)
        for (a, b, c) in [(0, 1, 2), (1, 3, 5), (0, 2, 4)]:
            B = tp.b_lifts[[a, b, c], 0]
            val = _omega_values(field, tp.m[None], tp.x[None], B[None])[0]
            basis = np.eye(6)
            want = fr.Omega_re.evaluate([basis[a], basis[b], basis[c]]) + 1j * fr.Omega_im.evaluate(
                [basis[a], basis[b], basis[c]]
            )
            assert abs(val - want) < 1e-10


def test_omega_closure_detects_coclosed_failure():
    """A closed perturbation keeps d(rho) = 0 but not d(*rho); the closure
    residual sees it through the imaginary part."""
    field = make_field("closed-perturbed", 16, epsilon=0.05)
    tps = twistor_points(field, MS[:3], XS[:3])
    assert omega_closure_residual(field, tps, max_combos=10) > 0.01


def test_xi_factorization_two_paths(conformal):
    """d((pullback *rho) . theta) computed directly agrees with the exact
    canonical form pulled through the embedding into the 3-form bundle."""
    errs = []
    for n in NS:
        field = make_field("conformal", n, epsilon=0.05)
        tps = twistor_points(field, MS[:1], XS[:1])
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


def recording_kernels(monkeypatch, *names):
    """Replace twistor kernels by wrappers that record the arguments after
    the field (the points or record first) of each call, per kernel name."""
    seen = {name: [] for name in names}
    for name in names:
        kernel = getattr(twistor, name)

        def recording(field, *args, kernel=kernel, name=name):
            seen[name].append(args)
            return kernel(field, *args)

        monkeypatch.setattr(twistor, name, recording)
    return seen


def test_cartan_identity_one_bracket_and_one_d_omega_pass(generic, monkeypatch):
    """The three brackets come from one bracket-kernel pass over the point's
    tangent set of three, the nine d Omega values (three pairs times three
    (X, Y)) from one `_d_omegas` pass."""
    tp = twistor_point(generic, MS[3], XS[3])
    seen = recording_kernels(monkeypatch, "_brackets", "_d_omegas")
    cartan_identity_residual(generic, tp)
    assert [np.shape(args[1]) for args in seen["_brackets"]] == [(1, 3, 2, 7)]
    assert [len(args[0]) for args in seen["_d_omegas"]] == [9]


def test_xi_factorization_pushes_each_frame_vector_once(generic, monkeypatch):
    """Per point, each of the seven frame vectors is pushed forward once, and
    the d Omega of all its 4-frames come from one `_d_omegas` pass."""
    tps = twistor_points(generic, MS[:2], XS[:2])
    seen = recording_kernels(monkeypatch, "_pushforward_to_form_bundle", "_d_omegas")
    xi_factorization_residual(generic, tps, max_combos=6)
    pushed = np.array([args[0].m for args in seen["_pushforward_to_form_bundle"]])
    assert np.array_equal(pushed, np.repeat(tps.m, 7, axis=0))
    assert [len(args[0]) for args in seen["_d_omegas"]] == [6, 6]


def test_omega_pass_builds_no_dense_form_stack(generic, monkeypatch):
    """The Omega pass of a block of samples holds coefficient rows only: no
    dense rho (7^3) or *rho (7^4) stack, however many stencil rows it has."""
    degrees = []
    for module in (twistor, forms, pointwise):
        dense = module.dense_stack

        def recording(coeffs, dim, degree, dense=dense):
            degrees.append(degree)
            return dense(coeffs, dim, degree)

        monkeypatch.setattr(module, "dense_stack", recording)
    ms, xs = sphere_bundle_samples(BLOCK, 5)
    tps = twistor_points(generic, ms, xs)
    degrees.clear()
    omega_closure_residuals(generic, tps, range(BLOCK), max_combos=5)
    assert 3 not in degrees and 4 not in degrees


def test_omega_values_match_the_dense_route(generic, conformal, monkeypatch):
    """Every row of the Omega passes, on real frames of three fields and on
    the complex frames of the Cartan identity, agrees with the dense-array
    contraction to rounding: relative to the row's scale
    (|rho| + |*rho| |Y|) |b1| |b2| |b3|, since the complex frames give values
    that cancel to rounding level."""
    seen = []
    omega_values = twistor._omega_values

    def recording(field, P, Y, B):
        seen.append((field, P, Y, B))
        return omega_values(field, P, Y, B)

    monkeypatch.setattr(twistor, "_omega_values", recording)
    closed = make_field("closed-perturbed", 16, epsilon=0.05)
    for field in (generic, closed, conformal):
        tps = twistor_points(field, MS[:2], XS[:2])
        omega_closure_residuals(field, tps, range(2), max_combos=3)
    cartan_identity_residual(generic, twistor_point(generic, MS[3], XS[3]))
    assert any(np.iscomplexobj(B) for *_, B in seen)
    for field, P, Y, B in seen:
        got, want = omega_values(field, P, Y, B), oracles.omega_values_dense(field, P, Y, B)
        R = field.rho_coeffs(P)
        norm = np.linalg.norm
        scale = (norm(R, axis=1) + norm(structure_stacks(R)[3], axis=1) * norm(Y, axis=1)) * np.prod(
            norm(B, axis=2), axis=1
        )
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_omega_closure_residual_is_the_max_of_the_per_point_residuals(generic):
    """Point i of a sample draws its frames from default_rng(seed + i)."""
    tps = twistor_points(generic, MS[:3], XS[:3])
    per_point = omega_closure_residuals(generic, tps, range(4, 7), max_combos=3)
    assert omega_closure_residual(generic, tps, max_combos=3, seed=4) == max(per_point)
    assert omega_closure_residual(generic, tps[:0], max_combos=3) == 0.0


def test_noise_floor_reported(flat):
    floor = flat_noise_floor(16, n_samples=8, seed=0)
    assert 0 < floor <= 1e-10


# ---------------------------------------------------------------------------
# batches and options


@pytest.mark.parametrize(
    "family, eps",
    [("flat", 0.0), ("generic-perturbed", 0.1), ("conformal", 0.05), ("closed-perturbed", 0.05)],
)
def test_batch_rows_equal_one_point_calls(family, eps):
    """Row i of every batched function equals the N = 1 call on a fresh field
    bit for bit; the batch crosses the block, and the sample arrays keep the
    sampler's memory layout."""
    n = BLOCK + 2
    ms, xs = sphere_bundle_samples(n, 31)

    def make():
        return make_field(family, 16, epsilon=eps, frequency=(1, 2, 0, 1, 0, 0, -1))

    field = make()
    tps = twistor_points(field, ms, xs)
    options = list(itertools.product(("01", "10"), ("transport", "parallel")))
    invol = {
        (w, c): involutivity_residuals(field, tps, which=w, carrier=c) for w, c in options
    }
    vert = vertical_curvature_obstructions(field, tps)
    omega = omega_closure_residuals(field, tps, range(7, 7 + n), max_combos=3)
    for i in range(n):
        fresh = make()
        tp = twistor_point(fresh, ms[i], xs[i])
        for name in ("m", "x", "gamma", "theta", "b_lifts", "vert_basis", "W"):
            assert np.array_equal(getattr(tp, name), getattr(tps[i], name)), name
        for w, c in options:
            assert involutivity_residual(fresh, tp, which=w, carrier=c) == invol[w, c][i]
        assert vertical_curvature_obstruction(fresh, tp) == vert[i]
        assert omega_closure_residual(fresh, tp.rows, max_combos=3, seed=7 + i) == omega[i]


def test_fiber_vectors_normalized_as_metric_norm():
    """Each x is divided by |x|_g exactly as `MetricTensor.norm` rounds it
    for the C-ordered rows of the sampler."""
    ms, xs = sphere_bundle_samples(100, 12)
    assert ms.flags.c_contiguous and xs.flags.c_contiguous
    field = make_field("closed-perturbed", 32, epsilon=0.05, frequency=(1, 2, 0, 1, 0, 0, -1))
    for m, x, tp in zip(ms, xs, twistor_points(field, ms, xs)):
        assert np.array_equal(tp.x, x / field.point_data(m).metric.norm(x))


def test_twistor_records_do_not_depend_on_the_input_layout():
    """Fortran-ordered M and X give the record of their C copies bit for bit,
    and a strided x gives the one-point record of its contiguous copy (the
    BLAS products round a non-unit stride differently, so the layout is
    fixed on entry)."""
    ms, xs = sphere_bundle_samples(100, 12)
    field = make_field("closed-perturbed", 32, epsilon=0.05, frequency=(1, 2, 0, 1, 0, 0, -1))
    M, X = np.asfortranarray(ms), np.asfortranarray(xs)
    pairs = [(twistor_points(field, M, X), twistor_points(field, ms, xs))]
    for m, x in zip(M, X):
        assert not x.flags.c_contiguous
        pairs.append((twistor_point(field, m, x), twistor_point(field, m, x.copy())))
    for got, want in pairs:
        for name in RECORD_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_noise_floor_is_max_of_one_point_residuals():
    n = BLOCK + 3
    ms, xs = sphere_bundle_samples(n, 4)
    field = make_field("flat", 16)
    residuals = [involutivity_residual(field, twistor_point(field, m, x)) for m, x in zip(ms, xs)]
    assert flat_noise_floor(16, n_samples=n, seed=4) == max([1e-14] + residuals)


@pytest.mark.parametrize(
    "call",
    [
        lambda f, tp: involutivity_residual(f, tp, which="1O"),
        lambda f, tp: involutivity_residual(f, tp, carrier="paralel"),
        lambda f, tp: frobenius_bracket(f, tp, tp.b_lifts[0], tp.b_lifts[1], carrier="paralel"),
        lambda f, tp: frobenius_bracket(f, tp, tp.b_lifts[0], tp.b_lifts[1], projection="cr0l"),
        lambda f, tp: omega_closure_residual(f, tp.rows, max_combos=0),
        lambda f, tp: omega_closure_residual(f, tp.rows, max_combos=-2),
        lambda f, tp: omega_closure_residuals(f, tp.rows, [0], max_combos=0),
    ],
    ids=["which", "carrier", "bracket-carrier", "projection", "combos-0", "combos-neg", "batch"],
)
def test_bad_options_rejected_before_any_work(call):
    field, gen = counting_field("generic-perturbed", 16, epsilon=0.1)
    tp = twistor_point(field, MS[3], XS[3])
    gen.calls = 0
    with pytest.raises(TwistorError):
        call(field, tp)
    assert gen.calls == 0
