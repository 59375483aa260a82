import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles

from g2twistor import instanton, twistor
from g2twistor.fields import make_field
from g2twistor.forms import KForm
from g2twistor.instanton import (
    ConnectionData,
    ConnectionDataError,
    cr_dolbeault_on_functions,
    cr_holomorphicity_residual,
    cr_holomorphicity_residuals,
    dolbeault_square_function_residual,
    dolbeault_square_section_residual,
    f7_residual,
    f7_residuals,
    hodge_type_cr_residual,
    is_g2_instanton,
    make_connection,
)
from g2twistor.pointwise import (
    NonUnitVectorError,
    standard_g2_point,
    su3_structure,
    su3_structures,
)
from g2twistor.sampling import sphere_bundle_samples, torus_points
from g2twistor.twistor import BLOCK, twistor_point, twistor_points

RNG = np.random.default_rng(31)
MS, XS = sphere_bundle_samples(12, 41)
PTS = torus_points(5, 42)


@pytest.fixture(scope="module")
def flat():
    return make_field("flat", 16)


@pytest.fixture(scope="module")
def std():
    return standard_g2_point()


# ---------------------------------------------------------------------------
# curvature-type verdicts


def test_flat_connection_is_instanton(flat, std):
    ok, res = is_g2_instanton(flat, make_connection("flat", std), PTS)
    assert ok and res == 0.0


def test_constant_14_connection_is_instanton(flat, std):
    conn = make_connection("const-14", std, index=4)
    ok, res = is_g2_instanton(flat, conn, PTS)
    assert ok and res < 1e-12


def test_constant_7_connection_is_not(flat, std):
    conn = make_connection("const-7", std, vector=0)
    ok, res = is_g2_instanton(flat, conn, PTS)
    assert not ok
    # the curvature sits entirely in the 7-part, so the residual is its norm
    assert res == pytest.approx(np.sqrt(3.0), abs=1e-10)


def test_f7_residual_of_twistor_points_matches_instanton_scan(std):
    field = make_field("generic-perturbed", 16, epsilon=0.1)
    conn = make_connection("mixed", std, index=3, vector=2, mix=0.5)
    ms, xs = sphere_bundle_samples(16, 5)
    singles = []
    for m, tp in zip(ms, twistor_points(field, ms, xs)):
        res = f7_residual(field.point_data(tp.m), conn.curvature(tp.m, field.h))
        assert res == is_g2_instanton(field, conn, [m])[1]
        singles.append(res)
    assert is_g2_instanton(field, conn, ms)[1] == max(singles)


@settings(max_examples=12, deadline=None)
@given(
    family=st.sampled_from(["flat", "closed-perturbed", "generic-perturbed", "conformal"]),
    epsilon=st.floats(0.0, 0.3),
    n=st.integers(0, 2 * BLOCK + 1),
    data=st.data(),
)
def test_batched_frames_and_residuals_match_one_row_calls(family, epsilon, n, data):
    """Row i of su3_structures, cr_holomorphicity_residuals and f7_residuals
    equals the one-row call bit for bit, whatever the block split and the
    order of the rows, and the one-row call equals the row-at-a-time oracle
    bit for bit; one non-unit or NaN row fails the whole batch as it fails
    the one-row call."""
    field = make_field(family, 16, epsilon, (1, 2, 0, 1, 0, 0, -1))
    conn = make_connection("mixed", standard_g2_point(), index=3, vector=2, mix=0.5)
    ms, xs = sphere_bundle_samples(n, data.draw(st.integers(0, 99), label="seed"))
    order = data.draw(st.permutations(range(n)), label="order")
    split = data.draw(st.integers(0, n), label="split")
    tps = twistor_points(field, ms[order], xs[order])
    V, S = tps.x, field.point_stacks(tps.m)[4]
    F = np.array([conn.curvature(m, field.h) for m in tps.m]).reshape(-1, 21, 1, 1)
    parts = (slice(0, split), slice(split, n))
    # one tuple (basis, I, b10, omega, Omega_re, Omega_im) of frame stack rows per sample
    frames = [row for b in parts for row in zip(*su3_structures(tps.g[b], tps.ginv[b], tps.rho[b], S[b], V[b]))]
    crs = [r for b in parts for r in cr_holomorphicity_residuals(tps[b], F[b])]
    f7s = [r for b in parts for r in f7_residuals(tps.rho[b], tps.g[b], tps.ginv[b], tps.vol[b], F[b])]
    names = ("basis", "I", "b10", "omega", "Omega_re", "Omega_im")
    for tp, frame, cr, f7, f in zip(tps, frames, crs, f7s, F, strict=True):
        point = field.point_data(tp.m)
        want = oracles.su3_frame_by_rows(point, tp.x)
        fr = su3_structure(point, tp.x)
        for name, row, w in zip(names, frame, want, strict=True):
            assert np.array_equal(row, w), name
            got = getattr(fr, name)
            assert np.array_equal(getattr(got, "coeffs", got), w), name
        assert cr == cr_holomorphicity_residual(field, conn, tp)
        assert cr == oracles.cr_residual_by_pairs(conn, tp, field.h)
        assert f7 == f7_residual(point, f) == oracles.f7_residual_by_point(point, f)
    if n:
        row = data.draw(st.integers(0, n - 1), label="bad row")
        bad = V.copy()
        bad[row] *= data.draw(st.sampled_from([1.01, np.nan]), label="factor")
        with pytest.raises(NonUnitVectorError):
            su3_structure(field.point_data(tps.m[row]), bad[row])
        with pytest.raises(NonUnitVectorError):
            su3_structures(tps.g, tps.ginv, tps.rho, S, bad)


@pytest.mark.parametrize("kw", [{"index": -1}, {"index": 14}, {"vector": -3}, {"vector": 7}])
def test_make_connection_rejects_out_of_range(std, kw):
    with pytest.raises(ConnectionDataError):
        make_connection("mixed", std, **kw)


def test_differenced_curvature_matches_analytic(std):
    for fam, kw in [("const-14", {"index": 2}), ("const-7", {"vector": 3})]:
        conn = make_connection(fam, std, **kw)
        for p in PTS[:3]:
            diff = np.abs(conn.curvature(p, 1e-4) - conn.curvature_differenced(p, 1e-4)).max()
            assert diff < 1e-9


def test_differenced_curvature_matches_axis_loop(std):
    """The stacked-axis difference keeps the bits of one difference per
    axis, on the mixed family and on a random rank-2 potential."""
    rng = np.random.default_rng(5)
    B = rng.standard_normal((7, 7, 2, 2)) + 1j * rng.standard_normal((7, 7, 2, 2))

    def potential(p):
        A = np.einsum("k,kiab->iab", np.sin(2 * np.pi * p), B)
        return A - np.conj(A.transpose(0, 2, 1))

    conns = [make_connection("mixed", std, index=4, vector=1, mix=0.3)]
    conns.append(ConnectionData(rank=2, potential=potential))
    for conn in conns:
        for p in PTS[:3]:
            for h in (1e-4, 1 / 16):
                want = oracles.curvature_by_axis_loop(conn, p, h)
                assert np.array_equal(conn.curvature_differenced(p, h), want)


def _rank3_potential(p):
    """A non-abelian rank-3 potential (7, 3, 3) of period 1."""
    phase = np.sin(2 * np.pi * np.asarray(p))
    A = np.zeros((7, 3, 3), dtype=complex)
    A[:, 0, 1], A[:, 1, 0] = 0.3 * phase, -0.3 * phase
    A[:, 2, 2] = 0.5j * np.cos(2 * np.pi * np.asarray(p))
    return A


def test_section_residual_brackets_once_per_point(flat, monkeypatch):
    """The sections of a rank-3 residual share the three (0,1) brackets of
    one bracket-kernel pass over the point's tangent set, instead of one pass
    per section and pair."""
    passes = []
    kernel = twistor._brackets

    def counting(field, tps, T, *args):
        passes.append(np.shape(T))
        return kernel(field, tps, T, *args)

    monkeypatch.setattr(twistor, "_brackets", counting)
    monkeypatch.setattr(instanton, "_brackets", counting, raising=False)

    conn = ConnectionData(rank=3, potential=_rank3_potential, label="rank-3")
    tp = twistor_point(flat, MS[2], XS[2])
    # the operator route meets the differenced non-abelian curvature to O(h^2)
    assert dolbeault_square_section_residual(flat, conn, tp) < 10.0 * flat.h**2
    assert passes == [(1, 3, 2, 7)]  # one pass over the three (0,1) tangents


def test_section_residual_extends_once_for_all_sections(monkeypatch):
    """The three constant sections of a rank-3 residual go through d-bar^2 as
    one (3, 3) stack, so each cr01 extension is evaluated once for all of
    them: 30 one-row extension passes at a generic-perturbed point, where one
    pass per section made 90."""
    field = make_field("generic-perturbed", 16, epsilon=0.1, frequency=(1, 2, 0, 1, 0, 0, -1))
    tp = twistor_point(field, MS[1], XS[1])
    conn = ConnectionData(rank=3, potential=_rank3_potential, label="rank-3")
    rows = []
    extension = instanton._extension_values

    def counting(field, rows_, *args):
        rows.append(len(rows_))
        return extension(field, rows_, *args)

    monkeypatch.setattr(instanton, "_extension_values", counting)
    dolbeault_square_section_residual(field, conn, tp)
    assert rows == [1] * 30


def test_nonabelian_differenced_curvature_oracle():
    """su(2)-valued potential with a hand-computed curvature:
    A = f(p1) T1 dp2 + g(p1) T2 dp3,
    F = f' T1 e12 + g' T2 e13 + f g [T1, T2] e23."""
    T1 = 0.5j * np.array([[0, 1], [1, 0]])
    T2 = 0.5j * np.array([[0, -1j], [1j, 0]])
    T3 = 0.5j * np.array([[1, 0], [0, -1]])
    assert np.abs((T1 @ T2 - T2 @ T1) - (-T3)).max() < 1e-15  # [T1,T2] = -T3

    def f(p1):
        return np.sin(2 * np.pi * p1)

    def fp(p1):
        return 2 * np.pi * np.cos(2 * np.pi * p1)

    def g(p1):
        return np.cos(2 * np.pi * p1)

    def gp(p1):
        return -2 * np.pi * np.sin(2 * np.pi * p1)

    def potential(p):
        A = np.zeros((7, 2, 2), dtype=complex)
        A[1] = f(p[0]) * T1
        A[2] = g(p[0]) * T2
        return A

    conn = ConnectionData(rank=2, potential=potential, label="su2-test")
    from g2twistor.forms import index_position

    pos = index_position(7, 2)
    for p in PTS[:3]:
        F = conn.curvature_differenced(p, 1e-5)
        want = np.zeros_like(F)
        want[pos[(0, 1)]] = fp(p[0]) * T1
        want[pos[(0, 2)]] = gp(p[0]) * T2
        want[pos[(1, 2)]] = f(p[0]) * g(p[0]) * (-T3)
        assert np.abs(F - want).max() < 1e-6


def test_anti_hermitian_curvature(std):
    conn = make_connection("mixed", std, index=1, vector=2, mix=0.3)
    F = conn.curvature(PTS[0], 1e-4)
    assert np.abs(F + np.conj(np.transpose(F, (0, 2, 1)))).max() < 1e-12


# ---------------------------------------------------------------------------
# CR residuals


def test_two_path_consistency(flat, std):
    """The aggregated (0,2) evaluation equals the pointwise type
    decomposition route, for both connection families."""
    c14 = make_connection("const-14", std, index=0)
    c7 = make_connection("const-7", std, vector=0)
    for k in range(10):
        tp = twistor_point(flat, MS[k], XS[k])
        for conn in (c14, c7):
            a = cr_holomorphicity_residual(flat, conn, tp)
            b = hodge_type_cr_residual(flat, conn, tp)
            assert abs(a - b) < 1e-10


def test_seven_part_connection_obstructs(flat, std):
    conn = make_connection("const-7", std, vector=0)
    vals = [
        cr_holomorphicity_residual(flat, conn, twistor_point(flat, MS[k], XS[k]))
        for k in range(10)
    ]
    assert max(vals) >= 0.1


def test_fourteen_part_vanishes_at_kernel_directions(flat, std):
    """The direction-adapted truth: at fiber vectors annihilated by the
    curvature's endomorphism the (0,2) residual vanishes."""
    conn = make_connection("const-14", std, index=3)
    beta = KForm(7, 2, conn.curvature(np.zeros(7), 1e-4)[:, 0, 0].imag)
    A = -beta.dense()
    w, V = np.linalg.eigh(A @ A.T)
    kernel_dirs = [V[:, i] for i in range(7) if w[i] < 1e-12]
    assert kernel_dirs
    for v in kernel_dirs:
        assert np.abs(A @ v).max() < 1e-7
        tp = twistor_point(flat, MS[0], v)
        assert cr_holomorphicity_residual(flat, conn, tp) < 1e-7


def test_fourteen_part_obstructs_generically(flat, std):
    """Pinned counterexample at connection level: a constant 14-part
    curvature (an honest instanton) has a nonzero (0,2) part at generic
    fiber directions; see docs/DECISIONS.md."""
    conn = make_connection("const-14", std, index=3)
    vals = [
        cr_holomorphicity_residual(flat, conn, twistor_point(flat, MS[k], XS[k]))
        for k in range(10)
    ]
    assert max(vals) > 0.05


def test_gauge_invariance_constant_unitary(flat, std):
    """Conjugating a rank-2 connection by a constant unitary leaves the
    residual unchanged."""
    c14 = make_connection("const-14", std, index=0)
    c7 = make_connection("const-7", std, vector=1)

    def block(p):
        A = np.zeros((7, 2, 2), dtype=complex)
        A[:, 0, 0] = c14.potential(p)[:, 0, 0]
        A[:, 1, 1] = c7.potential(p)[:, 0, 0]
        return A

    def block_curv(p):
        F = np.zeros((21, 2, 2), dtype=complex)
        F[:, 0, 0] = c14.curvature(p, 1e-4)[:, 0, 0]
        F[:, 1, 1] = c7.curvature(p, 1e-4)[:, 0, 0]
        return F

    conn = ConnectionData(rank=2, potential=block, curvature_analytic=block_curv)
    H = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
    U, _ = np.linalg.qr(H)
    conj = ConnectionData(
        rank=2,
        potential=lambda p: np.einsum("ab,ibc,cd->iad", U, block(p), np.conj(U.T)),
        curvature_analytic=lambda p: np.einsum(
            "ab,Ibc,cd->Iad", U, block_curv(p), np.conj(U.T)
        ),
    )
    for k in range(6):
        tp = twistor_point(flat, MS[k], XS[k])
        a = cr_holomorphicity_residual(flat, conn, tp)
        b = cr_holomorphicity_residual(flat, conj, tp)
        assert abs(a - b) < 1e-10


def test_mixing_sweep_monotone(flat, std):
    """Blending a 7-part into a 14-part curvature over a 20-element family:
    the max residual over a fixed sample is ordered exactly like the mixing
    weight (and grows by the pure 7-part at large weight)."""
    weights = np.linspace(0.0, 1.0, 20)
    maxes = []
    for s in weights:
        conn = make_connection("mixed", std, index=3, vector=0, mix=float(s))
        worst = max(
            cr_holomorphicity_residual(flat, conn, twistor_point(flat, MS[k], XS[k]))
            for k in range(8)
        )
        maxes.append(worst)
    assert all(b >= a - 1e-12 for a, b in zip(maxes, maxes[1:]))
    assert [round(v, 12) for v in sorted(maxes)] == [round(v, 12) for v in maxes]
    assert maxes[-1] > maxes[0]


# ---------------------------------------------------------------------------
# CR Dolbeault operators


def test_dbar_constant_vanishes(flat):
    tp = twistor_point(flat, MS[0], XS[0])
    assert np.abs(cr_dolbeault_on_functions(flat, tp, lambda m, x: 4.2)).max() == 0.0


def test_dbar_coordinate_pullback(flat):
    """For the pullback of a base coordinate the derivative picks the
    conjugate-linear component of the differential."""
    tp = twistor_point(flat, MS[1], XS[1])
    wbar = tp.wbar
    for j in range(7):
        vals = cr_dolbeault_on_functions(flat, tp, lambda m, x, j=j: m[j])
        assert np.abs(vals - wbar[:, j]).max() < 1e-10


def test_dbar_leibniz(flat):
    tp = twistor_point(flat, MS[2], XS[2])

    def f1(m, x):
        return np.sin(2 * np.pi * m[1]) + x[0] ** 2

    def f2(m, x):
        return np.cos(2 * np.pi * m[3]) * x[1]

    lhs = cr_dolbeault_on_functions(flat, tp, lambda m, x: f1(m, x) * f2(m, x))
    rhs = f1(tp.m, tp.x) * cr_dolbeault_on_functions(flat, tp, f2) + f2(
        tp.m, tp.x
    ) * cr_dolbeault_on_functions(flat, tp, f1)
    assert np.abs(lhs - rhs).max() < 40.0 * flat.h**2


def test_dbar_squares_to_zero_on_functions(flat):
    tp = twistor_point(flat, MS[3], XS[3])

    def f(m, x):
        return np.sin(2 * np.pi * m[0]) * x[2] + np.cos(2 * np.pi * m[4])

    assert dolbeault_square_function_residual(flat, tp, f) < 10.0 * flat.h


def test_dbar_squared_sections_equal_curvature(flat, std):
    """Operator route against curvature route on abelian examples:
    (d-bar^2 xi)(b_i, b_j) = -F(b_i, b_j) xi."""
    for fam, kw in [("const-14", {"index": 2}), ("const-7", {"vector": 0})]:
        conn = make_connection(fam, std, **kw)
        for k in range(3):
            tp = twistor_point(flat, MS[k], XS[k])
            assert dolbeault_square_section_residual(flat, conn, tp) < 1e-8
