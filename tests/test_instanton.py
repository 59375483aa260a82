import numpy as np
import pytest

from g2twistor.fields import make_field
from g2twistor.forms import KForm
from g2twistor.instanton import (
    ConnectionData,
    ConnectionDataError,
    cr_dolbeault_on_functions,
    cr_holomorphicity_residual,
    dolbeault_square_function_residual,
    dolbeault_square_section_residual,
    hodge_type_cr_residual,
    is_g2_instanton,
    make_connection,
)
from g2twistor.pointwise import standard_g2_point
from g2twistor.sampling import sphere_bundle_samples, torus_points
from g2twistor.twistor import cr_splitting, twistor_point

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


@pytest.mark.parametrize("kw", [{"index": -1}, {"index": 14}, {"vector": -3}, {"vector": 7}])
def test_make_connection_rejects_out_of_range(std, kw):
    with pytest.raises(ConnectionDataError):
        make_connection("mixed", std, **kw)


def test_differenced_curvature_matches_analytic(std):
    for fam, kw in [("const-14", {"index": 2}), ("const-7", {"vector": 3})]:
        conn = make_connection(fam, std, **kw)
        for p in PTS[:3]:
            diff = np.abs(conn.curvature(p) - conn.curvature_differenced(p, 1e-4)).max()
            assert diff < 1e-9


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
    F = conn.curvature(PTS[0])
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
    beta = KForm(7, 2, conn.curvature(np.zeros(7))[:, 0, 0].imag)
    A = -beta.as_matrix()
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
    fiber directions; see notes/decisions.md."""
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
        F[:, 0, 0] = c14.curvature(p)[:, 0, 0]
        F[:, 1, 1] = c7.curvature(p)[:, 0, 0]
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
    wbar = np.einsum("ra,ia->ri", cr_splitting(tp).b01, tp.w_basis)
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
