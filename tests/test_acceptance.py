"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Two assertions are expected to fail and are left red on purpose: the
direction-blind (1,1)-restriction property of 14-part 2-forms and its
connection-level counterpart.  Both encode a claim that is false for the
compact stabilizer algebra (a hand-checkable counterexample lives in
tests/test_pointwise.py and the analysis in docs/DECISIONS.md); every
direction-adapted or one-sided part of those criteria is verified green in
the module suites.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

from g2twistor.fields import make_field, fit_convergence_order, levi_civita
from g2twistor.forms import KForm, annihilator_dimension, contract, transform
from g2twistor.instanton import (
    cr_holomorphicity_residual,
    hodge_type_cr_residual,
    is_g2_instanton,
    make_connection,
)
from g2twistor.pointwise import (
    hodge_type_on_complement,
    induced_metric,
    octonion_multiply,
    project_lambda2,
    standard_g2_point,
)
from g2twistor.sampling import sphere_bundle_samples
from g2twistor.twistor import (
    canonical_form_horizontal_residual,
    flat_noise_floor,
    frobenius_bracket,
    involutivity_residual,
    twistor_point,
)

STD = standard_g2_point()


@pytest.fixture
def rng():
    """A fresh stream per criterion, so a criterion prints the same values
    whether it runs alone or after the others."""
    return np.random.default_rng(2026)


def report(num, name, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def unit(v):
    return v / np.linalg.norm(v)


def test_criterion_01_stabilizer_dimension(rng):
    t0 = time.monotonic()
    dims = [annihilator_dimension(STD.rho)]
    for _ in range(20):
        A = rng.standard_normal((7, 7))
        while np.linalg.cond(A) > 50:
            A = rng.standard_normal((7, 7))
        dims.append(annihilator_dimension(transform(STD.rho, A)))
    elapsed = time.monotonic() - t0
    ok = all(d == 14 for d in dims) and elapsed < 1.0
    report(1, "stabilizer-dimension", ok, f"dims={sorted(set(dims))} in {elapsed:.2f}s")


def test_criterion_02_metric_normalization(rng):
    g, orientation = induced_metric(STD.rho)
    identity_err = np.abs(g.entries - np.eye(7)).max()
    worst = 0.0
    for _ in range(50):
        Q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        if np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]
        gq, _ = induced_metric(transform(STD.rho, Q))
        worst = max(worst, np.abs(gq.entries - np.eye(7)).max())
    ok = identity_err < 1e-12 and worst < 1e-10 and orientation == 1
    report(2, "metric-normalization", ok, f"identity {identity_err:.2e}, equivariance {worst:.2e}")


def test_criterion_03_two_form_splitting(rng):
    P7, P14 = STD.lambda2_projectors
    id_err = np.abs(P7 + P14 - np.eye(21)).max()
    cross_err = np.abs(P7 @ P14).max()
    ranks = (round(np.trace(P7)), round(np.trace(P14)))
    worst = 0.0
    for _ in range(50):
        c = rng.standard_normal(14)
        U = expm(np.einsum("a,aij->ij", c, STD.stabilizer_algebra))
        a = KForm(7, 2, rng.standard_normal(21))
        lhs = KForm(7, 2, P7 @ transform(a, U).coeffs)
        rhs = transform(KForm(7, 2, P7 @ a.coeffs), U)
        worst = max(worst, (lhs - rhs).coefficient_norm)
    ok = id_err < 1e-10 and cross_err < 1e-10 and ranks == (7, 14) and worst < 1e-8
    report(
        3,
        "two-form-splitting",
        ok,
        f"sum {id_err:.2e}, product {cross_err:.2e}, ranks {ranks}, equivariance {worst:.2e}",
    )


def test_criterion_04_restriction_type_equivalence(rng):
    """Forward half: every 14-part basis form restricts as primitive (1,1)
    at 200 random directions, residual <= 1e-10.  The omega-orthogonality
    half holds; the (1,1) half is false at generic directions (see the
    module docstring) and this assertion is expected to stay red."""
    t0 = time.monotonic()
    dirs = [unit(rng.standard_normal(7)) for _ in range(200)]
    frames = None
    worst_2002 = 0.0
    worst_omega = 0.0
    for c in range(14):
        b = KForm(7, 2, STD.lambda2_basis_14[:, c])
        if frames is None:
            from g2twistor.pointwise import su3_structure

            frames = [su3_structure(STD, v) for v in dirs]
        for v, fr in zip(dirs, frames):
            p2002, _, om = hodge_type_on_complement(STD, b, v, frame=fr)
            worst_2002 = max(worst_2002, p2002)
            worst_omega = max(worst_omega, abs(om))
    converse_ok = True
    for _ in range(25):
        a = KForm(7, 2, rng.standard_normal(21))
        a7, _ = project_lambda2(STD, a)
        if a7.coefficient_norm < 0.1:
            a = a + contract(STD.rho, unit(rng.standard_normal(7)))
            a7, _ = project_lambda2(STD, a)
        found = 0.0
        for v, fr in zip(dirs, frames):
            p2002, _, om = hodge_type_on_complement(STD, a, v, frame=fr)
            found = max(found, p2002 + abs(om))
            if found >= 1e-3:
                break
        converse_ok = converse_ok and found >= 1e-3
    elapsed = time.monotonic() - t0
    ok = worst_2002 <= 1e-10 and worst_omega <= 1e-10 and converse_ok and elapsed < 10.0
    report(
        4,
        "restriction-type-equivalence",
        ok,
        f"(2,0)+(0,2) {worst_2002:.2e} [expected red: see docs/DECISIONS.md], "
        f"omega {worst_omega:.2e}, converse witnesses {converse_ok}, {elapsed:.1f}s",
    )


def test_criterion_05_hermitian_form_cross_restriction(rng):
    worst = 0.0
    for _ in range(200):
        v = unit(rng.standard_normal(7))
        v1 = rng.standard_normal(7)
        v1 = unit(v1 - v * (v @ v1))
        _, p11, om = hodge_type_on_complement(STD, contract(STD.rho, v), v1)
        worst = max(worst, float(np.hypot(p11, om)))
    ok = worst <= 1e-10
    report(5, "hermitian-form-cross-restriction", ok, f"(1,1)-part {worst:.2e}")


def test_criterion_06_quaternion_relations(rng):
    worst_q = 0.0
    worst_n = 0.0
    for _ in range(200):
        v = unit(rng.standard_normal(7))
        vp = rng.standard_normal(7)
        vp = unit(vp - v * (v @ vp))
        k = STD.cross(v, vp)
        for a in (v, vp, k):
            vec, s = octonion_multiply(STD, (a, 0.0), (a, 0.0))
            worst_q = max(worst_q, float(np.abs(vec).max()), abs(s + 1.0))
        ij, s = octonion_multiply(STD, (v, 0.0), (vp, 0.0))
        worst_q = max(worst_q, float(np.abs(ij - k).max()), abs(s))
        x, y = unit(rng.standard_normal(7)), unit(rng.standard_normal(7))
        w = STD.cross(x, y)
        lhs = STD.metric.inner(w, w)
        rhs = 1.0 * 1.0 - STD.metric.inner(x, y) ** 2
        worst_n = max(worst_n, abs(lhs - rhs))
    ok = worst_q <= 1e-10 and worst_n <= 1e-12
    report(6, "quaternion-relations", ok, f"quaternion {worst_q:.2e}, norm {worst_n:.2e}")


def test_criterion_07_canonical_form_convergence():
    """Residuals of the canonical (k+1)-form on horizontal frames must
    extrapolate to zero at order >= 1.9.  The measured residuals sit at
    rounding level for every N (the discrete cancellation is exact), which
    is the saturated case of that bound: each value is far below c h^2 and
    the sequence has already extrapolated to zero."""
    t0 = time.monotonic()
    details = []
    ok = True
    for k in (1, 3):
        residuals = []
        for n in (8, 16, 32):
            field = make_field("conformal", n, epsilon=0.05)
            residuals.append(canonical_form_horizontal_residual(field, k, n_samples=15, seed=3))
        below_ceiling = all(r <= 0.1 / n**2 for r, n in zip(residuals, (8, 16, 32)))
        saturated = max(residuals) < 1e-12
        order = float("inf") if saturated else fit_convergence_order(
            [1 / 8, 1 / 16, 1 / 32], residuals
        )
        ok = ok and below_ceiling and (saturated or order >= 1.9)
        details.append(
            f"k={k}: max {max(residuals):.1e} "
            + ("saturated-at-rounding" if saturated else f"order {order:.2f}")
        )
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    report(7, "canonical-form-convergence", ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_08_vertical_bracket_curvature():
    field = make_field("conformal", 16, epsilon=0.05)
    ms, xs = sphere_bundle_samples(50, 12)
    worst = 0.0
    for m, x in zip(ms, xs):
        tp = twistor_point(field, m, x)
        _, g, riemann = levi_civita(field, tp.m)
        X, Y = tp.b_lifts[0], tp.b_lifts[1]
        br = frobenius_bracket(field, tp, X, Y)
        vert = tp.vertical_part(br)
        want = -np.linalg.inv(g) @ np.einsum("ijkl,i,j,l->k", riemann, X[0], Y[0], tp.x)
        worst = max(worst, float(np.abs(vert - want).max()))
    ok = worst <= field.h
    report(8, "vertical-bracket-curvature", ok, f"residual {worst:.2e} <= h = {field.h}")


def test_criterion_09_flat_structure_involutive():
    t0 = time.monotonic()
    field = make_field("flat", 16)
    ms, xs = sphere_bundle_samples(500, 7)
    worst = max(
        involutivity_residual(field, twistor_point(field, m, x)) for m, x in zip(ms, xs)
    )
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 120.0
    report(9, "flat-structure-involutive", ok, f"max residual {worst:.2e} over 500 points, {elapsed:.1f}s")


def test_criterion_10_perturbed_structure_not_involutive():
    floor = flat_noise_floor(16, n_samples=24, seed=7)
    ms, xs = sphere_bundle_samples(200, 9)
    maxes = []
    p95s = []
    for eps in (0.02, 0.05, 0.1):
        field = make_field("generic-perturbed", 16, epsilon=eps)
        vals = [
            involutivity_residual(field, twistor_point(field, m, x))
            for m, x in zip(ms, xs)
        ]
        maxes.append(max(vals))
        p95s.append(float(np.percentile(vals, 95)))
    above = all(v >= 10.0 * floor for v in maxes)
    monotone = all(b > a for a, b in zip(maxes, maxes[1:])) and all(
        b > a for a, b in zip(p95s, p95s[1:])
    )
    ok = above and monotone
    report(
        10,
        "perturbed-structure-not-involutive",
        ok,
        f"maxes {[f'{v:.3f}' for v in maxes]}, p95 {[f'{v:.3f}' for v in p95s]}, floor {floor:.1e}",
    )


def test_criterion_11_instanton_cr_equivalence():
    """The 14-part constant-curvature connection is a clean instanton and
    the 7-part one obstructs; the two residual routes agree.  The first
    assertion (instanton => vanishing CR residual at 1000 generic points)
    encodes the direction-blind claim and is expected to stay red; the
    direction-adapted version is green in tests/test_instanton.py."""
    field = make_field("flat", 16)
    c14 = make_connection("const-14", STD, index=3)
    c7 = make_connection("const-7", STD, vector=0)

    ms, xs = sphere_bundle_samples(1000, 5)
    worst14 = max(
        cr_holomorphicity_residual(field, c14, twistor_point(field, m, x))
        for m, x in zip(ms, xs)
    )
    inst_ok, f7 = is_g2_instanton(field, c14, ms[:50])

    ms2, xs2 = sphere_bundle_samples(200, 6)
    best7 = max(
        cr_holomorphicity_residual(field, c7, twistor_point(field, m, x))
        for m, x in zip(ms2, xs2)
    )
    two_path = 0.0
    for m, x in zip(ms2[:50], xs2[:50]):
        tp = twistor_point(field, m, x)
        for conn in (c14, c7):
            a = cr_holomorphicity_residual(field, conn, tp)
            b = hodge_type_cr_residual(field, conn, tp)
            two_path = max(two_path, abs(a - b))
    ok = inst_ok and worst14 <= 1e-12 and best7 >= 0.1 and two_path <= 1e-10
    report(
        11,
        "instanton-cr-equivalence",
        ok,
        f"14-part curvature residual {f7:.1e} (instanton: {inst_ok}), "
        f"CR residual {worst14:.2e} [expected red: see docs/DECISIONS.md], "
        f"7-part witness {best7:.2f}, two-path {two_path:.1e}",
    )


def test_criterion_12_deterministic_reports(tmp_path):
    from g2twistor.cli import RunConfig, run_campaign

    def body(path):
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# timestamp:")
        return "\n".join(lines[1:])

    base = dict(
        campaign="twistor", generator="generic-perturbed", epsilon=0.05, samples=5, seed=13
    )
    runs = {
        "a": RunConfig(out=str(tmp_path / "a"), **base),
        "b": RunConfig(out=str(tmp_path / "b"), **base),
        "c": RunConfig(out=str(tmp_path / "c"), workers=4, **base),
    }
    for cfg in runs.values():
        assert run_campaign(cfg) == 0
    same = body(tmp_path / "a" / "samples.csv") == body(tmp_path / "b" / "samples.csv")
    same_workers = body(tmp_path / "a" / "samples.csv") == body(tmp_path / "c" / "samples.csv")
    ok = same and same_workers
    report(12, "deterministic-reports", ok, f"rerun identical {same}, worker-count invariant {same_workers}")
