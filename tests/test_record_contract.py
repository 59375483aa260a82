"""One contract for the kernels over a `TwistorPoints` record, and for the
field kernels over stacked points: row i of every plural kernel equals the
one-point call on row i bit for bit, however the rows are ordered and split
into blocks, and an empty record gives no rows."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2twistor.fields import (
    christoffel,
    christoffels,
    levi_civita,
    make_field,
    riemanns,
    torsion_residual,
    torsion_residuals,
)
from g2twistor.instanton import (
    cr_holomorphicity_residual,
    cr_holomorphicity_residuals,
    f7_residual,
    f7_residuals,
    make_connection,
)
from g2twistor.pointwise import standard_g2_point
from g2twistor.sampling import sphere_bundle_samples, torus_points
from g2twistor.twistor import (
    BLOCK,
    CARRIERS,
    WHICH,
    TwistorPoints,
    involutivity_residual,
    involutivity_residuals,
    omega_closure_residual,
    omega_closure_residuals,
    twistor_point,
    twistor_points,
    vertical_curvature_obstruction,
    vertical_curvature_obstructions,
    xi_factorization_residual,
)

FAMILIES = ["flat", "closed-perturbed", "generic-perturbed", "conformal"]
FIELDS = [f.name for f in dataclasses.fields(TwistorPoints)] + ["x", "W"]
OPTIONS = list(itertools.product(WHICH, CARRIERS))
COMBOS = 2


def kernel_rows(field, conn, tps, seeds):
    """Every plural kernel on the record tps, by name: one list of rows each."""
    F = np.array([conn.curvature(m, field.h) for m in tps.m]).reshape(-1, 21, 1, 1)
    rows = {(w, c): involutivity_residuals(field, tps, which=w, carrier=c) for w, c in OPTIONS}
    rows["vertical"] = vertical_curvature_obstructions(field, tps)
    rows["omega"] = omega_closure_residuals(field, tps, seeds, max_combos=COMBOS)
    rows["cr"] = cr_holomorphicity_residuals(tps, F)
    rows["f7"] = f7_residuals(tps.rho, tps.g, tps.ginv, tps.vol, F)
    return rows


def one_point_rows(field, conn, tp, seed):
    """The one-point call of every kernel at tp, under the names of `kernel_rows`."""
    rows = {(w, c): involutivity_residual(field, tp, which=w, carrier=c) for w, c in OPTIONS}
    rows["vertical"] = vertical_curvature_obstruction(field, tp)
    rows["omega"] = omega_closure_residual(field, tp.rows, max_combos=COMBOS, seed=seed)
    rows["cr"] = cr_holomorphicity_residual(field, conn, tp)
    rows["f7"] = f7_residual(field.point_data(tp.m), conn.curvature(tp.m, field.h))
    return rows


@settings(max_examples=8, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    epsilon=st.floats(0.0, 0.3),
    n=st.integers(0, 2 * BLOCK + 1),
    data=st.data(),
)
def test_record_kernels_match_one_point_calls(family, epsilon, n, data):
    """The record fields and the residuals of both `which` under both
    carriers, the vertical obstruction, the Omega closure, the CR and the
    7-part residuals: row i of each block equals the one-point call on the
    sample it holds."""
    field = make_field(family, 16, epsilon, (1, 2, 0, 1, 0, 0, -1))
    conn = make_connection("mixed", standard_g2_point(), index=3, vector=2, mix=0.5)
    ms, xs = sphere_bundle_samples(n, data.draw(st.integers(0, 99), label="seed"))
    order = data.draw(st.permutations(range(n)), label="order")
    split = data.draw(st.integers(0, n), label="split")
    M, X, seeds = ms[order], xs[order], range(3, 3 + n)
    parts = [slice(0, split), slice(split, n)]
    records = [twistor_points(field, M[b], X[b]) for b in parts]
    assert [len(tps) for tps in records] == [split, n - split]
    blocks = [kernel_rows(field, conn, tps, seeds[b]) for tps, b in zip(records, parts)]
    for i in range(n):
        k, j = (0, i) if i < split else (1, i - split)
        tp = twistor_point(field, M[i], X[i])
        for name in FIELDS:
            assert np.array_equal(getattr(records[k], name)[j], getattr(tp.rows, name)[0]), name
        for name, want in one_point_rows(field, conn, tp, seeds[i]).items():
            assert blocks[k][name][j] == want, name
    empty = kernel_rows(field, conn, records[0][:0], [])
    assert all(rows == [] for rows in empty.values())


@settings(max_examples=8, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    epsilon=st.floats(0.0, 0.3),
    n=st.integers(0, 2 * BLOCK + 1),
    layout=st.sampled_from("CF"),
    data=st.data(),
)
def test_field_kernels_match_one_point_calls(family, epsilon, n, layout, data):
    """`christoffels` (gamma, g and g^-1), `riemanns` and `torsion_residuals` on
    stacked points: row i of each block equals `christoffel`, the metric (and
    its inverse) and curvature of `levi_civita` and `torsion_residual` at the point it holds,
    bit for bit, whatever the order, the block split and the memory layout
    (C or Fortran) of the rows."""
    field = make_field(family, 16, epsilon, (1, 2, 0, 1, 0, 0, -1))
    points = torus_points(n, data.draw(st.integers(0, 99), label="seed"))
    order = data.draw(st.permutations(range(n)), label="order")
    split = data.draw(st.integers(0, n), label="split")
    P = np.asarray(points[order], order=layout)
    for rows in (P[:split], P[split:]):
        gamma, g, ginv = christoffels(field, rows)
        curvature = riemanns(field, rows, gamma, g)
        torsion = torsion_residuals(field, rows)
        assert len(gamma) == len(g) == len(curvature) == len(torsion) == len(rows)
        for i, p in enumerate(rows):
            _, g_p, riemann = levi_civita(field, p)
            assert np.array_equal(gamma[i], christoffel(field, p))
            assert np.array_equal(g[i], g_p) and np.array_equal(ginv[i], np.linalg.inv(g_p))
            assert np.array_equal(curvature[i], riemann)
            assert torsion[i] == torsion_residual(field, p)


#: every kernel that takes a record, as (field, conn, record) -> its value
RECORD_KERNELS = {
    "involutivity_residuals": lambda f, conn, tps: involutivity_residuals(f, tps),
    "vertical_curvature_obstructions": lambda f, conn, tps: vertical_curvature_obstructions(f, tps),
    "omega_closure_residuals": lambda f, conn, tps: omega_closure_residuals(f, tps, [0], max_combos=COMBOS),
    "omega_closure_residual": lambda f, conn, tps: omega_closure_residual(f, tps, max_combos=COMBOS),
    "xi_factorization_residual": lambda f, conn, tps: xi_factorization_residual(f, tps, max_combos=COMBOS),
    "cr_holomorphicity_residuals": lambda f, conn, tps: cr_holomorphicity_residuals(
        tps, np.array([conn.curvature(m, f.h) for m in tps.rows.m])
    ),
}


@pytest.mark.parametrize("name", sorted(RECORD_KERNELS))
def test_one_point_record_reads_as_its_row(name):
    """The one-point record tps[i] gives what its one-row record gives, not
    a wrong value or a numpy error."""
    field = make_field("generic-perturbed", 16, 0.1)
    conn = make_connection("mixed", standard_g2_point(), index=3, vector=2, mix=0.5)
    tp = twistor_point(field, *[a[0] for a in sphere_bundle_samples(3, 0)])
    kernel = RECORD_KERNELS[name]
    assert kernel(field, conn, tp) == kernel(field, conn, tp.rows)
