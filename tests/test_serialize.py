import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from g2twistor.forms import KForm, transform
from g2twistor.pointwise import G2StructureError, standard_g2_point, G2Point
from g2twistor.serialize import (
    FormatError,
    g2point_from_text,
    g2point_to_text,
    kform_from_text,
    kform_to_text,
)

RNG = np.random.default_rng(3)


def test_kform_roundtrip_random():
    for dim, degree in [(7, 3), (6, 2), (4, 0), (5, 5)]:
        from math import comb

        a = KForm(dim, degree, RNG.standard_normal(comb(dim, degree)))
        b = kform_from_text(kform_to_text(a))
        assert b.dim == dim and b.degree == degree
        assert np.array_equal(a.coeffs, b.coeffs)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=10,
        max_size=10,
    )
)
def test_kform_roundtrip_exact_floats(vals):
    a = KForm(5, 2, np.array(vals))
    b = kform_from_text(kform_to_text(a))
    assert np.array_equal(a.coeffs, b.coeffs)


def test_kform_text_shape():
    a = KForm.from_terms(7, {(0, 1, 2): 1.5})
    text = kform_to_text(a)
    lines = text.strip().splitlines()
    assert lines[0] == "kform"
    assert lines[1] == "dim 7"
    assert lines[2] == "degree 3"
    assert lines[3].startswith("1 2 3 ")  # 1-based indices
    assert lines[-1] == "end"


def test_g2point_roundtrip():
    p = standard_g2_point()
    q = g2point_from_text(g2point_to_text(p))
    assert np.array_equal(p.rho.coeffs, q.rho.coeffs)
    assert np.array_equal(p.metric.entries, q.metric.entries)
    assert np.array_equal(p.rho_star.coeffs, q.rho_star.coeffs)
    assert p.orientation == q.orientation


def test_g2point_roundtrip_transported():
    std = standard_g2_point()
    A = RNG.standard_normal((7, 7))
    if np.linalg.det(A) < 0:
        A[:, 0] = -A[:, 0]
    p = G2Point.from_rho(transform(std.rho, A))
    q = g2point_from_text(g2point_to_text(p))  # validation runs on load
    assert np.array_equal(p.metric.entries, q.metric.entries)


def test_malformed_inputs_rejected():
    with pytest.raises(FormatError):
        kform_from_text("not a form\nend\n")
    with pytest.raises(FormatError):
        kform_from_text("kform\ndim 7\ndegree 3\n1 2 200 1.0\nend\n")
    good = g2point_to_text(standard_g2_point())
    with pytest.raises(FormatError):
        g2point_from_text(good.replace("metric", "meh", 1))


#: the std point's text cut after its 20th line, inside the metric block
_TRUNCATED = "\n".join(g2point_to_text(standard_g2_point()).splitlines()[:20])


@pytest.mark.parametrize(
    "load, text, line",
    [
        (kform_from_text, "", 0),
        (g2point_from_text, "", 0),
        (g2point_from_text, _TRUNCATED, 20),
        (kform_from_text, "kform\ndim 7\ndegree 1\n1 2.0\n", 4),
        (kform_from_text, "kform\ndim\ndegree 1\nend\n", 2),
        (kform_from_text, "# a comment\n\nkform\ndim x\ndegree 1\nend\n", 4),
        (kform_from_text, "kform\ndim 7\ndegree 1\n1 2.0\n3 two\nend\n", 5),
        (g2point_from_text, g2point_to_text(standard_g2_point()).replace("metric\ndim 7", "metric\ndim x"), 16),
    ],
    ids=["empty-kform", "empty-g2point", "truncated-g2point", "kform-without-end", "dim-without-value",
         "dim-x", "non-numeric-coefficient", "metric-dim-x"],
)
def test_malformed_text_is_a_format_error_at_its_line(load, text, line):
    """Text that ends early or holds a malformed line raises FormatError with
    the number of the line (blank and comment lines counted), never an
    IndexError or a bare ValueError."""
    with pytest.raises(FormatError, match=f"^line {line}: "):
        load(text)


def test_stored_4form_checked_on_load():
    """A load rejects a rho_star block that is not the Hodge dual of the
    stored rho and metric."""
    std = standard_g2_point()
    head, _ = g2point_to_text(std).split("rho_star\n")
    text = head + "rho_star\n" + kform_to_text(-1.0 * std.rho_star) + "end\n"
    with pytest.raises(G2StructureError, match="Hodge dual"):
        g2point_from_text(text)


def test_comments_and_blank_lines_ignored():
    a = KForm.from_terms(7, {(1, 2): -2.0})
    text = "# a comment\n\n" + kform_to_text(a)
    assert np.array_equal(kform_from_text(text).coeffs, a.coeffs)
