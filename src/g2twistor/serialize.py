"""Plain-text tabular serialization of forms and structure points.

Format (one record per text):

    kform
    dim 7
    degree 3
    1 2 3 1.0
    ...
    end

Each data line is a strictly increasing 1-based index tuple, given once,
then the coefficient (repr round-trip exact); zero coefficients are omitted.
A g2point record nests three kform/matrix blocks:

    g2point
    orientation 1
    rho
    <kform block>
    metric
    dim 7
    <7 rows of 7 floats>
    end
    rho_star
    <kform block>
    end

A load validates the point and checks rho_star against the Hodge dual of
rho and metric.  Malformed text raises FormatError with its line number.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .forms import KForm, MetricTensor, increasing_indices, index_position
from .pointwise import G2Point, G2StructureError


class FormatError(ValueError):
    pass


def kform_to_text(form):
    lines = ["kform", f"dim {form.dim}", f"degree {form.degree}"]
    for pos, idx in enumerate(increasing_indices(form.dim, form.degree)):
        c = form.coeffs[pos]
        if c != 0.0:
            lines.append(" ".join(str(i + 1) for i in idx) + " " + repr(float(c)))
    lines.append("end")
    return "\n".join(lines) + "\n"


def _parsed(parse, text):
    """parse(line) over the data lines of text (blank and '#' lines skipped),
    line(want) reading the next one, which must equal `want` when given; what
    is malformed or follows the record raises FormatError naming its line."""
    data = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1) if ln.strip() and not ln.startswith("#")]
    lines, at = iter(data), [0]

    def line(want=None):
        at[0], got = next(lines, (at[0], None))
        if got is None or want not in (None, got):
            raise FormatError(f"expected {want!r}, got {got!r}" if got else "text ends early")
        return got

    try:
        record = parse(line)
    except ValueError as exc:
        raise FormatError(f"line {at[0]}: {exc}") from None
    if rest := next(lines, None):
        raise FormatError(f"line {rest[0]}: text after the record: {rest[1]!r}")
    return record


def _parse_kform(line):
    line("kform")
    dim, degree = int(line().removeprefix("dim ")), int(line().removeprefix("degree "))
    coeffs = np.zeros(comb(dim, degree))
    pos, seen = index_position(dim, degree), set()
    while (row := line()) != "end":
        *idx, c = row.split()
        idx = tuple(int(t) - 1 for t in idx)
        if len(idx) != degree or idx not in pos or idx in seen:
            raise FormatError(f"{'repeated' if idx in seen else 'bad'} index tuple {row!r}")
        seen.add(idx)
        coeffs[pos[idx]] = float(c)
    return KForm(dim, degree, coeffs)


def kform_from_text(text):
    return _parsed(_parse_kform, text)


def _parse_matrix(line):
    dim = int(line().removeprefix("dim "))
    rows = []
    while (row := line()) != "end":
        rows.append([float(t) for t in row.split()])
    M = np.array(rows)  # ragged rows raise ValueError
    if M.shape != (dim, dim):
        raise FormatError("matrix block has wrong shape")
    return M


def g2point_to_text(point):
    out = ["g2point", f"orientation {point.orientation}", "rho", kform_to_text(point.rho), "metric"]
    out += [f"dim {point.metric.dim}", *(" ".join(repr(float(v)) for v in row) for row in point.metric.entries)]
    out += ["end", "rho_star", kform_to_text(point.rho_star), "end"]
    return "\n".join(ln.rstrip("\n") for ln in out) + "\n"


def _parse_g2point(line):
    line("g2point")
    orientation = int(line().removeprefix("orientation "))
    line("rho")
    rho = _parse_kform(line)
    line("metric")
    entries = _parse_matrix(line)
    line("rho_star")
    rho_star = _parse_kform(line)
    line("end")
    return rho, entries, orientation, rho_star


def g2point_from_text(text):
    rho, entries, orientation, rho_star = _parsed(_parse_g2point, text)
    point = G2Point(rho, MetricTensor(entries), orientation)
    if np.abs(point.rho_star.coeffs - rho_star.coeffs).max() > 1e-9:
        raise G2StructureError("stored 4-form is not the Hodge dual")
    return point
