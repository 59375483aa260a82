"""Plain-text tabular serialization of forms and structure points.

Format (one record per file or stream section):

    kform
    dim 7
    degree 3
    1 2 3 1.0
    ...
    end

Each data line is a strictly increasing 1-based index tuple followed by
the coefficient (repr round-trip exact); zero coefficients are omitted.
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

A validated load checks rho_star against the Hodge dual of rho and metric.
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


def _parse_kform(lines, start):
    if lines[start].strip() != "kform":
        raise FormatError(f"expected 'kform' at line {start + 1}")
    dim = int(lines[start + 1].split()[1])
    degree = int(lines[start + 2].split()[1])
    coeffs = np.zeros(comb(dim, degree))
    pos = index_position(dim, degree)
    i = start + 3
    while lines[i].strip() != "end":
        parts = lines[i].split()
        idx = tuple(int(t) - 1 for t in parts[:-1])
        if len(idx) != degree or idx not in pos:
            raise FormatError(f"bad index tuple on line {i + 1}: {lines[i]!r}")
        coeffs[pos[idx]] = float(parts[-1])
        i += 1
    return KForm(dim, degree, coeffs), i + 1


def kform_from_text(text):
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    form, _ = _parse_kform(lines, 0)
    return form


def _matrix_to_lines(M):
    lines = [f"dim {M.shape[0]}"]
    for row in M:
        lines.append(" ".join(repr(float(v)) for v in row))
    lines.append("end")
    return lines


def _parse_matrix(lines, start):
    dim = int(lines[start].split()[1])
    rows = []
    i = start + 1
    while lines[i].strip() != "end":
        rows.append([float(t) for t in lines[i].split()])
        i += 1
    M = np.array(rows)
    if M.shape != (dim, dim):
        raise FormatError("matrix block has wrong shape")
    return M, i + 1


def g2point_to_text(point):
    out = ["g2point", f"orientation {point.orientation}", "rho"]
    out.append(kform_to_text(point.rho).rstrip("\n"))
    out.append("metric")
    out.extend(_matrix_to_lines(point.metric.entries))
    out.append("rho_star")
    out.append(kform_to_text(point.rho_star).rstrip("\n"))
    out.append("end")
    return "\n".join(out) + "\n"


def g2point_from_text(text, validate=True):
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if lines[0].strip() != "g2point":
        raise FormatError("expected 'g2point' header")
    orientation = int(lines[1].split()[1])
    if lines[2].strip() != "rho":
        raise FormatError("expected 'rho' block")
    rho, i = _parse_kform(lines, 3)
    if lines[i].strip() != "metric":
        raise FormatError("expected 'metric' block")
    entries, i = _parse_matrix(lines, i + 1)
    if lines[i].strip() != "rho_star":
        raise FormatError("expected 'rho_star' block")
    rho_star, i = _parse_kform(lines, i + 1)
    point = G2Point(rho, MetricTensor(entries), orientation, validate=validate)
    if validate and np.abs(point.rho_star.coeffs - rho_star.coeffs).max() > 1e-9:
        raise G2StructureError("stored 4-form is not the Hodge dual")
    return point
