"""Output checks of the campaign benchmark.

A campaign run passes when every verdict in summary.txt equals the config's
`expect_<key>` line and, for the reference run, every numeric column of
samples.csv matches the reference body committed under reference/.
"""

from __future__ import annotations

from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# summary.txt key that holds the verdict named by each expect_<key> line
VERDICT_KEYS = {
    "integrability": "verdict",
    "involutivity": "verdict",
    "instanton": "verdict_instanton",
    "cr_holomorphic": "verdict_cr_holomorphic",
}

# Rounding level.  Moving every input of the reference samples by one ulp
# moves the residuals by at most 1.2e-14 relative (twistor omega_closure;
# the others by under 5e-15), so a refactor that only reorders float64
# arithmetic stays well inside RTOL.  ATOL covers residuals that are exactly
# zero, such as d_rho on the closed-perturbed field, where a reordered
# central difference leaves rounding noise of order 1e-14.
RTOL = 1e-11
ATOL = 1e-12


def read_summary(path):
    """The [results] section of a summary.txt as a dict of strings."""
    results = {}
    section = None
    for line in Path(path).read_text().splitlines():
        if line.startswith("["):
            section = line
        elif section == "[results]" and ": " in line:
            key, value = line.split(": ", 1)
            results[key] = value
    return results


def csv_body(path):
    """samples.csv without its leading timestamp line."""
    text = Path(path).read_text()
    return text.split("\n", 1)[1] if text.startswith("#") else text


def verdict_errors(summary, expect):
    errors = []
    for key, want in sorted(expect.items()):
        got = summary.get(VERDICT_KEYS.get(key, key))
        if got != want:
            errors.append(f"verdict {key}: expected {want}, got {got}")
    return errors


def residual_errors(body, reference, rtol=RTOL, atol=ATOL):
    """Cells of a samples.csv body that differ from the reference body by
    more than rounding; the header and row count must match exactly."""
    rows = [line.split(",") for line in body.splitlines()]
    ref = [line.split(",") for line in reference.splitlines()]
    if not rows or not ref or rows[0] != ref[0]:
        return [f"header {rows[:1]} differs from reference {ref[:1]}"]
    if len(rows) != len(ref):
        return [f"{len(rows) - 1} rows, reference has {len(ref) - 1}"]
    errors = []
    header = ref[0]
    for i, (row, want) in enumerate(zip(rows[1:], ref[1:]), 1):
        for col, got_s, want_s in zip(header, row, want):
            got, exp = float(got_s), float(want_s)
            if not abs(got - exp) <= atol + rtol * abs(exp):
                errors.append(f"row {i} {col}: {got_s} != reference {want_s}")
        if len(row) != len(want):
            errors.append(f"row {i}: {len(row)} cells, reference has {len(want)}")
    return errors


def reference_body(workload):
    return (REFERENCE_DIR / f"{workload}.csv").read_text()
