"""Byte comparison of the campaign outputs of two git revisions.

Exports the committed files of both revisions into fresh directories
(`bench_pairs.export`), then, in each tree, runs every config of
configs/*.cfg at seeds 0, 5 and 7, and twistor-perturbed, integrability
and instanton also at frequency (1, 2, 3, 4, 5, 6, 7), where every axis
step moves the phase, so the bracket and Christoffel passes repeat no
3-form (1440 of 1440 and 240 of 240 rows distinct on a 16-sample
generic-perturbed block).  Other passes still repeat rows: the curvature
pass differences the Christoffel symbols of the axis neighbours, whose
stencils share points (469 of 3360 rows distinct), and the Omega pass
steps along a frame vector once per 4-frame that holds it (220 of 640).
The shipped instanton config runs the flat field, whose rows all share one
3-form, so its frequency runs also switch to the generic-perturbed field at
epsilon 0.1: only there do per-row metrics reach its residuals.
twistor-perturbed and integrability also run at frequency
(1, 0, 2, 0, 0, 3, 0), where the torsion, Christoffel and curvature stencils
difference along e_1, e_3 and e_6 and skip the four axes the phase does not
read (at the shipped e_1 they skip six, at (1, ..., 7) none).
twistor-perturbed also runs the conformal field at epsilon 0.05, which no
shipped config runs, so every generator family reaches a compared output.  Of each run it compares the body of
samples.csv (all but its timestamp line), the [results] section of
summary.txt and, for a pointwise run, the whole of g2point.txt byte for
byte, prints one line per run, and names every file that differs; a report
that neither run wrote is not counted.  Under the line of a run whose
reports differ it says how far they moved: each moved column of
samples.csv with its largest relative change, and each changed line of
summary.txt or g2point.txt as old -> new.

    python3 scripts/compare_outputs.py --parent HEAD~1 --change HEAD

Run it from the repository root.  It exits 0 when every output is
identical, 1 when some differ, and stops with one line when a run fails.
"""

from __future__ import annotations

import argparse
import itertools
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import SIDES, export  # noqa: E402

SEEDS = (0, 5, 7)
OFF_AXIS = {"frequency": "1 2 3 4 5 6 7"}
MIXED = {"frequency": "1 0 2 0 0 3 0"}
#: (label part, config stem, settings replaced or added) of the runs beside the shipped configs
VARIANTS = (
    ("f1234567", "twistor-perturbed", OFF_AXIS),
    ("f1234567", "integrability", OFF_AXIS),
    ("f1020030", "twistor-perturbed", MIXED),
    ("f1020030", "integrability", MIXED),
    ("generic-f1234567", "instanton", {"generator": "generic-perturbed", "epsilon": "0.1", **OFF_AXIS}),
    ("conformal", "twistor-perturbed", {"generator": "conformal", "epsilon": "0.05"}),
)
REPORTS = ("samples.csv", "summary.txt", "g2point.txt")


def runs(configs):
    """(label, config stem, settings, seed) of every compared run."""
    out = [(f"{stem}-seed{seed}", stem, {}, seed) for stem in configs for seed in SEEDS]
    out += [(f"{stem}-{part}-seed{seed}", stem, kv, seed) for part, stem, kv in VARIANTS for seed in SEEDS]
    return out


def with_settings(text, settings):
    """Config text with the one line of each key of settings set to its
    value, or the line appended when the config has none."""
    for key, value in settings.items():
        line = f"{key} = {value}"
        text, n = re.subn(rf"(?m)^{key}\s*=.*$", line, text)
        if n > 1:
            raise SystemExit(f"expected at most one {key} line in the config, found {n}")
        if not n:
            text += ("" if text.endswith("\n") else "\n") + line + "\n"
    return text


def run(tree, stem, settings, seed, out):
    """One campaign run of configs/<stem>.cfg with settings in tree, its reports written to out."""
    config = tree / "configs" / f"{stem}.cfg"
    out.mkdir(parents=True)
    if settings:
        text = with_settings(config.read_text(), settings)
        config = out / "config.cfg"
        config.write_text(text)
    cmd = [sys.executable, "-m", "g2twistor.cli", "--config", str(config), "--seed", str(seed), "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if failed(proc.returncode, proc.stderr):
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise SystemExit(f"{tree.name} {out.name} failed (exit {proc.returncode}): {last}")


def failed(returncode, stderr):
    """Whether a campaign run failed.  Exit 1 with the verdict-mismatch report
    is a verdict other than the config expects, and the reports are written
    all the same; exit 1 without it is an uncaught error, which Python also
    ends with 1."""
    return returncode != 0 and not (returncode == 1 and "verdict mismatch:" in stderr)


def compared_part(path):
    """The bytes of a report that must not change: samples.csv without its
    timestamp line, summary.txt from its [results] line on, g2point.txt
    whole; None when the file is missing."""
    if not path.is_file():
        return None
    data = path.read_bytes()
    if path.name == "samples.csv":
        return data.split(b"\n", 1)[-1]
    if path.name == "summary.txt":
        start = data.find(b"[results]")
        return data[start:] if start >= 0 else data
    return data


def written_reports(parent_run, change_run):
    """Names of the reports that at least one of two run directories holds."""
    return [name for name in REPORTS if (parent_run / name).is_file() or (change_run / name).is_file()]


def differing_files(parent_run, change_run):
    """Names of the reports of two run directories whose compared parts differ."""
    return [
        name
        for name in written_reports(parent_run, change_run)
        if compared_part(parent_run / name) != compared_part(change_run / name)
    ]


def relative_change(old, new):
    """|new - old| / |old| of two CSV fields; 0 for equal text, inf when old
    is 0 or either field is not a number."""
    if old == new:
        return 0.0
    try:
        a, b = float(old), float(new)
    except ValueError:
        return float("inf")
    return abs(b - a) / abs(a) if a else float("inf")


def moved_columns(old, new):
    """Lines naming each column of two samples.csv bodies (header, then rows)
    that moved, with its largest relative change and the rows it moved in."""
    old_header, *old_rows = old.decode().splitlines() or [""]
    new_header, *new_rows = new.decode().splitlines() or [""]
    if old_header != new_header or len(old_rows) != len(new_rows):
        return [f"header or row count differs: {len(old_rows)} -> {len(new_rows)} rows"]
    moved = {}
    for a, b in zip(old_rows, new_rows):
        for column, x, y in zip(old_header.split(","), a.split(","), b.split(",")):
            if x != y:
                worst, count = moved.get(column, (0.0, 0))
                moved[column] = (max(worst, relative_change(x, y)), count + 1)
    return [f"{c}: largest relative change {r:.2e}, in {k} of {len(old_rows)} rows" for c, (r, k) in moved.items()]


def changed_lines(old, new):
    """Each differing line of two summary.txt [results] sections as 'old -> new'."""
    pairs = itertools.zip_longest(old.decode().splitlines(), new.decode().splitlines(), fillvalue="(none)")
    return [f"{a} -> {b}" for a, b in pairs if a != b]


def movements(parent_run, change_run, name):
    """How far report `name` moved between two run directories, one line per item."""
    old, new = compared_part(parent_run / name), compared_part(change_run / name)
    if old is None or new is None:
        return ["missing in the " + ("parent" if old is None else "change") + " run"]
    return moved_columns(old, new) if name == "samples.csv" else changed_lines(old, new)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    args = parser.parse_args(argv)

    differing, total = [], 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as root:
        root = Path(root)
        trees = {}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            (root / side).mkdir()
            trees[side], sha = export(rev, root / side)
            print(f"{side}: {rev} = {sha}", flush=True)
        configs = sorted(path.stem for path in (trees["change"] / "configs").glob("*.cfg"))
        for label, stem, settings, seed in runs(configs):
            for side in SIDES:
                run(trees[side], stem, settings, seed, root / "out" / side / label)
            parent_run, change_run = root / "out" / "parent" / label, root / "out" / "change" / label
            names = differing_files(parent_run, change_run)
            print(f"{label}: " + (" and ".join(names) + " differ" if names else "identical"), flush=True)
            for name in names:
                for line in movements(parent_run, change_run, name):
                    print(f"  {name} {line}", flush=True)
            differing += [f"{label}/{name}" for name in names]
            total += len(written_reports(parent_run, change_run))
    if differing:
        print(f"{len(differing)} of {total} files differ: " + ", ".join(differing))
        return 1
    print(f"all {total} files identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
