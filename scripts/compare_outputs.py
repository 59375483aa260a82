"""Byte comparison of the campaign outputs of two git revisions.

Exports the committed files of both revisions into fresh directories
(`bench_pairs.export`), then, in each tree, runs every config of
configs/*.cfg at seeds 0, 5 and 7, and twistor-perturbed and integrability
also at frequency (1, 2, 3, 4, 5, 6, 7), where no row of a stencil side
repeats a 3-form.  Of each run it compares the body of samples.csv (all
but its timestamp line) and the [results] section of summary.txt byte for
byte, prints one line per run, and names every file that differs.

    python3 scripts/compare_outputs.py --parent HEAD~1 --change HEAD

Run it from the repository root.  It exits 0 when every output is
identical, 1 when some differ, and stops with one line when a run fails.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import SIDES, export  # noqa: E402

SEEDS = (0, 5, 7)
OFF_AXIS = (1, 2, 3, 4, 5, 6, 7)
OFF_AXIS_CONFIGS = ("twistor-perturbed", "integrability")
REPORTS = ("samples.csv", "summary.txt")


def runs(configs):
    """(label, config stem, frequency or None, seed) of every compared run."""
    out = [(f"{stem}-seed{seed}", stem, None, seed) for stem in configs for seed in SEEDS]
    freq = "".join(map(str, OFF_AXIS))
    out += [(f"{stem}-f{freq}-seed{seed}", stem, OFF_AXIS, seed) for stem in OFF_AXIS_CONFIGS for seed in SEEDS]
    return out


def with_frequency(text, frequency):
    """Config text with its one frequency line set to frequency."""
    line = "frequency = " + " ".join(map(str, frequency))
    text, n = re.subn(r"(?m)^frequency\s*=.*$", line, text)
    if n != 1:
        raise SystemExit(f"expected one frequency line in the config, found {n}")
    return text


def run(tree, stem, frequency, seed, out):
    """One campaign run of configs/<stem>.cfg in tree, its reports written to out."""
    config = tree / "configs" / f"{stem}.cfg"
    out.mkdir(parents=True)
    if frequency is not None:
        text = with_frequency(config.read_text(), frequency)
        config = out / "config.cfg"
        config.write_text(text)
    cmd = [sys.executable, "-m", "g2twistor.cli", "--config", str(config), "--seed", str(seed), "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    # exit 1 is a verdict other than the config expects; the reports are written all the same
    if proc.returncode not in (0, 1):
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise SystemExit(f"{tree.name} {out.name} failed (exit {proc.returncode}): {last}")


def compared_part(path):
    """The bytes of a report that must not change: samples.csv without its
    timestamp line, summary.txt from its [results] line on; None when the
    file is missing."""
    if not path.is_file():
        return None
    data = path.read_bytes()
    if path.name == "samples.csv":
        return data.split(b"\n", 1)[-1]
    start = data.find(b"[results]")
    return data[start:] if start >= 0 else data


def differing_files(parent_run, change_run):
    """Names of the reports of two run directories whose compared parts differ."""
    return [name for name in REPORTS if compared_part(parent_run / name) != compared_part(change_run / name)]


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
        for label, stem, frequency, seed in runs(configs):
            for side in SIDES:
                run(trees[side], stem, frequency, seed, root / "out" / side / label)
            names = differing_files(root / "out" / "parent" / label, root / "out" / "change" / label)
            print(f"{label}: " + (" and ".join(names) + " differ" if names else "identical"), flush=True)
            differing += [f"{label}/{name}" for name in names]
            total += len(REPORTS)
    if differing:
        print(f"{len(differing)} of {total} files differ: " + ", ".join(differing))
        return 1
    print(f"all {total} files identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
