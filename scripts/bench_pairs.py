"""Alternating parent/change pairs of the campaign benchmark.

Exports the committed files of two git revisions into fresh directories
(`git archive`, so neither the working tree nor the repository's worktree
list is touched), then, for each workload and each seed, runs

    python3 campaign_bench/run.py --workload W --seed S --trace 0 --seconds T

once in each tree, with T the run_seconds of BENCHMARK.json.  The tree that runs first alternates from pair to pair,
so drift of a shared machine falls on both sides alike.  For every
end-to-end metric of BENCHMARK.json it reports the medians and quartiles of
both sides, the pairs the change won, the difference of the medians
against the parent's interquartile range and their relative change, and
writes all of it, with every run's value, to a JSON file.  A metric whose
change median is worse than the parent's by more than the metric's bound in
BENCHMARK.json is printed with REGRESSION and written with
"within_bound": false.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload twistor --seeds 21-30 --out BENCH_7.json

Run it from the repository root; it needs numpy and the benchmark's own
dependencies, nothing else.  A failed or incorrect run stops the script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def seed_list(text):
    """'21-30' -> [21, ..., 30]; an empty or reversed range is an argparse error."""
    lo, hi = text.split("-")
    seeds = list(range(int(lo), int(hi) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}: need LO-HI with LO <= HI")
    return seeds


def export(rev, root):
    """The committed files of rev in a new directory below root; (path, full hash)."""
    sha = subprocess.run(["git", "rev-parse", rev], check=True, capture_output=True, text=True).stdout.strip()
    tree = Path(root) / sha[:12]
    tree.mkdir()
    archive = subprocess.run(["git", "archive", sha], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree, sha


def src_hash(tree):
    h = hashlib.sha256()
    for path in sorted((tree / "src" / "g2twistor").glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()


def run_once(tree, workload, seed, seconds):
    """One benchmark run in tree: ({metric: value}, {"attempted": n, "failed": n})."""
    cmd = [sys.executable, "campaign_bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree.name} {workload} seed {seed} failed:\n{proc.stderr}")
    try:
        result = json.loads(lines[-1])
        correct = result["correct"]
        values = {name: metric["value"] for name, metric in result["metrics"].items()}
        counts = {key: result[key] for key in ("attempted", "failed")}
    except (ValueError, KeyError, TypeError, AttributeError):
        last = lines[-1]
        raise SystemExit(f"{tree.name} {workload} seed {seed} failed: no result object in {last!r}") from None
    if not correct:
        raise SystemExit(f"{tree.name} {workload} seed {seed} is not correct:\n{proc.stderr}")
    return values, counts


def summarize(runs, better, bound):
    """Medians, quartiles, pair wins, the median difference and its relative
    change of one metric, and whether the change's median is worse than the
    parent's by at most the relative bound."""
    stats, medians = {}, {}
    for side in SIDES:
        values = np.array(runs[side])
        q1, medians[side], q3 = np.percentile(values, [25, 50, 75])
        stats[side] = {"median": round(medians[side], 6), "q1": round(q1, 6), "q3": round(q3, 6), "runs": runs[side]}
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (c - p) for p, c in zip(runs["parent"], runs["change"])]
    stats["change_wins"] = sum(g > 0 for g in gains)
    stats["ties"] = sum(g == 0 for g in gains)
    stats["pairs"] = len(gains)
    stats["median_diff"] = round(stats["change"]["median"] - stats["parent"]["median"], 6)
    stats["parent_iqr"] = round(stats["parent"]["q3"] - stats["parent"]["q1"], 6)
    parent, diff = medians["parent"], medians["change"] - medians["parent"]
    # a parent median of 0 has no relative change; then any worsening is beyond the bound
    stats["relative_change"] = round(diff / abs(parent), 6) if parent else None
    stats["within_bound"] = bool(-sign * diff <= bound * abs(parent))
    return stats


def metric_line(workload, name, m, bound):
    """One printed line per metric: the medians, their relative change, the
    parent's IQR, the pairs won, and REGRESSION when beyond the bound."""
    rel = "n/a" if m["relative_change"] is None else f"{m['relative_change']:+.1%}"
    line = (
        f"{workload} {name}: parent {m['parent']['median']:.4g} -> change "
        f"{m['change']['median']:.4g} ({rel}; parent IQR {m['parent_iqr']:.3g}, "
        f"change better in {m['change_wins']}/{m['pairs']})"
    )
    return line if m["within_bound"] else f"{line} REGRESSION (bound {bound:.0%})"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several")
    parser.add_argument("--seeds", type=seed_list, required=True, help="a range, e.g. 21-30")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--note", default="", help="one line saying what the change is")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {
        "change": args.note,
        "command": f"python3 campaign_bench/run.py --workload <w> --seed <s> --trace 0 --seconds {seconds}",
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as root:
        trees = {}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            trees[side], report[f"{side}_git"] = export(rev, root)
        report["src_sha256"] = {side: src_hash(trees[side]) for side in SIDES}
        for workload in args.workload:
            runs = {name: {side: [] for side in SIDES} for name in better}
            counts = {key: {side: 0 for side in SIDES} for key in ("attempted", "failed")}
            first = {}
            for i, seed in enumerate(args.seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                first[str(i)] = order[0]
                for side in order:
                    values, run_counts = run_once(trees[side], workload, seed, seconds)
                    for name in better:
                        runs[name][side].append(values[name])
                    for key in counts:
                        counts[key][side] += run_counts[key]
                line = ", ".join(f"{side} {runs['samples_per_s'][side][-1]:.1f}" for side in SIDES)
                print(f"{workload} seed {seed}: samples_per_s {line}", flush=True)
            metrics = {}
            for name in better:
                metrics[name] = {"unit": units[name], "better": better[name]}
                metrics[name].update(summarize(runs[name], better[name], bounds[name]))
            report["workloads"][workload] = {
                "seeds": args.seeds,
                "first_in_pair": first,
                "all_correct": True,
                **counts,
                "metrics": metrics,
            }
            for name, m in metrics.items():
                print(metric_line(workload, name, m, bounds[name]), flush=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
