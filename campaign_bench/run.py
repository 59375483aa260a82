"""Campaign benchmark of g2twistor: samples per second to a verdict.

Run from the root of a g2twistor checkout:

    python3 campaign_bench/run.py --workload twistor --seed 1 --seconds 30 --trace 0

Each run starts fresh child processes (child.py) with one BLAS/OpenMP
thread each.  A child times its own set-up, runs the workload's campaign
through g2twistor.cli.run_campaign until its share of --seconds is spent,
and checks every verdict; the last untraced child also checks the reference
residuals and the worker-count invariance.  With --trace 0 the last line of
output is a JSON object holding the end-to-end metrics; with --trace 1 one
untraced and one traced child share the time and the JSON holds the
per-layer metrics.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent

# config, timed sample count, worker count, and sample count of the
# reference run at seed 0 (the size of reference/<workload>.csv)
WORKLOADS = {
    "twistor": {"config": "configs/twistor-perturbed.cfg", "samples": 12, "workers": 1, "check_samples": 4},
    "integrability": {"config": "configs/integrability.cfg", "samples": 200, "workers": 1, "check_samples": 40},
    "instanton": {"config": "configs/instanton.cfg", "samples": 100, "workers": 2, "check_samples": 20},
}
SMOKE_SAMPLES = {"twistor": 2, "integrability": 8, "instanton": 4}

# untraced children per --trace 0 run; each gives one set-up time and one
# peak RSS, and the run reports their medians
CHILDREN = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# seconds of child.calibrate(), in either clock, at the machine speed all
# times are scaled to (a 2-vCPU shared virtual machine in its slower state)
CALIBRATION_REF_S = 0.1
# a run must end within 180 s; children are killed past this
DEADLINE_S = 170.0
OUT = ".bench_out"

END_TO_END_UNITS = {"samples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "passed_frac": "ratio"}
LAYER_SUFFIX_UNITS = {
    ".calls": "count",
    ".misses": "count",
    ".hit_ratio": "ratio",
    ".self_s": "s",
    ".s": "s",
    ".overhead_frac": "ratio",
    "_per_cpu_s": "1/s",
}


def layer_unit(name):
    return next(u for suffix, u in LAYER_SUFFIX_UNITS.items() if name.endswith(suffix))


def environment(root, seed):
    git = None
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
        git = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "g2twistor").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git": git,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "threads_per_child": {v: "1" for v in THREAD_VARS},
    }


def run_child(root, spec, deadline):
    """The child's JSON result, or (None, reason) when it crashed or timed out."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **{v: "1" for v in THREAD_VARS})
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"child killed after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        return None, f"child exited with {proc.returncode}: {tail[0]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def scale(res, clock):
    """Factor that takes a child's times in one clock (0 wall, 1 CPU) to the
    reference machine speed: the machine's speed moved by up to 2x between
    runs minutes apart, and the calibration kernel slows down and speeds up
    with it."""
    return CALIBRATION_REF_S / statistics.median(c[clock] for c in res["calibrations"])


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sample counts, for self-tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    wl = WORKLOADS[args.workload]
    missing = [p for p in ("src/g2twistor/__init__.py", wl["config"]) if not (root / p).is_file()]
    if missing:
        sys.exit(f"campaign_bench: run from the root of a g2twistor checkout; missing {', '.join(missing)}")
    deadline = time.monotonic() + DEADLINE_S

    samples = SMOKE_SAMPLES[args.workload] if args.smoke else wl["samples"]
    env = environment(root, args.seed)
    (root / OUT).mkdir(exist_ok=True)
    (root / OUT / "env.json").write_text(json.dumps(env, indent=1) + "\n")
    print("env " + json.dumps(env, sort_keys=True))

    common = dict(wl, workload=args.workload, root=str(root), seed=args.seed, samples=samples)
    # (traced, runs the output checks) per child
    if args.trace:
        plan = [(False, True), (True, False)]
    else:
        plan = [(False, k == CHILDREN - 1) for k in range(CHILDREN)]
    results = []
    attempted = failed = 0
    measure_end = time.monotonic() + args.seconds
    for k, (trace, checks) in enumerate(plan):
        # each child gets an equal share of what the earlier ones left
        seconds = (measure_end - time.monotonic()) / (len(plan) - k)
        spec = dict(common, seconds=seconds, trace=trace, checks=checks, out=f"{OUT}/{args.workload}/c{k}")
        res, err = run_child(root, spec, deadline)
        if err:
            attempted += 1
            failed += 1
            print(f"error: {err}", file=sys.stderr)
            continue
        results.append((trace, res))
        attempted += res["attempted"]
        failed += res["failed"]
        for line in res["errors"]:
            print(f"error: {line}", file=sys.stderr)
    bodies = [res["body_sha256"] for _, res in results]
    for body in bodies[1:]:
        if body != bodies[0]:
            failed += 1
            print("error: samples.csv body differs between child processes", file=sys.stderr)

    # each child's first campaign still builds lazy tables; it is checked
    # and printed but left out of the timings
    untraced = [res for trace, res in results if not trace]
    untraced_wall = [w * scale(res, 0) for res in untraced for w in res["walls"]]
    untraced_cpu = [c * scale(res, 1) for res in untraced for c in res["cpus"]]
    # means, not medians: the machine's speed flips between two levels, and
    # a median of many campaigns jumps with them where a mean averages them
    wall, cpu = mean(untraced_wall), mean(untraced_cpu)
    print(
        f"{args.workload}: {samples} samples, workers {wl['workers']}, {len(untraced_wall)} warm campaigns "
        f"in {len(untraced)} untraced processes; mean scaled wall {wall:.4f} s, mean scaled CPU {cpu:.4f} s"
    )
    print("scale_wall " + " ".join(f"{scale(res, 0):.4f}" for _, res in results))
    print("scale_cpu " + " ".join(f"{scale(res, 1):.4f}" for _, res in results))
    print("cold_walls_s " + " ".join(f"{res['cold'][0] * scale(res, 0):.4f}" for res in untraced if res["cold"]))
    print("walls_s " + " ".join(f"{w:.4f}" for w in untraced_wall))
    print("cpus_s " + " ".join(f"{c:.4f}" for c in untraced_cpu))
    if args.trace:
        traced = [res for trace, res in results if trace]
        layers = traced[0]["layers"] if traced else []
        metrics = {name: median([lay[name] for lay in layers]) for name in (layers[0] if layers else [])}
        traced_wall = mean([w * scale(res, 0) for res in traced for w in res["walls"]])
        metrics["trace.overhead_frac"] = traced_wall / wall - 1.0 if traced_wall and wall else 0.0
        metrics["samples_per_cpu_s"] = samples / cpu if cpu else 0.0
        units = {name: layer_unit(name) for name in metrics}
        print(f"traced warm campaigns: {sum(len(res['walls']) for res in traced)}")
    else:
        metrics = {
            "samples_per_s": samples / wall if wall else 0.0,
            "setup_s": median([res["setup_cpu_s"] * scale(res, 1) for res in untraced]),
            "peak_rss_mb": median([res["peak_rss_mb"] for res in untraced]),
            "passed_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
        print(f"median set-up wall {median([res['setup_wall_s'] for res in untraced]):.4f} s")

    for name, value in metrics.items():
        print(f"  {name:48s} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0 and bool(results),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
