"""One child process of the campaign benchmark.

    python3 campaign_bench/child.py '<json spec>'

It times its own set-up (interpreter start, `import g2twistor.cli` and the
first make_field(...).point_data(p) call, which builds the lazy tables), then
runs the workload's campaign through cli.run_campaign until its time budget
is spent, checking every run.  It runs at least two campaigns; the first,
cold one is reported apart from the timed warm ones.  With "checks" it also
runs the reference
campaign at seed 0 against reference/<workload>.csv and, for a workload with
workers > 1, the same reference campaign at workers = 1, whose samples.csv
body must be byte-equal.  With "trace" it installs the span tracer after
set-up and reports per-layer metrics for each warm run.  The last line of its
output is one JSON object.

Times are taken both as wall time and as process CPU time (all threads).
After set-up and after every campaign the child also times a fixed
calibration kernel, in both clocks, so that the caller can express times
at one machine speed.
"""

import time

_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402


def calibrate(rounds=5000):
    """(wall s, process CPU s) of a fixed mix of interpreter and 7x7 numpy
    work, the kind of work a campaign does.  It uses nothing from g2twistor,
    so only the machine's speed moves it."""
    import numpy as np

    wall0, cpu0 = time.perf_counter(), time.process_time()
    a = np.arange(49.0).reshape(7, 7) / 49.0 + np.eye(7)
    v = np.ones(7)
    acc = 0.0
    for i in range(rounds):
        b = a @ a.T
        acc += float(np.linalg.solve(b, v) @ v) + float(np.einsum("ij,j->i", b, v).sum())
        acc += sum(j * j % 7 for j in range(i % 50 + 50))
    return time.perf_counter() - wall0, time.process_time() - cpu0


def run_once(cli, cfg):
    """((wall s, cpu s), errors, samples.csv body or None) of one campaign."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        status = cli.run_campaign(cfg)
        times = (time.perf_counter() - wall0, time.process_time() - cpu0)
        out = Path(cfg.out)
        errors = [] if status == 0 else [f"run_campaign returned {status}"]
        errors += check.verdict_errors(check.read_summary(out / "summary.txt"), cfg.expect)
        return times, errors, check.csv_body(out / "samples.csv")
    except Exception as exc:  # a raising campaign is a failed run, not a crash
        return (time.perf_counter() - wall0, time.process_time() - cpu0), [f"raised {exc!r}"], None


def main(spec):
    root = Path(spec["root"])
    out = root / spec["out"]
    import numpy as np
    from g2twistor import cli, fields

    src = (root / "src" / "g2twistor").resolve()
    if Path(cli.__file__).resolve().parent != src:
        raise SystemExit(f"g2twistor was imported from {cli.__file__}, not from {src}")
    base = cli.parse_config(root / spec["config"])
    fields.make_field(base.generator, base.resolution, base.epsilon, base.frequency).point_data(
        np.full(7, 0.5)
    )
    setup = (time.perf_counter() - _T0, time.process_time())
    calibrations = [calibrate()]

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.install()

    cfg = replace(
        base, seed=spec["seed"], samples=spec["samples"], workers=spec["workers"], out=str(out / "timed")
    )
    walls, cpus, layers, errors = [], [], [], []
    cold = None
    attempted = failed = 0
    first_body = None
    spans = []
    wall = 0.0
    # The first campaign is cold: it builds the lazy tables that set-up does
    # not reach.  It is checked like the others but kept out of the timings,
    # so the number of warm repeats does not change the mean.  Another run
    # starts only while it would end, on the last run's pace, within the
    # budget, so a run's length does not grow on a slow machine.
    while attempted < 2 or time.perf_counter() - _T0 + wall <= spec["seconds"]:
        (wall, cpu), errs, body = run_once(cli, cfg)
        calibrations.append(calibrate())
        attempted += 1
        if first_body is None:
            first_body = body
        elif body != first_body:
            errs.append("samples.csv body differs from the first run at the same seed")
        if tracer is not None:
            spans = tracer.take()
        if errs:
            failed += 1
            errors += errs
        elif attempted == 1:
            cold = (wall, cpu)
        else:
            walls.append(wall)
            cpus.append(cpu)
            if tracer is not None:
                layers.append(tracing.layer_metrics(spans))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracing.dump(spans, out / "spans.tsv")
        tracer.restore()

    if spec["checks"]:
        ref_cfg = replace(base, seed=0, samples=spec["check_samples"], workers=spec["workers"])
        _, errs, ref_body = run_once(cli, replace(ref_cfg, out=str(out / "reference")))
        if ref_body is not None:
            errs += check.residual_errors(ref_body, check.reference_body(spec["workload"]))
        attempted += 1
        failed += bool(errs)
        errors += errs
        if ref_cfg.workers > 1:
            _, errs, body = run_once(cli, replace(ref_cfg, workers=1, out=str(out / "workers1")))
            if body != ref_body:
                errs.append(f"samples.csv body at workers = 1 differs from workers = {ref_cfg.workers}")
            attempted += 1
            failed += bool(errs)
            errors += errs

    return {
        "setup_wall_s": setup[0],
        "setup_cpu_s": setup[1],
        "calibrations": calibrations,
        "cold": cold,
        "walls": walls,
        "cpus": cpus,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "body_sha256": hashlib.sha256(first_body.encode()).hexdigest() if first_body else None,
        "layers": layers,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
