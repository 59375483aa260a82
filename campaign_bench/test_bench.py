"""Self-tests of the campaign benchmark.

    python3 -m pytest campaign_bench -q

They run from the repository root, which must hold src/ and configs/.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import check
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from g2twistor import cli
    finally:
        sys.path.remove(str(ROOT / "src"))
    return cli


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace and workload == "integrability":
        assert values["forms.transform.calls"] == 0
        assert values["fields.point_data.hit_ratio"] == 0
    if trace and workload == "twistor":
        assert values["fields.point_data.hit_ratio"] > 0


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "twistor", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_flipped_expected_verdict_fails(cli, tmp_path):
    import child

    cfg = cli.parse_config(ROOT / "configs" / "integrability.cfg")
    cfg = replace(cfg, samples=4, out=str(tmp_path))
    assert child.run_once(cli, cfg)[1] == []
    flipped = replace(cfg, expect={"integrability": "holonomy-g2"})
    errors = child.run_once(cli, flipped)[1]
    assert any("verdict integrability" in e for e in errors)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_perturbed_reference_residual_fails(workload):
    body = check.reference_body(workload)
    assert check.residual_errors(body, body) == []
    lines = body.splitlines()
    cells = lines[1].split(",")
    value = float(cells[-1])
    for rel, ok in [(1e-14, True), (1e-9, False)]:
        cells[-1] = repr(value * (1.0 + rel))
        moved = "\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n"
        assert (check.residual_errors(moved, body) == []) == ok, rel


def test_tracer_patches_aliases_and_restores(cli):
    from g2twistor import fields, forms, pointwise, twistor

    originals = (twistor.christoffel, pointwise.transform, cli.transform, fields.StructureField.point_data)
    t = tracer.install()
    try:
        assert twistor.christoffel is fields.christoffel is not originals[0]
        assert pointwise.transform is forms.transform is cli.transform is not originals[1]
        assert fields.StructureField.point_data is not originals[3]
    finally:
        t.restore()
    assert (twistor.christoffel, pointwise.transform, cli.transform, fields.StructureField.point_data) == originals


def test_layer_metrics_self_time_and_misses():
    spans = [
        (1, 0, "pointwise.G2Point.from_rho", 1.0, 2.0),
        (0, -1, "fields.point_data", 0.0, 3.0),
        (2, -1, "fields.point_data", 3.0, 3.5),
        (4, 3, "fields.calibrate_integrability", 4.0, 6.0),
        (5, 3, "cli.write_reports", 7.0, 7.5),
        (3, -1, "cli.run_campaign", 3.5, 10.0),
    ]
    m = tracer.layer_metrics(spans)
    assert m["fields.point_data.calls"] == 2
    assert m["fields.point_data.self_s"] == pytest.approx(2.5)
    assert m["fields.point_data.misses"] == 1
    assert m["fields.point_data.hit_ratio"] == pytest.approx(0.5)
    assert m["fields.calibrate_integrability.s"] == pytest.approx(2.0)
    assert m["cli.sample_loop.s"] == pytest.approx(6.5 - 2.5)
