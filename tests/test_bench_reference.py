"""The benchmark's reference run of each workload, at seed 0 with its
check_samples, must reproduce reference/<workload>.csv to rounding; a change
that moves a reference residual fails here and not only in a benchmark run."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from g2twistor import cli

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"campaign_bench_{name}", ROOT / "campaign_bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = _load("check")
WORKLOADS = _load("run").WORKLOADS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_run_matches_the_committed_residuals(workload, tmp_path):
    w = WORKLOADS[workload]
    base = cli.parse_config(ROOT / w["config"])
    cfg = replace(base, seed=0, samples=w["check_samples"], workers=w["workers"], out=str(tmp_path))
    assert cli.run_campaign(cfg) == 0
    assert check.verdict_errors(check.read_summary(tmp_path / "summary.txt"), cfg.expect) == []
    body = check.csv_body(tmp_path / "samples.csv")
    assert check.residual_errors(body, check.reference_body(workload)) == []
