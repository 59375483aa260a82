import argparse
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_seed_list_expands_an_inclusive_range():
    assert bench_pairs.seed_list("21-30") == list(range(21, 31))
    assert bench_pairs.seed_list("7-7") == [7]


def test_seed_list_rejects_a_reversed_range():
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs.seed_list("30-21")


def test_seeds_option_exits_2_on_a_reversed_range(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD", "--change", "HEAD", "--workload", "twistor", "--seeds", "30-21", "--out", "x.json"])
    assert exc.value.code == 2
    assert "empty seed range '30-21'" in capsys.readouterr().err
