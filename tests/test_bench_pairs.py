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


@pytest.mark.parametrize(
    "printed",
    [
        "print('starting')\nprint('done')",
        "print('{\"metrics\": {}}')",
        "print('[1, 2]')",
        "print('{\"correct\": true}')",
    ],
)
def test_a_malformed_result_line_ends_in_one_line(tmp_path, printed):
    """A last line that is no result object, or one without "correct",
    "metrics", "attempted" or "failed", stops the script with one line naming
    the tree, the workload and the seed."""
    tree = tmp_path / "abc123"
    (tree / "campaign_bench").mkdir(parents=True)
    (tree / "campaign_bench" / "run.py").write_text(printed + "\n")
    with pytest.raises(SystemExit) as exc:
        bench_pairs.run_once(tree, "twistor", 7, 1)
    message = str(exc.value.code)
    assert message.startswith("abc123 twistor seed 7 failed")
    assert "\n" not in message


@pytest.mark.parametrize(
    "better, bound, parent, change, relative, within",
    [
        ("higher", 0.25, [100.0, 98.0, 102.0], [76.0, 74.0, 75.0], -0.25, True),
        ("higher", 0.25, [100.0, 98.0, 102.0], [74.0, 73.0, 75.0], -0.26, False),
        ("higher", 0.25, [100.0, 98.0, 102.0], [130.0, 128.0, 131.0], 0.3, True),
        ("lower", 0.05, [41.94, 41.9, 42.0], [45.87, 45.8, 45.9], 0.093705, False),
        ("lower", 0.05, [41.92, 41.9, 42.0], [43.32, 43.3, 43.4], 0.033397, True),
        ("lower", 0.25, [0.16, 0.15, 0.17], [0.12, 0.11, 0.13], -0.25, True),
        ("higher", 0.01, [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 0.0, True),
    ],
)
def test_summarize_flags_a_median_worse_than_the_bound(better, bound, parent, change, relative, within):
    """relative_change is (change - parent) / |parent| of the medians, and
    within_bound is false once the change's median is worse than the
    parent's by more than the bound."""
    m = bench_pairs.summarize({"parent": parent, "change": change}, better, bound)
    assert m["relative_change"] == pytest.approx(relative, abs=1e-6)
    assert m["within_bound"] is within
    line = bench_pairs.metric_line("twistor", "x", m, bound)
    assert line.endswith(f"REGRESSION (bound {bound:.0%})") is not within


def test_summarize_of_a_zero_parent_median_has_no_relative_change():
    m = bench_pairs.summarize({"parent": [0.0, 0.0], "change": [0.0, 0.0]}, "lower", 0.05)
    assert m["relative_change"] is None and m["within_bound"] is True
    m = bench_pairs.summarize({"parent": [0.0, 0.0], "change": [1.0, 1.0]}, "lower", 0.05)
    assert m["relative_change"] is None and m["within_bound"] is False
    assert bench_pairs.metric_line("w", "x", m, 0.05).endswith("REGRESSION (bound 5%)")
