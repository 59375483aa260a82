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
