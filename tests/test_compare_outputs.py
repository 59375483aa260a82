import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)

SAMPLES = "sample,residual\n0,0.125\n1,0.25\n"
RESULTS = "[results]\nmax_residual: 0.25\nverdict: non-involutive\n"


def write_run(run, stamp, samples=SAMPLES, config="seed: 0\n", results=RESULTS):
    run.mkdir(parents=True)
    (run / "samples.csv").write_text(f"# timestamp: {stamp}\n{samples}")
    (run / "summary.txt").write_text(f"# timestamp: {stamp}\n[config]\n{config}{results}")


def test_timestamps_and_config_echo_are_not_compared(tmp_path):
    write_run(tmp_path / "parent", "2026-01-01T00:00:00")
    write_run(tmp_path / "change", "2026-01-02T12:30:00", config="seed: 0\nworkers: 2\n")
    assert compare_outputs.differing_files(tmp_path / "parent", tmp_path / "change") == []


@pytest.mark.parametrize(
    "change, names",
    [
        ({"samples": SAMPLES.replace("0.25", "0.25000000000000006")}, ["samples.csv"]),
        ({"results": RESULTS.replace("non-involutive", "involutive")}, ["summary.txt"]),
        ({"samples": SAMPLES + "2,0.5\n", "results": RESULTS + "samples: 3\n"}, ["samples.csv", "summary.txt"]),
    ],
    ids=["last-bit", "verdict", "both"],
)
def test_each_differing_report_is_named(tmp_path, change, names):
    write_run(tmp_path / "parent", "2026-01-01T00:00:00")
    write_run(tmp_path / "change", "2026-01-01T00:00:00", **change)
    assert compare_outputs.differing_files(tmp_path / "parent", tmp_path / "change") == names


def test_a_missing_report_differs(tmp_path):
    write_run(tmp_path / "parent", "2026-01-01T00:00:00")
    write_run(tmp_path / "change", "2026-01-01T00:00:00")
    (tmp_path / "change" / "summary.txt").unlink()
    assert compare_outputs.differing_files(tmp_path / "parent", tmp_path / "change") == ["summary.txt"]


def test_a_changed_g2point_is_reported(tmp_path):
    """The pointwise campaign's g2point.txt is compared whole, and a report
    that neither run wrote is not counted."""
    write_run(tmp_path / "parent", "2026-01-01T00:00:00")
    write_run(tmp_path / "change", "2026-01-01T00:00:00")
    assert compare_outputs.written_reports(tmp_path / "parent", tmp_path / "change") == ["samples.csv", "summary.txt"]
    point = "g2point\norientation 1\nrho\n1 2 3 1.0\nend\n"
    (tmp_path / "parent" / "g2point.txt").write_text(point)
    (tmp_path / "change" / "g2point.txt").write_text(point.replace("1.0", "1.0000000000000002"))
    assert compare_outputs.differing_files(tmp_path / "parent", tmp_path / "change") == ["g2point.txt"]
    assert compare_outputs.movements(tmp_path / "parent", tmp_path / "change", "g2point.txt") == [
        "1 2 3 1.0 -> 1 2 3 1.0000000000000002"
    ]


def test_frequency_line_is_replaced_once():
    text = "campaign = twistor\nfrequency = 1 0 0 0 0 0 0\nseed = 0\n"
    assert compare_outputs.with_settings(text, {"frequency": "1 2 3 4 5 6 7"}) == (
        "campaign = twistor\nfrequency = 1 2 3 4 5 6 7\nseed = 0\n"
    )
    with pytest.raises(SystemExit):
        compare_outputs.with_settings("frequency = 1\nfrequency = 2\n", {"frequency": "1 2 3 4 5 6 7"})


def test_missing_settings_are_appended():
    """The instanton config has no frequency line: the key is appended, after
    a newline the text may lack, and keys it has are replaced in place."""
    settings = {"generator": "generic-perturbed", "epsilon": "0.1", "frequency": "1 2 3 4 5 6 7"}
    text = "campaign = instanton\ngenerator = flat\nseed = 0"
    assert compare_outputs.with_settings(text, settings) == (
        "campaign = instanton\ngenerator = generic-perturbed\nseed = 0\n"
        "epsilon = 0.1\nfrequency = 1 2 3 4 5 6 7\n"
    )


def test_every_config_runs_at_three_seeds_and_two_off_axis():
    """Each config at three seeds, then the six variants at three seeds each:
    (1, ..., 7) for three configs, (1, 0, 2, 0, 0, 3, 0) for two, the conformal field."""
    runs = compare_outputs.runs(["instanton", "twistor-perturbed"])
    labels = [label for label, *_ in runs]
    assert labels[:3] == ["instanton-seed0", "instanton-seed5", "instanton-seed7"]
    assert len(labels) == len(set(labels)) == 2 * 3 + 6 * 3
    assert "twistor-perturbed-conformal-seed0" in labels
    assert "integrability-f1234567-seed5" in labels
    assert "instanton-generic-f1234567-seed7" in labels
    mixed = {label: kv for label, _, kv, _ in runs if "f1020030" in label}
    stems = ("integrability", "twistor-perturbed")
    assert sorted(mixed) == [f"{stem}-f1020030-seed{seed}" for stem in stems for seed in (0, 5, 7)]
    assert all(kv == {"frequency": "1 0 2 0 0 3 0"} for kv in mixed.values())


@pytest.mark.parametrize(
    "returncode, stderr, want",
    [
        (0, "", False),
        (1, "verdict mismatch:\n- expected instanton = no\n+ got      instanton = yes\n", False),
        (1, "Traceback (most recent call last):\n  ...\nValueError: boom\n", True),
        (2, "config error: unknown campaign 'x'\n", True),
    ],
    ids=["pass", "verdict-mismatch", "traceback", "usage-error"],
)
def test_only_a_verdict_mismatch_counts_as_a_run(returncode, stderr, want):
    """An uncaught error also exits 1; only the verdict-mismatch exit is a run whose reports compare."""
    assert compare_outputs.failed(returncode, stderr) is want


def test_moved_columns_give_their_largest_relative_change(tmp_path):
    samples = "a,b,c\n1.0,2.0,x\n4.0,0.0,y\n"
    moved = "a,b,c\n1.0,2.0000000000000004,x\n4.000000000000001,1e-300,y\n"
    write_run(tmp_path / "parent", "2026-01-01T00:00:00", samples=samples)
    write_run(tmp_path / "change", "2026-01-02T00:00:00", samples=moved)
    lines = compare_outputs.movements(tmp_path / "parent", tmp_path / "change", "samples.csv")
    assert lines == [
        "b: largest relative change inf, in 2 of 2 rows",
        "a: largest relative change 2.22e-16, in 1 of 2 rows",
    ]


def test_a_changed_row_count_or_header_is_reported(tmp_path):
    write_run(tmp_path / "parent", "2026-01-01T00:00:00")
    write_run(tmp_path / "change", "2026-01-01T00:00:00", samples=SAMPLES + "2,0.5\n")
    lines = compare_outputs.movements(tmp_path / "parent", tmp_path / "change", "samples.csv")
    assert lines == ["header or row count differs: 2 -> 3 rows"]


def test_changed_summary_lines_read_old_to_new(tmp_path):
    results = RESULTS.replace("0.25", "0.25000000000000006") + "noise_floor: 1e-14\n"
    write_run(tmp_path / "parent", "2026-01-01T00:00:00")
    write_run(tmp_path / "change", "2026-01-01T00:00:00", config="seed: 0\nworkers: 2\n", results=results)
    assert compare_outputs.movements(tmp_path / "parent", tmp_path / "change", "summary.txt") == [
        "max_residual: 0.25 -> max_residual: 0.25000000000000006",
        "(none) -> noise_floor: 1e-14",
    ]


def test_a_missing_report_is_named_with_its_side(tmp_path):
    write_run(tmp_path / "parent", "2026-01-01T00:00:00")
    write_run(tmp_path / "change", "2026-01-01T00:00:00")
    (tmp_path / "parent" / "samples.csv").unlink()
    lines = compare_outputs.movements(tmp_path / "parent", tmp_path / "change", "samples.csv")
    assert lines == ["missing in the parent run"]
