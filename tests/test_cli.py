import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import g2twistor
from g2twistor import instanton, twistor
from g2twistor.cli import (
    _SCALAR_KEYS,
    ConfigError,
    RunConfig,
    main,
    parse_config,
    run_campaign,
)


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv_body(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# timestamp:")
    return "\n".join(lines[1:])


# ---------------------------------------------------------------------------
# config parsing


def test_parse_minimal_config(tmp_path):
    cfg = parse_config(
        write_cfg(
            tmp_path,
            """
            campaign = twistor           # campaign name
            generator = generic-perturbed
            epsilon = 0.1
            frequency = 1 0 0 0 0 0 0
            resolution = 16
            samples = 4
            seed = 7
            expect_involutivity = non-involutive
            """,
        )
    )
    assert cfg.campaign == "twistor"
    assert cfg.epsilon == 0.1
    assert cfg.expect == {"involutivity": "non-involutive"}
    cfg.validate()


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, "campagne = twistor\n"))


def test_unknown_generator_rejected(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "campaign = twistor\ngenerator = vortex\n"))
    with pytest.raises(ConfigError):
        cfg.validate()


def test_bad_resolution_rejected():
    with pytest.raises(ConfigError):
        RunConfig(campaign="twistor", resolution=17).validate()


def test_unreadable_config_is_usage_error(tmp_path):
    assert main(["--config", str(tmp_path / "missing.cfg")]) == 2


@pytest.mark.parametrize(
    "lines, flags",
    [
        ("samples = abc", []),
        ("frequency = 1 0 x", []),
        ("resolution = 16.5", []),
        ("", ["--seed", "-1"]),
        ("epsilon = nan", []),
        ("mix = inf", []),
        ("connection = nope", []),
        ("connection_vector = 7", []),
        ("connection_index = 14", []),
        ("connection_index = -1", []),
        ("workers = 0", []),
        ("", ["--workers", "0"]),
        ("expect_instantn = yes", []),
        ("expect_involutivity = involutive", []),
        ("expect_instanton = maybe", []),
        # fields that leave the G2 stratum at some sample point
        ("campaign = integrability\ngenerator = generic-perturbed\nepsilon = 2", []),
        ("campaign = integrability\ngenerator = closed-perturbed\nepsilon = 2", []),
        ("campaign = integrability\ngenerator = conformal\nepsilon = 50", []),
        ("campaign = integrability\ngenerator = generic-perturbed\nepsilon = 1e300", []),
        ("campaign = integrability\ngenerator = conformal\nepsilon = 1e300", []),
    ],
)
def test_bad_input_is_one_line_usage_error(tmp_path, capsys, lines, flags):
    path = write_cfg(tmp_path, f"campaign = instanton\nsamples = 2\n{lines}\n")
    assert main(["--config", path, "--out", str(tmp_path / "out")] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["file", "below-file"])
def test_unwritable_out_is_one_line_usage_error(tmp_path, capsys, out):
    """An --out that is an existing file, or lies below one, ends in one
    output error line and the usage exit code, not a traceback and not the
    verdict-mismatch code."""
    (tmp_path / "afile").write_text("keep\n")
    args = ["--campaign", "integrability", "--samples", "3", "--out", str(tmp_path / out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ")
    assert err.count("\n") == 1
    assert (tmp_path / "afile").read_text() == "keep\n"


def test_unallocatable_sample_count_is_one_line_usage_error(tmp_path, capsys):
    """A sample count whose point stacks numpy refuses to allocate (7 PiB:
    refused at once, nothing allocated) ends in one memory error line and the
    usage exit code, not a traceback and not the verdict-mismatch code."""
    cfg = str(Path(__file__).resolve().parents[1] / "configs" / "twistor-perturbed.cfg")
    args = ["--config", cfg, "--samples", "1000000000000000", "--out", str(tmp_path / "out")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("memory error: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_overflowing_generator_prints_one_line(tmp_path):
    """The module entry point, numpy's warning printer included, writes
    exactly the one config error line."""
    path = write_cfg(
        tmp_path, "campaign = integrability\ngenerator = conformal\nepsilon = 1e300\nsamples = 2\n"
    )
    src = str(Path(g2twistor.__file__).resolve().parents[1])
    path_entries = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries)))
    proc = subprocess.run(
        [sys.executable, "-m", "g2twistor.cli", "--config", path, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: ")
    assert proc.stderr.count("\n") == 1


_CONFIG_LINE = st.tuples(
    st.sampled_from(sorted(_SCALAR_KEYS) + ["frequency", "expect_x", "junk"]),
    st.text(max_size=12),
).map(lambda kv: f"{kv[0]} = {kv[1]}")


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(), st.lists(_CONFIG_LINE, max_size=6).map("\n".join)))
def test_parse_config_fuzz(tmp_path_factory, text):
    """Any text either parses to a RunConfig or raises ConfigError."""
    path = tmp_path_factory.mktemp("fuzz") / "run.cfg"
    path.write_text(text, encoding="utf-8")
    try:
        assert isinstance(parse_config(str(path)), RunConfig)
    except ConfigError:
        pass


# ---------------------------------------------------------------------------
# campaigns and exit codes


def test_pointwise_campaign_reports_stabilizer(tmp_path):
    out = tmp_path / "pw"
    status = main(
        ["--campaign", "pointwise", "--samples", "20", "--out", str(out), "--seed", "1"]
    )
    assert status == 0
    summary = (out / "summary.txt").read_text()
    assert "stabilizer_dim: 14" in summary
    assert "verdict: pass" in summary
    assert (out / "g2point.txt").exists()


def test_pointwise_artifact_round_trips(tmp_path):
    import numpy as np

    from g2twistor.pointwise import standard_g2_point
    from g2twistor.serialize import g2point_from_text

    out = tmp_path / "pw2"
    assert main(["--campaign", "pointwise", "--samples", "5", "--out", str(out)]) == 0
    loaded = g2point_from_text((out / "g2point.txt").read_text())
    std = standard_g2_point()
    assert np.array_equal(loaded.rho.coeffs, std.rho.coeffs)
    assert np.array_equal(loaded.metric.entries, std.metric.entries)


def test_twistor_flat_expectation_met(tmp_path):
    cfg = RunConfig(
        campaign="twistor",
        generator="flat",
        samples=4,
        seed=3,
        out=str(tmp_path / "tw"),
        expect={"involutivity": "involutive"},
    )
    assert run_campaign(cfg) == 0


def test_twistor_perturbed_expectation_met(tmp_path):
    cfg = RunConfig(
        campaign="twistor",
        generator="generic-perturbed",
        epsilon=0.1,
        samples=4,
        seed=3,
        out=str(tmp_path / "tw2"),
        expect={"involutivity": "non-involutive"},
    )
    assert run_campaign(cfg) == 0


def test_verdict_mismatch_is_nonzero_exit(tmp_path, capsys):
    cfg = RunConfig(
        campaign="twistor",
        generator="flat",
        samples=3,
        seed=3,
        out=str(tmp_path / "tw3"),
        expect={"involutivity": "non-involutive"},
    )
    assert run_campaign(cfg) == 1
    err = capsys.readouterr().err
    assert "expected involutivity = non-involutive" in err


def test_integrability_campaign(tmp_path):
    cfg = RunConfig(
        campaign="integrability",
        generator="closed-perturbed",
        epsilon=0.05,
        samples=6,
        seed=2,
        out=str(tmp_path / "ig"),
        expect={"integrability": "not-holonomy-g2"},
    )
    assert run_campaign(cfg) == 0


def test_instanton_campaign_verdicts(tmp_path):
    cfg = RunConfig(
        campaign="instanton",
        connection="const-7",
        samples=5,
        seed=2,
        out=str(tmp_path / "ins"),
        expect={"instanton": "no", "cr_holomorphic": "no"},
    )
    assert run_campaign(cfg) == 0


def test_instanton_campaign_evaluates_each_curvature_once(tmp_path, monkeypatch):
    """One connection-curvature call per sample serves both the CR and the
    7-part residual."""
    calls = []
    curvature = instanton.ConnectionData.curvature

    def counted(self, p, h):
        calls.append(1)
        return curvature(self, p, h)

    monkeypatch.setattr(instanton.ConnectionData, "curvature", counted)
    config = Path(__file__).resolve().parents[1] / "configs" / "instanton.cfg"
    out = tmp_path / "ins"
    assert main(["--config", str(config), "--samples", "16", "--seed", "5", "--out", str(out)]) == 0
    assert len(calls) == 16


def test_determinism_and_worker_independence(tmp_path):
    base = dict(campaign="twistor", generator="generic-perturbed", epsilon=0.05,
                samples=5, seed=11)
    a = RunConfig(out=str(tmp_path / "a"), **base)
    b = RunConfig(out=str(tmp_path / "b"), **base)
    c = RunConfig(out=str(tmp_path / "c"), workers=3, **base)
    for cfg in (a, b, c):
        assert run_campaign(cfg) == 0
    body_a = read_csv_body(tmp_path / "a" / "samples.csv")
    body_b = read_csv_body(tmp_path / "b" / "samples.csv")
    body_c = read_csv_body(tmp_path / "c" / "samples.csv")
    assert body_a == body_b
    assert body_a == body_c


@pytest.mark.parametrize("expect", [{}, {"pointwise": "pass"}])
def test_all_campaign_writes_subreports(tmp_path, expect):
    cfg = RunConfig(campaign="all", generator="flat", samples=3, seed=1,
                    out=str(tmp_path / "all"), expect=expect)
    status = run_campaign(cfg)
    assert status == 0
    for name in ("pointwise", "integrability", "twistor", "instanton"):
        assert (tmp_path / "all" / name / "summary.txt").exists()


def test_config_echoed_in_summary(tmp_path):
    out = tmp_path / "echo"
    cfg = RunConfig(campaign="integrability", generator="flat", samples=3,
                    seed=9, out=str(out))
    run_campaign(cfg)
    summary = (out / "summary.txt").read_text()
    for needle in ("generator: flat", "samples: 3", "seed: 9", "resolution: 16"):
        assert needle in summary


def test_twistor_campaign_reports_the_flat_floor_without_rescanning(tmp_path, monkeypatch):
    """The flat floor is the constant clamp: a twistor campaign builds no flat
    field and runs no flat scan, and its verdict rule is unchanged."""

    def no_flat_scan(*args, **kwargs):
        raise AssertionError("the campaign rescanned the flat structure")

    monkeypatch.setattr(twistor, "flat_noise_floor", no_flat_scan)
    config = Path(__file__).resolve().parents[1] / "configs" / "twistor-perturbed.cfg"
    out = tmp_path / "tw"
    assert main(["--config", str(config), "--samples", "3", "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text().splitlines()
    assert "noise_floor: 1e-14" in summary
    assert "threshold: 1e-09" in summary
