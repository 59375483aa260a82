"""Batch driver: parse a config, run a verification campaign, emit reports.

Campaigns
---------
pointwise      single-point algebra checks (stabilizer dimension, induced
               metric, 2-form projectors, quaternion relations)
integrability  torsion scan of a structure field: max |d rho|, |d *rho|
twistor        involutivity scan of the CR distribution over sampled
               sphere-bundle points
instanton      curvature-type and CR residual scan for a named connection
all            every campaign into one output directory

Reports: summary.txt ('key: value' lines, config echoed verbatim) and
samples.csv (per-sample rows; first line is a timestamp comment, the rest
is byte-reproducible for a fixed config and seed).  Samples run on one
thread; the integrability, twistor and instanton scans take them in blocks
of ``twistor.BLOCK``, each block in batched array passes whose rows equal
the one-sample computation bit for bit, so no output byte depends on the block.
A twistor or instanton block is one `TwistorPoints` record of arrays.
Verdict thresholds are constants, not config keys: `twistor.INVOLUTIVE_TOL`,
`instanton.F7_TOL` and `instanton.CR_TOL`, and tau(N) of `fields.calibrate_integrability`.
``workers`` is validated and echoed in summary.txt but changes neither the
output nor the code path.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field as dc_field, fields as dc_fields, replace
from pathlib import Path

import numpy as np

from . import fields as flds
from . import instanton as inst
from . import twistor as tw
from .pointwise import (
    G2StructureError,
    hodge_type_on_complement,
    octonion_multiply,
    standard_g2_point,
)
from .forms import KForm, NotPositiveDefinite, annihilator_dimension, transform
from .sampling import sphere_bundle_samples, torus_points
from .serialize import g2point_to_text

CAMPAIGNS = ("pointwise", "integrability", "twistor", "instanton", "all")
RESOLUTIONS = (8, 16, 32, 64)

USAGE_ERROR = 2
VERDICT_MISMATCH = 1

#: verdict names each campaign reports, with their possible values
VERDICTS = {
    "pointwise": {"pointwise": ("pass", "fail")},
    "integrability": {"integrability": ("holonomy-g2", "not-holonomy-g2")},
    "twistor": {"involutivity": ("involutive", "non-involutive")},
    "instanton": {"instanton": ("yes", "no"), "cr_holomorphic": ("yes", "no")},
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    campaign: str = "pointwise"
    generator: str = "flat"
    epsilon: float = 0.0
    frequency: tuple = (1, 0, 0, 0, 0, 0, 0)
    resolution: int = 16
    samples: int = 100
    seed: int = 0
    workers: int = 1
    out: str = "runs/out"
    connection: str = "const-14"
    connection_index: int = 0
    connection_vector: int = 0
    mix: float = 0.0
    expect: dict = dc_field(default_factory=dict)

    def validate(self):
        if self.campaign not in CAMPAIGNS:
            raise ConfigError(f"unknown campaign {self.campaign!r}")
        if self.resolution not in RESOLUTIONS:
            raise ConfigError(f"resolution must be one of {RESOLUTIONS}")
        if self.samples < 1:
            raise ConfigError("sample count must be >= 1")
        if self.generator not in flds.GENERATORS:
            raise ConfigError(f"unknown generator key {self.generator!r}")
        if len(self.frequency) != 7:
            raise ConfigError("frequency must have 7 entries")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        for key in ("epsilon", "mix"):
            if not np.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite")
        if self.connection not in inst.CONNECTION_FAMILIES:
            raise ConfigError(f"unknown connection family {self.connection!r}")
        if not 0 <= self.connection_index < 14:
            raise ConfigError("connection_index must be in 0..13")
        if not 0 <= self.connection_vector < 7:
            raise ConfigError("connection_vector must be in 0..6")
        allowed = {}
        for name in VERDICTS if self.campaign == "all" else (self.campaign,):
            allowed.update(VERDICTS[name])
        for key, value in self.expect.items():
            if key not in allowed:
                raise ConfigError(f"campaign {self.campaign!r} has no verdict {key!r}")
            if value not in allowed[key]:
                raise ConfigError(f"expect_{key} must be one of {allowed[key]}")
        return self


# field annotations are strings under `from __future__ import annotations`
_SCALAR_TYPES = {"str": str, "int": int, "float": float}
_SCALAR_KEYS = {
    f.name: _SCALAR_TYPES[f.type] for f in dc_fields(RunConfig) if f.type in _SCALAR_TYPES
}


def parse_config(path):
    """Read a 'key = value' file; '#' starts a comment; unknown keys fail."""
    raw = {}
    expect = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if key.startswith("expect_"):
            expect[key[len("expect_") :]] = value
            continue
        if key != "frequency" and key not in _SCALAR_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            if key == "frequency":
                raw[key] = tuple(int(t) for t in value.replace(",", " ").split())
            else:
                raw[key] = _SCALAR_KEYS[key](value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value {value!r} for {key!r}") from None
    raw["expect"] = expect
    return RunConfig(**raw)


# ---------------------------------------------------------------------------
# report writing


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def write_reports(outdir, cfg, summary, header, rows):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    csv_lines = [f"# timestamp: {stamp}", ",".join(header)]
    for row in rows:
        csv_lines.append(",".join(_fmt(v) for v in row))
    (outdir / "samples.csv").write_text("\n".join(csv_lines) + "\n")

    lines = [f"# timestamp: {stamp}", "[config]"]
    for key in sorted(_SCALAR_KEYS):
        lines.append(f"{key}: {_fmt(getattr(cfg, key))}")
    lines.append(f"frequency: {' '.join(str(f) for f in cfg.frequency)}")
    for k, v in sorted(cfg.expect.items()):
        lines.append(f"expect_{k}: {v}")
    lines.append("[results]")
    for k in sorted(summary):
        lines.append(f"{k}: {_fmt(summary[k])}")
    (outdir / "summary.txt").write_text("\n".join(lines) + "\n")


def _percentile(values, q):
    return float(np.percentile(np.asarray(values), q)) if len(values) else 0.0


# ---------------------------------------------------------------------------
# campaigns

#: leading csv columns of a sample: base point m, then fiber vector x
_MX_HEADER = tuple(f"m{i + 1}" for i in range(7)) + tuple(f"x{i + 1}" for i in range(7))


def run_pointwise(cfg):
    rng = np.random.default_rng(cfg.seed)
    point = standard_g2_point()

    dims = [annihilator_dimension(point.rho)]
    for _ in range(10):
        A = rng.standard_normal((7, 7))
        while np.linalg.cond(A) > 50:
            A = rng.standard_normal((7, 7))
        dims.append(annihilator_dimension(transform(point.rho, A)))
    stab_ok = all(d == 14 for d in dims)

    metric_residual = float(np.abs(point.g - np.eye(7)).max())
    P7, P14 = point.lambda2_projectors
    proj_residual = float(max(np.abs(P7 + P14 - np.eye(21)).max(), np.abs(P7 @ P14).max()))
    ranks = (round(np.trace(P7)), round(np.trace(P14)))

    quat = 0.0
    crossnorm = 0.0
    for _ in range(cfg.samples):
        v = rng.standard_normal(7)
        v /= np.linalg.norm(v)
        vp = rng.standard_normal(7)
        vp -= v * (v @ vp)
        vp /= np.linalg.norm(vp)
        k = point.cross(v, vp)
        for a in (v, vp, k):
            _, s = octonion_multiply(point, (a, 0.0), (a, 0.0))
            quat = max(quat, abs(s + 1.0))
        ij, s = octonion_multiply(point, (v, 0.0), (vp, 0.0))
        quat = max(quat, float(np.abs(ij - k).max()), abs(s))
        x, y = rng.standard_normal(7), rng.standard_normal(7)
        w = point.cross(x, y)
        lhs = point.metric.inner(w, w)
        rhs = point.metric.inner(x, x) * point.metric.inner(y, y) - point.metric.inner(x, y) ** 2
        crossnorm = max(crossnorm, abs(lhs - rhs))

    omega_orth = 0.0
    for c in range(14):
        b = KForm(7, 2, point.lambda2_basis_14[:, c])
        for _ in range(5):
            v = rng.standard_normal(7)
            v /= np.linalg.norm(v)
            _, _, om = hodge_type_on_complement(point, b, v)
            omega_orth = max(omega_orth, abs(om))

    rows = [
        ("stabilizer_dim_min", min(dims)),
        ("metric_identity", metric_residual),
        ("projector_identity", proj_residual),
        ("quaternion", quat),
        ("cross_norm", crossnorm),
        ("omega_orthogonality", omega_orth),
    ]

    ok = (
        stab_ok
        and metric_residual < 1e-12
        and proj_residual < 1e-9
        and ranks == (7, 14)
        and quat < 1e-10
        and crossnorm < 1e-10
        and omega_orth < 1e-9
    )
    summary = {
        "stabilizer_dim": dims[0],
        "stabilizer_dim_transported_min": min(dims[1:]),
        "metric_identity_residual": metric_residual,
        "projector_identity_residual": proj_residual,
        "rank_7": ranks[0],
        "rank_14": ranks[1],
        "quaternion_residual": quat,
        "cross_norm_residual": crossnorm,
        "omega_orthogonality_residual": omega_orth,
        "verdict": "pass" if ok else "fail",
    }
    artifacts = {"g2point.txt": g2point_to_text(point)}
    return summary, ("check", "value"), rows, {"pointwise": summary["verdict"]}, artifacts


def run_integrability(cfg):
    field = flds.make_field(cfg.generator, cfg.resolution, cfg.epsilon, cfg.frequency)
    points = torus_points(cfg.samples, cfg.seed)
    integrable, d_max, s_max, tau, results = flds.integrability_verdict(field, points)
    rows = [tuple(p) + r for p, r in zip(points, results)]
    verdict = "holonomy-g2" if integrable else "not-holonomy-g2"
    summary = {
        "max_d_rho": d_max,
        "max_d_star_rho": s_max,
        "tau": tau,
        "verdict": verdict,
    }
    header = _MX_HEADER[:7] + ("d_rho", "d_star_rho")
    return summary, header, rows, {"integrability": verdict}, {}


def run_twistor(cfg):
    field = flds.make_field(cfg.generator, cfg.resolution, cfg.epsilon, cfg.frequency)
    ms, xs = sphere_bundle_samples(cfg.samples, cfg.seed)
    results = []
    for block in tw.blocks(cfg.samples):
        tps = tw.twistor_points(field, ms[block], xs[block])
        seeds = range(cfg.seed + block.start, cfg.seed + block.start + len(tps))
        columns = zip(
            tw.involutivity_residuals(field, tps),
            tw.vertical_curvature_obstructions(field, tps),
            tw.omega_closure_residuals(field, tps, seeds, max_combos=5),
        )
        results += [tuple(m) + tuple(x) + r for m, x, r in zip(tps.m, tps.x, columns)]
    invols = [r[14] for r in results]
    verdict = "involutive" if max(invols) <= tw.INVOLUTIVE_TOL else "non-involutive"
    summary = {
        "max_involutivity": max(invols),
        "p95_involutivity": _percentile(invols, 95),
        "max_vertical_curvature": max(r[15] for r in results),
        "max_omega_closure": max(r[16] for r in results),
        "noise_floor": tw.FLAT_FLOOR,
        "threshold": tw.INVOLUTIVE_TOL,
        "verdict": verdict,
    }
    header = _MX_HEADER + ("involutivity", "vertical_curvature", "omega_closure")
    return summary, header, results, {"involutivity": verdict}, {}


def _instanton_rows(field, conn, M, X):
    """(m, x, cr, f7) rows of one block; its frames are freed before the next block."""
    tps = tw.twistor_points(field, M, X)
    F = np.array([conn.curvature(m, field.h) for m in tps.m])
    columns = zip(
        inst.cr_holomorphicity_residuals(tps, F),
        inst.f7_residuals(tps.rho, tps.g, tps.ginv, tps.vol, F),
    )
    return [tuple(m) + tuple(x) + r for m, x, r in zip(tps.m, tps.x, columns)]


def run_instanton(cfg):
    field = flds.make_field(cfg.generator, cfg.resolution, cfg.epsilon, cfg.frequency)
    point = standard_g2_point()
    conn = inst.make_connection(
        cfg.connection,
        point,
        index=cfg.connection_index,
        vector=cfg.connection_vector,
        mix=cfg.mix,
    )
    ms, xs = sphere_bundle_samples(cfg.samples, cfg.seed)

    results = [r for b in tw.blocks(cfg.samples) for r in _instanton_rows(field, conn, ms[b], xs[b])]
    cr_max = max(r[14] for r in results)
    f7_max = max(r[15] for r in results)
    verdicts = {
        "instanton": "yes" if f7_max <= inst.F7_TOL else "no",
        "cr_holomorphic": "yes" if cr_max <= inst.CR_TOL else "no",
    }
    summary = {
        "connection": conn.label,
        "max_cr_residual": cr_max,
        "p95_cr_residual": _percentile([r[14] for r in results], 95),
        "max_f7_residual": f7_max,
        "verdict_instanton": verdicts["instanton"],
        "verdict_cr_holomorphic": verdicts["cr_holomorphic"],
    }
    header = _MX_HEADER + ("cr_residual", "f7_residual")
    return summary, header, results, verdicts, {}


RUNNERS = {
    "pointwise": run_pointwise,
    "integrability": run_integrability,
    "twistor": run_twistor,
    "instanton": run_instanton,
}


def run_campaign(cfg):
    """Execute the configured campaign; returns the exit status."""
    cfg.validate()
    if cfg.campaign == "all":
        status = 0
        for name, runner in RUNNERS.items():
            expect = {k: v for k, v in cfg.expect.items() if k in VERDICTS[name]}
            sub = replace(cfg, campaign=name, out=str(Path(cfg.out) / name), expect=expect)
            status = max(status, _run_one(sub, runner))
        return status
    return _run_one(cfg, RUNNERS[cfg.campaign])


def _run_one(cfg, runner):
    summary, header, rows, verdicts, artifacts = runner(cfg)
    write_reports(cfg.out, cfg, summary, header, rows)
    outdir = Path(cfg.out)
    for name, text in artifacts.items():
        (outdir / name).write_text(text)
    mismatches = [
        f"- expected {key} = {expected}\n+ got      {key} = {verdicts[key]}"
        for key, expected in cfg.expect.items()
        if verdicts[key] != expected
    ]
    if mismatches:
        sys.stderr.write("verdict mismatch:\n" + "\n".join(mismatches) + "\n")
        return VERDICT_MISMATCH
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="g2twistor", description="verification campaigns for G2 twistor geometry"
    )
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--campaign", choices=CAMPAIGNS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--samples", type=int)
    parser.add_argument("--out")
    parser.add_argument("--workers", type=int)
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config) if args.config else RunConfig()
        for key in ("campaign", "seed", "samples", "out", "workers"):
            val = getattr(args, key)
            if val is not None:
                cfg = replace(cfg, **{key: val})
        return run_campaign(cfg)
    except (ConfigError, G2StructureError, NotPositiveDefinite) as exc:
        # a generator that leaves the G2 stratum is a bad config, not a verdict
        sys.stderr.write(f"config error: {exc}\n")
        return USAGE_ERROR
    except OSError as exc:
        # an --out that names a file, or lies below one, cannot hold the reports
        sys.stderr.write(f"output error: {exc}\n")
        return USAGE_ERROR
    except MemoryError as exc:
        # a sample count whose stacks cannot be allocated is a bad request, not a verdict
        sys.stderr.write(f"memory error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
