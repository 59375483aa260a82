"""The in-tree sampler returns scipy's scrambled Halton and ndtri bits, and
importing the command line loads no scipy module."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri as scipy_ndtri
from scipy.stats import qmc

import g2twistor
from g2twistor.sampling import _EPS, ndtri, sphere_bundle_samples, torus_points


@pytest.mark.parametrize("n", [1, 12, 200, 500])
@pytest.mark.parametrize("seed", [0, 1, 11, 12345, 2**63 + 5])
def test_sampler_matches_scipy(seed, n):
    assert np.array_equal(torus_points(n, seed), qmc.Halton(d=7, scramble=True, seed=seed).random(n))
    u = qmc.Halton(d=14, scramble=True, seed=seed).random(n)
    m, x = sphere_bundle_samples(n, seed)
    assert np.array_equal(m, u[:, :7])
    assert np.array_equal(x, scipy_ndtri(np.clip(u[:, 7:], _EPS, 1.0 - _EPS)))


def test_ndtri_matches_scipy():
    e2 = math.exp(-2.0)
    edges = [_EPS, 1.0 - _EPS, 0.5]
    edges += [np.nextafter(t, s) for t in (e2, 1.0 - e2) for s in (0.0, 1.0)]
    low = np.logspace(-12, np.log10(0.5), 10000)
    y = np.concatenate([edges, low, 1.0 - low])
    assert np.array_equal(ndtri(y), scipy_ndtri(y))
    # one stacked call equals the flat one, shape kept
    assert np.array_equal(ndtri(y[:600].reshape(20, 30)), scipy_ndtri(y[:600]).reshape(20, 30))


def test_cli_import_loads_no_scipy():
    src = str(Path(g2twistor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import g2twistor.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
