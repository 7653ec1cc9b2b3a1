"""Pre-smoothing without a dense kernel matrix or SciPy.

The blocked kernel sum must equal the dense G x N formula bit for bit, the
error-function boundary weight must match the normal-CDF difference it
replaced, and importing the command line must load no SciPy module.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from repden.grid import Domain
from repden.presmooth import (
    BUDGET,
    DENSITY_FLOOR,
    KdeConfig,
    SubpopSample,
    boundary_weight,
    weighted_kde,
)

# largest G x N matrix the dense oracle may build (8 bytes each, a few alive)
ORACLE_CELLS = 1 << 22


def dense_kde(sample, cfg, domain):
    """The dense estimator: one G x N matrix of scaled distances."""
    t, h = domain.grid, cfg.bandwidth
    z = (t[:, None] - sample.obs[None, :]) / h
    ksum = np.exp(-0.5 * z * z).sum(axis=1) / np.sqrt(2.0 * np.pi)
    raw = ksum * boundary_weight(t, h, domain)
    raw = raw / (domain.trap_weights @ raw)
    vals = np.maximum(raw, DENSITY_FLOOR)
    return vals / (domain.trap_weights @ vals)


def _cases():
    for g in (16, 512, 8001):
        for n in (1, 2, 7, BUDGET // g - 1, BUDGET // g, BUDGET // g + 1,
                  BUDGET + 1, 3 * BUDGET + 5):
            if g * n <= ORACLE_CELLS:
                yield g, n


@pytest.mark.parametrize("g,n", sorted(set(_cases())))
def test_blocked_kernel_sum_equals_dense_formula(g, n):
    dom = Domain(-3.0, 3.0, g)
    rng = np.random.default_rng(g * 1000003 + n)
    obs = np.clip(rng.standard_t(4, size=n), -3.0, 3.0)
    sample = SubpopSample("s", obs)
    for h in (0.35, 0.02):
        got = weighted_kde(sample, KdeConfig(h), dom).values
        assert np.array_equal(got, dense_kde(sample, KdeConfig(h), dom))


def test_blocked_sum_with_very_small_bandwidth():
    # most kernel terms underflow to zero; one observation sits on a grid
    # point so every sum far from it is floored the same way in both codes
    dom = Domain(-1.0, 1.0, 512)
    obs = np.array([dom.grid[100], -0.3, 0.01, 0.5, 0.5 + 1e-9])
    sample = SubpopSample("s", obs)
    cfg = KdeConfig(1e-4)
    got = weighted_kde(sample, cfg, dom).values
    assert np.array_equal(got, dense_kde(sample, cfg, dom))
    assert got.min() > 0


@pytest.mark.parametrize("rel", np.geomspace(1e-4, 10.0, 25))
def test_boundary_weight_matches_normal_cdf_difference(rel):
    dom = Domain(-2.0, 5.0, 512)
    h = rel * (dom.hi - dom.lo)
    t = dom.grid
    expected = 1.0 / (ndtr((t - dom.lo) / h) - ndtr((t - dom.hi) / h))
    got = boundary_weight(t, h, dom)
    assert np.max(np.abs(got / expected - 1.0)) < 1e-14


@pytest.mark.parametrize("h", [1e-3, 0.1, 1.0, 50.0])
def test_boundary_weight_symmetric_about_midpoint(h):
    # dyadic domain and offsets: lo + u and hi - u are exact, so the two
    # mirror points see the same two error-function arguments
    dom = Domain(0.0, 8.0, 64)
    u = np.arange(0, 513) / 64.0
    left = boundary_weight(dom.lo + u, h, dom)
    right = boundary_weight(dom.hi - u, h, dom)
    assert np.array_equal(left, right)
    assert np.all(left >= 1.0)


def test_cli_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", "import repden.cli, sys; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"
