"""``FitBatch.densities(density)`` is the one path from a batch of fits to
their densities: every fitted row once, in blocks of one truncation of at
most ``DENSITY_ROWS`` rows, failed rows left out, and each row's values the
bits of ``density`` applied to that row's ``theta`` alone."""

from functools import partial

import numpy as np
import pytest

from repden.estimators import DENSITY_ROWS, fit
from repden.expfam import density
from repden.logscale import density_original_scale, fit_original_scale, fit_scaled
from repden.presmooth import SubpopSample


def _check(fits, dens):
    """The blocks of ``fits.densities(dens)`` against ``dens`` of each row alone."""
    seen = []
    for rows, dom, values in fits.densities(dens):
        assert 1 <= rows.size <= DENSITY_ROWS and values.shape == (rows.size, dom.n_grid)
        k = fits.k[rows]
        assert np.all(k == k[0]) and k[0] > 0
        for i, v in zip(rows.tolist(), values):
            one = dens(fits.theta[i, :k[0]])
            assert one.domain == dom and np.array_equal(one.values, v)
        seen.extend(rows.tolist())
    ks = [int(fits.k[i]) for i in seen]
    assert ks == sorted(ks)
    assert len(seen) == len(set(seen))
    assert sorted(seen) == np.flatnonzero(fits.k > 0).tolist()
    return seen


def _mixed(rng, lo, hi, m):
    """``m`` samples inside ``[lo, hi]`` of varied size and spread, then one
    sample outside it, which fails."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    samples = [np.clip(rng.normal(mid + rng.uniform(-0.3, 0.3) * half,
                                  rng.uniform(0.1, 0.5) * half, rng.integers(5, 80)),
                       lo + 1e-3 * half, hi - 1e-3 * half) for _ in range(m)]
    return samples + [np.array([hi + half])]


@pytest.mark.parametrize("method", ["mle", "blup"])
def test_every_fitted_row_once_in_blocks_of_one_truncation(trained_model, method):
    dom = trained_model.domain
    obs = _mixed(np.random.default_rng(11), dom.lo, dom.hi, 90)
    fits = fit(trained_model, obs, method, k_max=4)
    assert fits.k[-1] == 0 and fits.errors[-1] is not None
    counts = np.bincount(fits.k, minlength=5)
    assert np.count_nonzero(counts[1:]) >= 2  # the AIC picks more than one k
    assert counts[1:].max() > DENSITY_ROWS  # and one k takes more than one block
    seen = _check(fits, partial(density, trained_model))
    assert len(seen) == len(obs) - 1


def test_log_scale_rows_through_the_pushforward():
    rng = np.random.default_rng(2)
    train = [SubpopSample(f"s{i}", np.exp(rng.normal(rng.uniform(2.6, 3.2),
                                                      rng.uniform(0.25, 0.4), 60)))
             for i in range(8)]
    scaled = fit_scaled(train, k_max=3, n_grid=64)
    obs = [np.exp(rng.normal(2.9, 0.3, rng.integers(5, 30))) for _ in range(40)]
    obs.insert(3, np.array([-1.0, 20.0]))  # a nonpositive response fails
    fits = fit_original_scale(scaled, obs, "map", k_max=3)
    assert fits.k[3] == 0 and fits.errors[3] is not None
    assert len(set(fits.k.tolist()) - {0}) >= 2
    seen = _check(fits, partial(density_original_scale, scaled))
    assert len(seen) == len(obs) - 1
