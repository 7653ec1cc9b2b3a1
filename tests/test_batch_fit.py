"""A sequence of samples is fitted as one batch and matches one-at-a-time fits."""

import numpy as np
import pytest

from repden.estimators import FitFailedError, FitResult, fit
from repden.expfam import MomentRangeError

METHODS = ("mle", "map", "blup")


def _batch(model, seed=31, m=20):
    """``m`` samples of 5-60 observations, then one whose first statistic sits
    at its grid maximum, so its moments fall outside the attainable range."""
    rng = np.random.default_rng(seed)
    lo, hi = model.domain.lo, model.domain.hi
    samples = [
        rng.normal(rng.uniform(-0.8, 0.8), rng.uniform(0.7, 1.3), size=n).clip(lo, hi)
        for n in rng.integers(5, 61, size=m)
    ]
    top = model.domain.grid[np.argmax(model.phi[:, 0])]
    return samples + [np.full(6, top)]


def _same_fit(a: FitResult, b: FitResult, tol: float):
    assert (a.method, a.k, a.n_obs) == (b.method, b.k, b.n_obs)
    assert [k for k, _ in a.aic_trace] == [k for k, _ in b.aic_trace]
    assert np.max(np.abs(a.theta - b.theta)) <= tol


@pytest.mark.parametrize("k", [2, None])
@pytest.mark.parametrize("method", METHODS)
def test_batch_matches_one_at_a_time(trained_model, method, k):
    samples = _batch(trained_model)
    batch = fit(trained_model, samples, method, k=k, k_max=4)
    assert len(batch) == len(samples)
    for obs, got in zip(samples[:-1], batch[:-1]):
        _same_fit(got, fit(trained_model, obs, method, k=k, k_max=4), 1e-10)
    expected = MomentRangeError if k is not None else FitFailedError
    assert type(batch[-1]) is expected
    with pytest.raises(expected):
        fit(trained_model, samples[-1], method, k=k, k_max=4)


@pytest.mark.parametrize("method", METHODS)
def test_batch_order_and_repeat(trained_model, method):
    samples = _batch(trained_model, seed=32)
    first = fit(trained_model, samples, method, k_max=4)
    again = fit(trained_model, samples, method, k_max=4)
    for a, b in zip(first, again):
        if isinstance(a, Exception):
            assert type(a) is type(b) and str(a) == str(b)
            continue
        assert a.theta.tobytes() == b.theta.tobytes() and a.aic_trace == b.aic_trace
        assert a.loglik == b.loglik and a.xi.tobytes() == b.xi.tobytes()
    backward = fit(trained_model, samples[::-1], method, k_max=4)[::-1]
    for a, b in zip(first, backward):
        if isinstance(a, Exception):
            assert type(a) is type(b)
            continue
        _same_fit(a, b, 1e-10)


def test_single_sample_and_empty_batch(trained_model):
    obs = _batch(trained_model)[0]
    assert isinstance(fit(trained_model, obs, "blup", k=2), FitResult)
    assert isinstance(fit(trained_model, list(obs), "blup", k=2), FitResult)
    assert fit(trained_model, [], "blup", k=2) == []
    got = fit(trained_model, [obs, np.array([])], "mle", k=1)
    assert isinstance(got[0], FitResult) and type(got[1]) is ValueError
