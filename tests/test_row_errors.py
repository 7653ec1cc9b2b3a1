"""A sample that fails keeps its own error in its slot of a batch, and the
other samples of the batch come out as if each had been solved alone; a
truncation that fails in the AIC sweep is left out of the sample's trace."""

import numpy as np
import pytest

from repden import estimators
from repden.estimators import FitResult, select_k_aic
from repden.expfam import NewtonDivergenceError, newton_minimize, suffstat_average
from repden.logscale import fit_original_scale, fit_scaled
from repden.presmooth import SubpopSample


def _bits(r):
    if not isinstance(r, FitResult):
        return type(r), str(r)
    return (r.method, r.k, r.theta.tobytes(), r.xi.tobytes(), r.loglik, r.log_normalizer,
            r.aic_trace, r.n_obs)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_newton_fails_one_row_and_solves_the_rest_as_alone(trained_model, k):
    rng = np.random.default_rng(k)
    healthy = [suffstat_average(trained_model, rng.normal(0.0, 1.0, n).clip(-2.5, 2.5), k)
               for n in (8, 30, 12, 50)]
    diverging = suffstat_average(trained_model, [2.9, 2.95], k)
    targets = np.array([*healthy[:2], diverging, *healthy[2:]])
    theta, errors = newton_minimize(trained_model, k, targets)
    assert np.all(np.isnan(theta[2]))
    assert "iterates diverging" in str(errors[2])
    for i in (0, 1, 3, 4):
        assert errors[i] is None
        alone = newton_minimize(trained_model, k, targets[i])
        assert theta[i].tobytes() == alone.tobytes()


@pytest.fixture(scope="module")
def scaled():
    rng = np.random.default_rng(0)
    train = [SubpopSample(f"s{i}", np.exp(rng.normal(rng.uniform(2.6, 3.2),
                                                     rng.uniform(0.25, 0.4), size=60)))
             for i in range(8)]
    return fit_scaled(train, k_max=4)


@pytest.mark.parametrize("k", [2, None])
@pytest.mark.parametrize("method", ["mle", "map", "blup"])
def test_original_scale_batch_keeps_a_nonpositive_sample_in_its_slot(scaled, method, k):
    rng = np.random.default_rng(9)
    good = np.exp(rng.normal(2.9, 0.3, size=15))
    good2 = np.exp(rng.normal(3.0, 0.3, size=9))
    batch = fit_original_scale(scaled, [good, np.array([-1.0, 14.0, 17.0]), good2],
                               method=method, k=k)
    assert len(batch) == 3
    assert _bits(batch[0]) == _bits(fit_original_scale(scaled, good, method=method, k=k))
    assert _bits(batch[2]) == _bits(fit_original_scale(scaled, good2, method=method, k=k))
    assert isinstance(batch[1], ValueError)
    assert str(batch[1]) == "responses must be positive"


def test_aic_sweep_keeps_the_first_minimum_and_skips_failed_truncations(trained_model,
                                                                        monkeypatch):
    # AIC = 2k - 2 loglik: 4 at k = 1 and k = 2 (a tie), a failure at k = 3, 10 at k = 4
    logliks = {1: -1.0, 2: 0.0, 4: -1.0}

    def fitter(model, s, k, theta0=None):
        if k not in logliks:
            return [NewtonDivergenceError("no fit") for _ in range(len(s))]
        return [FitResult("MLE", k, np.zeros(k), np.zeros(k), 0.0, logliks[k],
                          ((k, 2.0 * k - 2.0 * logliks[k]),), int(n)) for n in s.n]

    monkeypatch.setitem(estimators._FITTERS, "mle", fitter)
    rng = np.random.default_rng(3)
    results = select_k_aic(trained_model, [rng.uniform(-1, 1, 9), rng.uniform(-1, 1, 20)],
                           "mle", 4)
    for r, n in zip(results, (9, 20)):
        assert (r.k, r.n_obs) == (1, n)
        assert r.aic_trace == ((1, 4.0), (2, 4.0), (4, 10.0))
