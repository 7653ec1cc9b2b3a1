import dataclasses

import numpy as np
import pytest

from repden.estimators import fit, fit_blup, fit_map, fit_mle, select_k_aic

FITTERS = {"mle": fit_mle, "map": fit_map, "blup": fit_blup}


def _obs(model, seed=3, size=25):
    rng = np.random.default_rng(seed)
    grid = model.domain.grid
    return rng.uniform(grid[1], grid[-2], size=size)


def _same(a, b):
    assert a.method == b.method and a.k == b.k and a.n_obs == b.n_obs
    assert a.theta.tobytes() == b.theta.tobytes()
    assert a.xi.tobytes() == b.xi.tobytes()
    assert a.log_normalizer == b.log_normalizer and a.loglik == b.loglik
    assert a.aic_trace == b.aic_trace


@pytest.mark.parametrize("method", ["mle", "map", "blup"])
def test_fit_fixed_k_matches_fitter(trained_model, method):
    obs = _obs(trained_model)
    _same(fit(trained_model, obs, method, k=2), FITTERS[method](trained_model, obs, 2))
    _same(fit(trained_model, obs, method.upper(), k=1), FITTERS[method](trained_model, obs, 1))


@pytest.mark.parametrize("method", ["mle", "map", "blup"])
def test_fit_aic_matches_select_k_aic(trained_model, method):
    obs = _obs(trained_model)
    k_all = trained_model.n_components
    _same(fit(trained_model, obs, method), select_k_aic(trained_model, obs, method, k_all))
    _same(fit(trained_model, obs, method, k_max=2),
          select_k_aic(trained_model, obs, method, 2))


def test_fit_rejects_unknown_method(trained_model):
    obs = _obs(trained_model)
    with pytest.raises(ValueError, match="unknown method"):
        fit(trained_model, obs, "ols", k=1)
    with pytest.raises(ValueError, match="unknown method"):
        fit(trained_model, obs, "ols")


def test_family_model_is_frozen(trained_model):
    with pytest.raises(dataclasses.FrozenInstanceError):
        trained_model.meta = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        trained_model.summaries = ()


def test_summaries_cover_every_truncation_and_are_read_only(trained_model):
    model = trained_model
    assert len(model.summaries) == model.n_components
    for k in range(1, model.n_components + 1):
        s = model.summary(k)
        assert s.train_moments.shape == (model.n_train, k)
        assert s.sigma_tau.shape == s.phibar_base.shape == (k, k)
        assert s.tau_bar.shape == s.score_vars.shape == (k,)
        with pytest.raises(ValueError):
            s.tau_bar[0] = 0.0
    with pytest.raises(ValueError):
        model.summary(model.n_components + 1)
