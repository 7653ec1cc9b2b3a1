"""Optimality conditions of the batched Newton solver on random parameters."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repden.estimators import fit_map
from repden.expfam import NEWTON_GRAD_TOL, density, moment_map, newton_minimize, suffstat_average
from repden.simgen import sample_from_density

BOX = 1.5


def _thetas(data, k: int, max_rows: int = 6) -> np.ndarray:
    row = st.lists(st.floats(-BOX, BOX), min_size=k, max_size=k)
    return np.array(data.draw(st.lists(row, min_size=1, max_size=max_rows)))


@settings(max_examples=30, deadline=None)
@given(data=st.data(), k=st.integers(1, 3))
def test_batched_newton_recovers_parameters(trained_model, data, k):
    truth = _thetas(data, k)
    targets = np.array([moment_map(trained_model, t) for t in truth])
    rec = newton_minimize(trained_model, k, targets)
    assert rec.errors == (None,) * len(truth)
    for t, target, got in zip(truth, targets, rec.theta):
        assert np.max(np.abs(moment_map(trained_model, got) - target)) < NEWTON_GRAD_TOL
        assert np.max(np.abs(got - t)) < 1e-6


@settings(max_examples=20, deadline=None)
@given(data=st.data(), k=st.integers(1, 3), seed=st.integers(0, 2**31))
def test_map_rows_are_penalized_stationary(trained_model, data, k, seed):
    truth = _thetas(data, k, max_rows=4)
    rng = np.random.default_rng(seed)
    samples = [sample_from_density(density(trained_model, t), int(rng.integers(5, 60)), rng)
               for t in truth]
    svars = trained_model.summary(k).score_vars
    for obs, r in zip(samples, fit_map(trained_model, samples, k)):
        d = 1.0 / (obs.size * svars)
        phibar = suffstat_average(trained_model, obs, k)
        assert np.max(np.abs(r.xi - phibar + d * r.theta)) < 10 * NEWTON_GRAD_TOL
