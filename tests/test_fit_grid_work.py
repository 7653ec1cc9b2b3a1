"""A fit evaluates the grid only inside its Newton solve, which hands back
``B`` and the moments at each solution, and a batch's fit holds about one
``batch x n_grid`` buffer at a time."""

import tracemalloc

import numpy as np
import pytest

from repden import estimators, expfam
from repden.estimators import FitResult, fit
from repden.expfam import train_family
from repden.simgen import default_spec, generate, scenario_domain


@pytest.fixture(scope="module")
def batch():
    spec = default_spec("trunc_normal", seed=53, n_train=1, n_test=24, test_size=(5, 59))
    return [s.obs for s, _ in generate(spec, n_grid=256)[1]]


@pytest.mark.parametrize("method", ["mle", "map", "blup"])
def test_no_grid_evaluation_outside_the_solver(trained_model, batch, method, monkeypatch):
    calls = {"inside": 0, "outside": 0}
    depth = [0]
    normalize, solver = expfam._normalize, expfam.newton_minimize

    def counted(*args, **kwargs):
        calls["inside" if depth[0] else "outside"] += 1
        return normalize(*args, **kwargs)

    def solving(*args, **kwargs):
        depth[0] += 1
        try:
            return solver(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(expfam, "_normalize", counted)
    monkeypatch.setattr(expfam, "newton_minimize", solving)
    monkeypatch.setattr(estimators, "newton_minimize", solving)
    fitter = getattr(estimators, f"fit_{method}")
    results = fitter(trained_model, batch, 3)
    assert sum(isinstance(r, FitResult) for r in results) >= 20
    assert calls["inside"] > 0
    assert calls["outside"] == 0


@pytest.fixture(scope="module")
def model_512():
    spec = default_spec("trunc_normal", seed=123, n_train=12, train_size=120, n_test=1)
    train, _ = generate(spec, n_grid=512)
    return train_family(train, scenario_domain("trunc_normal", 512), 6)


@pytest.fixture(scope="module")
def batch_256():
    spec = default_spec("trunc_normal", seed=59, n_train=1, n_test=256, test_size=(5, 59))
    return [s.obs for s, _ in generate(spec, n_grid=512)[1]]


@pytest.mark.parametrize("method", ["mle", "map", "blup"])
@pytest.mark.parametrize("k, buffers", [(None, 3.0), (4, 2.0)])
def test_batch_fit_working_set_is_bounded(model_512, batch_256, method, k, buffers):
    # One buffer of weighted densities per objective evaluation: about 1.3
    # buffers at fixed k, and 1.7 in the AIC sweep to 4, which also keeps a
    # result per sample and truncation.  A solver that kept the exponent and
    # the densities apart, or carried the densities from one iteration to
    # the next, peaks at 2.3-4.6 buffers.
    buffer = len(batch_256) * model_512.domain.n_grid * np.dtype(float).itemsize
    fit(model_512, batch_256[:8], method, k=k, k_max=4)
    tracemalloc.start()
    try:
        results = fit(model_512, batch_256, method, k=k, k_max=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(isinstance(r, FitResult) for r in results) >= 240
    assert peak <= buffers * buffer
