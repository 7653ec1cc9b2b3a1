"""Every fit result is its row of the Newton solver's record: the same
``theta``, moments and log-normalizer bits, read-only, and a row that failed
in the solver holds the record's own error object."""

import numpy as np
import pytest

from repden import estimators, expfam
from repden.estimators import FitResult
from repden.simgen import default_spec, generate


@pytest.fixture(scope="module")
def batch():
    """A sample outside the domain (never solved), generated samples, and
    samples at the edge of the domain, whose MLE diverges at k >= 3."""
    spec = default_spec("trunc_normal", seed=53, n_train=1, n_test=8, test_size=(5, 59))
    generated = [s.obs for s, _ in generate(spec, n_grid=256)[1]]
    return [np.array([5.0]), *generated, np.array([2.9, 2.95]), np.array([-2.9, -2.95, -2.97])]


@pytest.mark.parametrize("k", [1, 3, 6])
@pytest.mark.parametrize("method", ["mle", "map", "blup"])
def test_each_result_is_its_record_row(trained_model, batch, method, k, monkeypatch):
    records = []
    solver = expfam.newton_minimize

    def recorded(*args, **kwargs):
        records.append(solver(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(expfam, "newton_minimize", recorded)
    monkeypatch.setattr(estimators, "newton_minimize", recorded)
    results = getattr(estimators, f"fit_{method}")(trained_model, batch, k)
    assert len(records) == 1
    rec = records[0]
    assert isinstance(results[0], ValueError) and len(rec.errors) == len(batch) - 1
    for j, r in enumerate(results[1:]):
        if rec.errors[j] is not None:
            assert r is rec.errors[j]
            continue
        assert isinstance(r, FitResult)
        assert r.theta.tobytes() == rec.theta[j].tobytes()
        assert r.xi.tobytes() == rec.xi[j].tobytes()
        assert np.float64(r.log_normalizer).tobytes() == rec.b[j].tobytes()
        assert not r.theta.flags.writeable and not r.xi.flags.writeable
    if method == "mle" and k > 1:
        assert all(isinstance(r, expfam.NewtonDivergenceError) for r in results[-2:])
