"""Each grid-density rule has one definition: the log-normalizer a fit
reports is the ``B`` that :func:`log_normalizer` gives and that normalizes the
fit's density, and the family's arrays are built once and cannot be written."""

from dataclasses import fields

import numpy as np
import pytest

from repden.estimators import FIT_ERRORS, fit
from repden.expfam import FamilyModel, density, log_normalizer, rowwise
from repden.grid import DENSITY_FLOOR
from repden.simgen import default_spec, generate


@pytest.fixture(scope="module")
def new_samples():
    """Sixty groups of 5-59 values from the trained model's scenario."""
    spec = default_spec("trunc_normal", seed=31, n_train=1, n_test=60, test_size=(5, 59))
    return [s.obs for s, _ in generate(spec, n_grid=256)[1]]


@pytest.mark.parametrize("method", ["mle", "map", "blup"])
def test_fit_density_and_log_normalizer_share_one_b(trained_model, new_samples, method):
    model = trained_model
    results = [r for r in fit(model, new_samples, method) if not isinstance(r, FIT_ERRORS)]
    assert len(results) >= 50
    for r in results:
        assert log_normalizer(model, r.theta) == r.log_normalizer
        phi_t = np.ascontiguousarray(model.phi[:, : r.k].T)
        g = model.mu_values + rowwise(r.theta[None], phi_t)[0]
        want = np.maximum(np.exp(g - r.log_normalizer), DENSITY_FLOOR)
        assert np.array_equal(density(model, r.theta).values, want)


def test_family_arrays_are_read_only(trained_model):
    # a copy, so the session's model is left intact if a write goes through
    m = FamilyModel(sys=trained_model.sys, domain=trained_model.domain,
                    train_densities=trained_model.train_densities, meta=trained_model.meta)
    arrays = [m.phi, m.phi_t, m.moment_lo, m.moment_hi, m.mu_values]
    arrays += [getattr(s, f.name) for s in m.summaries for f in fields(s)]
    for a in arrays:
        with pytest.raises(ValueError):
            a[...] = 0.0
