"""A batch fit returns its fits as read-only columns: each column row equals
the field of the :class:`FitResult` that indexing builds, the columns own
their memory, and what a batch keeps alive is a few numbers per sample."""

import tracemalloc
from functools import partial

import numpy as np
import pytest

from repden import estimators
from repden.estimators import FitBatch, FitResult, fit, loo_subsets, prepare
from repden.expfam import MomentRangeError, NewtonDivergenceError, density
from repden.logscale import ScaledModel, density_original_scale
from repden.simgen import default_spec, generate

COLUMNS = ("k", "theta", "xi", "log_normalizer", "loglik", "n_obs", "aic")


def _mixed(model):
    """Samples that fit at different truncations, then one outside the
    domain, one whose statistic is outside the moment range, and one whose
    MLE diverges at k = 3 (it fits at k = 1 only)."""
    rng = np.random.default_rng(4)
    lo, hi = model.domain.lo, model.domain.hi
    top = model.domain.grid[np.argmax(model.phi[:, 0])]
    fine = [rng.normal(rng.uniform(-0.8, 0.8), 1.0, size=n).clip(lo, hi)
            for n in (6, 40, 15, 120, 9)]
    return fine + [np.array([0.1, 10.0]), np.full(6, top), np.array([2.9, 2.95])]


def _bits(r):
    if not isinstance(r, FitResult):
        return type(r), str(r)
    return (r.method, r.k, r.theta.tobytes(), r.xi.tobytes(), r.log_normalizer, r.loglik,
            r.aic_trace, r.n_obs)


def _check_rows(batch):
    assert len(batch) == len(batch.errors) == batch.k.size
    for i, r in enumerate(batch):
        if batch.errors[i] is not None:
            assert r is batch.errors[i] and batch.k[i] == 0
            assert np.isnan(batch.aic[i]).all() and np.isnan(batch.theta[i]).all()
            continue
        k = r.k
        assert batch.k[i] == k >= 1 and batch.n_obs[i] == r.n_obs
        assert batch.theta[i, :k].tobytes() == r.theta.tobytes()
        assert batch.xi[i, :k].tobytes() == r.xi.tobytes()
        assert np.isnan(batch.theta[i, k:]).all() and np.isnan(batch.xi[i, k:]).all()
        assert batch.log_normalizer[i] == r.log_normalizer and batch.loglik[i] == r.loglik
        fitted = np.flatnonzero(~np.isnan(batch.aic[i]))
        assert [(int(j) + 1, float(batch.aic[i, j])) for j in fitted] == list(r.aic_trace)
        assert batch.aic[i, k - 1] == r.aic
    assert [_bits(r) for r in batch[1:]] == [_bits(batch[i]) for i in range(1, len(batch))]
    for name in COLUMNS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(batch, name)[0] = 1


def test_fixed_k_columns_equal_rows_and_share_no_memory_with_the_record(trained_model,
                                                                        monkeypatch):
    records = []
    solve = estimators.newton_minimize

    def recording(*args, **kwargs):
        records.append(solve(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(estimators, "newton_minimize", recording)
    batch = fit(trained_model, _mixed(trained_model), "mle", k=3)
    assert isinstance(batch, FitBatch) and batch.theta.shape == (8, 3)
    assert [type(e) for e in batch.errors[5:]] == [ValueError, MomentRangeError,
                                                   NewtonDivergenceError]
    assert batch.k.tolist() == [3] * 5 + [0] * 3
    _check_rows(batch)
    (rec,) = records
    for col, field in ((batch.theta, rec.theta), (batch.xi, rec.xi),
                       (batch.log_normalizer, rec.b)):
        assert not np.shares_memory(col, field)


@pytest.mark.parametrize("method", ["mle", "map", "blup"])
def test_aic_columns_equal_rows(trained_model, method):
    batch = fit(trained_model, _mixed(trained_model), method, k_max=4)
    assert batch.theta.shape == batch.aic.shape == (8, 4)
    assert len(set(batch.k[:5].tolist())) >= 2
    assert batch.k[7] == 1
    _check_rows(batch)


def test_a_stack_of_thetas_gives_each_row_its_own_density(trained_model):
    batch = fit(trained_model, _mixed(trained_model)[:5], "map", k=3)
    scaled = ScaledModel(trained_model, 0.5)
    for dens in (partial(density, trained_model), partial(density_original_scale, scaled)):
        dom, values = dens(batch.theta)
        assert values.shape == (5, dom.n_grid)
        for theta, v in zip(batch.theta, values):
            want = dens(theta)
            assert want.domain == dom and want.values.tobytes() == v.tobytes()


def test_a_batch_narrower_than_the_truncation_is_rejected_before_any_solve(trained_model,
                                                                         monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a batch narrower than its truncation")

    monkeypatch.setattr(estimators, "newton_minimize", no_solve)
    narrow = prepare(trained_model, _mixed(trained_model)[:5], 2)[0]
    with pytest.raises(ValueError, match="truncation 2 .* truncation 4"):
        fit(trained_model, narrow, "mle", k=4)
    with pytest.raises(ValueError, match="truncation 2 .* truncation 4"):
        fit(trained_model, narrow, "mle", k_max=4)


# The columns take about 140 bytes per subset (an int, two floats, the
# sample size, three rows of 4 floats and an error slot).  When every
# subset's fit was its own FitResult, fit held about 1.15 KB per subset at
# return.
BYTES_PER_SUBSET = 400


def test_leave_one_out_results_hold_a_few_numbers_per_subset(trained_model):
    spec = default_spec("trunc_normal", seed=17, n_train=1, n_test=100, test_size=(20, 59))
    samples = [s.obs for s, _ in generate(spec, n_grid=256)[1]]
    subsets = loo_subsets(trained_model, samples, 4)
    assert len(subsets) >= 2000
    fit(trained_model, samples[:2], "mle", k_max=4)  # the model's cached summaries
    tracemalloc.start()
    try:
        batch = fit(trained_model, subsets, "mle", k_max=4)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(e is None for e in batch.errors) >= 0.95 * len(subsets)
    assert held <= BYTES_PER_SUBSET * len(subsets)
