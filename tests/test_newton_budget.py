"""An objective evaluation of the Newton solve takes at most ``BUDGET`` grid
values' worth of rows, so on a fine grid the solver's buffer follows the grid,
not ``BATCH_SIZE`` rows of it, and every row keeps the bits of its fit alone."""

import tracemalloc

import numpy as np
import pytest

from repden.estimators import FitResult, fit_mle
from repden.expfam import natural_from_moment, train_family
from repden.presmooth import BUDGET
from repden.simgen import default_spec, generate, scenario_domain

N_GRID = 4096
N_PROBLEMS = 300

# Two buffers of BUDGET floats (1 MiB), plus 1 KiB per problem for the
# solver's per-row state and the fit's columns.  The traced peaks at k = 4
# were 0.75 MiB (fit_mle) and 0.72 MiB (natural_from_moment); blocks of
# BATCH_SIZE rows, one 256 x 4096 buffer, peaked at 8.3 and 8.2 MiB.
BOUND = 2 * BUDGET * np.dtype(float).itemsize + N_PROBLEMS * 1024


@pytest.fixture(scope="module")
def model_4096():
    spec = default_spec("trunc_normal", seed=123, n_train=12, train_size=120, n_test=1)
    train, _ = generate(spec, n_grid=N_GRID)
    return train_family(train, scenario_domain("trunc_normal", N_GRID), 4)


@pytest.fixture(scope="module")
def samples():
    spec = default_spec("trunc_normal", seed=61, n_train=1, n_test=N_PROBLEMS,
                        test_size=(5, 59))
    return [s.obs for s, _ in generate(spec, n_grid=256)[1]]


def _peak(call):
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_fit_mle_holds_a_budget_sized_buffer(model_4096, samples):
    batch, peak = _peak(lambda: fit_mle(model_4096, samples, 4))
    assert all(isinstance(r, FitResult) for r in batch)
    assert peak <= BOUND
    for i in range(N_PROBLEMS):
        alone = fit_mle(model_4096, samples[i], 4)
        assert alone.theta.tobytes() == batch.theta[i].tobytes()
        assert alone.xi.tobytes() == batch.xi[i].tobytes()
        assert alone.log_normalizer == batch.log_normalizer[i]


def test_natural_from_moment_holds_a_budget_sized_buffer(model_4096, samples):
    xi = fit_mle(model_4096, samples, 4).xi
    rec, peak = _peak(lambda: natural_from_moment(model_4096, xi))
    assert rec.errors == (None,) * N_PROBLEMS
    assert peak <= BOUND
    for i in range(N_PROBLEMS):
        assert natural_from_moment(model_4096, xi[i]).tobytes() == rec.theta[i].tobytes()
