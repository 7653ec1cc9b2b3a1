"""Every entry point into the Newton solve holds about one ``BATCH_SIZE x
n_grid`` buffer at a time, however large its batch: the solver evaluates its
objective in blocks of rows, so a direct AIC sweep, a direct fit at fixed
``k`` and a batched moment inversion are bounded like ``fit``."""

import tracemalloc

import numpy as np
import pytest

from repden.estimators import BATCH_SIZE, FitResult, fit_mle, select_k_aic
from repden.expfam import natural_from_moment, train_family
from repden.simgen import default_spec, generate, scenario_domain

N_GRID = 2048


@pytest.fixture(scope="module")
def model_2048():
    spec = default_spec("trunc_normal", seed=123, n_train=12, train_size=120, n_test=1)
    train, _ = generate(spec, n_grid=N_GRID)
    return train_family(train, scenario_domain("trunc_normal", N_GRID), 4)


@pytest.fixture(scope="module")
def samples():
    spec = default_spec("trunc_normal", seed=61, n_train=1, n_test=4 * BATCH_SIZE,
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


# One buffer is BATCH_SIZE x N_GRID floats, 4 MiB.  The solver holds one per
# objective evaluation; the AIC sweep also keeps each sample's best result
# and the results of the truncation it is fitting (about 1 KB per sample).
# The traced peaks were 5.5 MiB (select_k_aic), 4.5 MiB (fit_mle) and
# 4.3 MiB (natural_from_moment); a solver that evaluated all 4 x BATCH_SIZE
# rows at once peaked at 18.0, 16.7 and 16.4 MiB.  The bound is two buffers.
BOUND = 2 * BATCH_SIZE * N_GRID * np.dtype(float).itemsize


@pytest.mark.parametrize("entry", ["select_k_aic", "fit_mle", "natural_from_moment"])
def test_every_solver_entry_point_is_bounded(model_2048, samples, entry):
    if entry == "select_k_aic":
        call = lambda: select_k_aic(model_2048, samples, "mle", 3)  # noqa: E731
    elif entry == "fit_mle":
        call = lambda: fit_mle(model_2048, samples, 3)  # noqa: E731
    else:
        xi = np.array([r.xi for r in fit_mle(model_2048, samples, 2) if isinstance(r, FitResult)])
        assert len(xi) >= 3 * BATCH_SIZE
        call = lambda: natural_from_moment(model_2048, xi)  # noqa: E731
    results, peak = _peak(call)
    if entry == "natural_from_moment":
        assert sum(e is None for e in results.errors) >= 3 * BATCH_SIZE
    else:
        assert sum(isinstance(r, FitResult) for r in results) >= 3 * BATCH_SIZE
    assert peak <= BOUND
