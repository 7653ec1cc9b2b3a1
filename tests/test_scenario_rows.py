"""Each row of the scenario table: its truth law draws the same density,
from the same generator calls in the same order, as the scenario's explicit
formula, and its domain bounds and default sizes are the documented ones."""

import numpy as np
import pytest

from repden.simgen import (
    _SCENARIOS,
    SCENARIO_KINDS,
    default_spec,
    scenario_domain,
    truth_bimodal,
    truth_gauss_mixture,
    truth_rand_intercept,
    truth_trunc_normal,
)

BOUNDS = {
    "trunc_normal": (-3.0, 3.0),
    "bimodal": (0.0, 1.0),
    "gauss_mixture": (-3.0, 3.0),
    "rand_intercept_normal": (-10.0, 10.0),
    "rand_intercept_t3": (-10.0, 10.0),
}

# (n_train, train_size, n_test, test_size)
SIZES = {
    "trunc_normal": (50, 200, 100, 10),
    "bimodal": (50, 200, 100, 50),
    "gauss_mixture": (50, 100, 100, 25),
    "rand_intercept_normal": (100, (75, 100), 100, (10, 20)),
    "rand_intercept_t3": (100, (75, 100), 100, (10, 20)),
}


def reference_truth(kind, rng, domain):
    """Each scenario's population law, written out one branch per kind."""
    if kind == "trunc_normal":
        return truth_trunc_normal(domain, rng.uniform(-2, 2), rng.uniform(2, 4))
    if kind == "bimodal":
        return truth_bimodal(domain, rng.uniform(0, 10))
    if kind == "gauss_mixture":
        weights = rng.dirichlet([1 / 3, 1 / 3, 1 / 3])
        means = rng.uniform(-5, 5, size=3)
        sds = rng.uniform(0.5, 5, size=3)
        return truth_gauss_mixture(domain, weights, means, sds)
    if kind == "rand_intercept_normal":
        return truth_rand_intercept(domain, rng.normal(0.0, 1.0), heavy_tail=False)
    if kind == "rand_intercept_t3":
        return truth_rand_intercept(domain, rng.normal(0.0, 1.0), heavy_tail=True)
    raise ValueError(kind)


def test_kinds_keep_their_order():
    assert SCENARIO_KINDS == tuple(BOUNDS)


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
@pytest.mark.parametrize("seed", [0, 11, 2024])
def test_truth_law_equals_its_formula(kind, seed):
    domain = scenario_domain(kind, 256)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        got = _SCENARIOS[kind].truth(got_rng, domain)
        want = reference_truth(kind, want_rng, domain)
        assert got.domain == want.domain
        assert np.array_equal(got.values, want.values)
    # the same number of draws: both generators continue identically
    assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_bounds_and_default_sizes(kind):
    domain = scenario_domain(kind, 64)
    assert (domain.lo, domain.hi, domain.n_grid) == (*BOUNDS[kind], 64)
    spec = default_spec(kind, seed=4)
    assert (spec.n_train, spec.train_size, spec.n_test, spec.test_size) == SIZES[kind]
    assert spec.kind == kind and spec.seed == 4
