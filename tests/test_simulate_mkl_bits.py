"""``run_replication`` scores its fits in blocks; each method's MKL is still
the per-row mean of KL divergences, bit for bit."""

from dataclasses import replace

import pytest

from repden.estimators import fit, prepare
from repden.expfam import density, train_family
from repden.metrics import mean_kl
from repden.presmooth import KdeConfig, silverman_bandwidth, weighted_kde
from repden.simgen import default_spec, generate, scenario_domain
from repden.simulate import rep_seed, run_replication


@pytest.mark.parametrize("kind,test_size,n_grid", [
    ("trunc_normal", 10, 512),
    ("bimodal", (2, 60), 256),
    ("rand_intercept_t3", (5, 30), 512),
])
def test_mkl_equals_per_row_formula(kind, test_size, n_grid):
    spec = default_spec(kind, 21, n_train=20, train_size=60, n_test=70, test_size=test_size)
    k_max, rep = 3, 1
    out = run_replication(spec, rep, k_max=k_max, n_grid=n_grid)

    train, test = generate(replace(spec, seed=rep_seed(spec.seed, rep)), n_grid=n_grid)
    domain = scenario_domain(kind, n_grid)
    model = train_family(train, domain, k_max)
    truths = [truth for _, truth in test]
    batch = prepare(model, [s.obs for s, _ in test], k_max)[0]
    for method in ("mle", "map", "blup"):
        fits = fit(model, batch, method, k_max=k_max)
        want = mean_kl(truths, [density(model, r.theta) for r in fits]).mean
        assert out.mkl[method] == want
        assert out.selected_k[method] == tuple(fits.k.tolist())
    kdes = [weighted_kde(s, KdeConfig(silverman_bandwidth(s)), domain) for s, _ in test]
    assert out.mkl["kde"] == mean_kl(truths, kdes).mean
