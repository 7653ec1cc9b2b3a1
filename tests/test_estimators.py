import numpy as np
import pytest

from repden.estimators import (
    BLUP_RIDGE,
    FitFailedError,
    ShrinkageStats,
    ZeroPriorVarianceError,
    _pull_into_range,
    blup_moment,
    fit_blup,
    fit_map,
    fit_mle,
    select_k_aic,
    shrinkage_stats,
)
from repden.expfam import density, fisher_info, moment_map
from repden.grid import Domain
from repden.simgen import sample_from_density

from conftest import make_family, rank1_family, two_component_family


def _identical_training_model(n=4):
    """Smooth statistics but identical training subpopulations: all scores
    zero, so there is no between-subpopulation variation to learn."""
    dom = Domain(0.0, 1.0, 201)
    t = dom.grid
    return make_family(
        dom, [t - 0.5, (t - 0.5) ** 2], scores=np.zeros((n, 2))
    )


def _scaled_score_family(var, n_grid=1001):
    """Rank-one family whose training score sample variance is exactly ``var``."""
    base = np.array([-1.5, -0.5, -0.25, 0.25, 0.5, 1.5])
    base = base / base.std(ddof=1)
    scores = (np.sqrt(var) * base)[:, None]
    return rank1_family(n_grid=n_grid, scores=scores)


# ---------------------------------------------------------------------------
# shrinkage statistics


def test_shrinkage_stats_identical_training():
    model = _identical_training_model()
    st = shrinkage_stats(model, 2, fit_n=10)
    assert np.max(np.abs(st.sigma_tau)) < 1e-12
    assert np.allclose(st.tau_bar, moment_map(model, np.zeros(2)), atol=1e-10)
    assert np.allclose(st.score_vars, 0.0)


def test_shrinkage_stats_scales_inversely_with_fit_n():
    model = two_component_family(501)
    st1 = shrinkage_stats(model, 2, fit_n=7)
    st2 = shrinkage_stats(model, 2, fit_n=14)
    assert np.allclose(st2.sigma_phibar, st1.sigma_phibar / 2.0, rtol=0, atol=0)
    assert np.allclose(st2.sigma_tau, st1.sigma_tau)


def test_shrinkage_stats_symmetric_psd():
    model = two_component_family(501)
    st = shrinkage_stats(model, 2, fit_n=5)
    for mat in (st.sigma_tau, st.sigma_phibar):
        assert np.allclose(mat, mat.T)
        assert np.linalg.eigvalsh(mat).min() >= -1e-10


def test_within_covariance_matches_double_loop_oracle():
    # oracle: plain Python double loop over subpopulations and grid points
    dom = Domain(0.0, 1.0, 101)
    t = dom.grid
    model = make_family(
        dom,
        [t - 0.5, (t - 0.5) ** 2],
        scores=np.array([[0.5, -0.2], [-0.3, 0.4], [-0.2, -0.2]]),
    )
    k, fit_n = 2, 6
    st = shrinkage_stats(model, k, fit_n)
    taus = model.train_moments(k)
    w = dom.trap_weights
    phi = model.phi[:, :k]
    total = np.zeros((k, k))
    for i in range(model.n_train):
        dens = model.train_densities[i].values
        for j in range(dom.n_grid):
            diff = phi[j] - taus[i]
            total += w[j] * dens[j] * np.outer(diff, diff)
    oracle = total / (model.n_train * fit_n)
    assert np.max(np.abs(st.sigma_phibar - oracle)) < 1e-8


def test_shrinkage_stats_validation():
    model = two_component_family(501)
    with pytest.raises(ValueError):
        shrinkage_stats(model, 3, fit_n=5)
    with pytest.raises(ValueError):
        shrinkage_stats(model, 2, fit_n=0)


# ---------------------------------------------------------------------------
# maximum likelihood


def test_mle_zero_when_statistic_average_matches_center():
    model = rank1_family(2001)
    t = model.domain.grid
    obs = np.array([t[300], t[1700]])  # mirror pair: statistic average is 0
    r = fit_mle(model, obs, 1)
    assert abs(r.theta[0]) < 1e-6
    assert r.method == "MLE" and r.k == 1 and r.n_obs == 2


def test_mle_moment_match_condition():
    from repden.expfam import suffstat_average

    model = two_component_family(1001)
    rng = np.random.default_rng(6)
    for _ in range(5):
        obs = rng.uniform(0.05, 0.95, size=25)
        r = fit_mle(model, obs, 2)
        phibar = suffstat_average(model, obs, 2)
        assert np.max(np.abs(moment_map(model, r.theta) - phibar)) < 1e-8
        assert np.max(np.abs(r.xi - phibar)) < 1e-8


def test_mle_recovers_truth_within_sampling_error():
    # consistency: at large N the estimate lands within three standard
    # errors of the generating parameter in at least 95 of 100 seeded runs
    model = rank1_family(1001)
    theta_star = np.array([0.7])
    p = density(model, theta_star)
    n = 10_000
    se = np.sqrt(1.0 / (n * fisher_info(model, theta_star)[0, 0]))
    hits = 0
    for seed in range(100):
        obs = sample_from_density(p, n, seed)
        r = fit_mle(model, obs, 1)
        if abs(r.theta[0] - theta_star[0]) <= 3 * se:
            hits += 1
    assert hits >= 95


def test_mle_loglik_and_aic_fields():
    model = two_component_family(1001)
    rng = np.random.default_rng(7)
    obs = rng.uniform(0.1, 0.9, size=12)
    r = fit_mle(model, obs, 2)
    grid = model.domain.grid
    ll = 0.0
    for x in obs:
        lx = np.interp(x, grid, model.mu_values) - r.log_normalizer
        for j in range(2):
            lx += r.theta[j] * np.interp(x, grid, model.phi[:, j])
        ll += lx
    assert r.loglik == pytest.approx(ll, abs=1e-8)
    assert r.aic == pytest.approx(2 * 2 - 2 * ll, abs=1e-8)
    assert r.aic_trace == ((2, r.aic),)


# ---------------------------------------------------------------------------
# posterior mode


def test_map_approaches_mle_as_prior_widens():
    model = _scaled_score_family(1e12)
    rng = np.random.default_rng(8)
    obs = rng.uniform(0.1, 0.9, size=15)
    r_map = fit_map(model, obs, 1)
    r_mle = fit_mle(model, obs, 1)
    assert abs(r_map.theta[0] - r_mle.theta[0]) < 1e-4


def test_map_collapses_to_zero_as_prior_tightens():
    model = _scaled_score_family(1e-12)
    rng = np.random.default_rng(9)
    obs = rng.uniform(0.1, 0.9, size=15)
    r = fit_map(model, obs, 1)
    assert abs(r.theta[0]) < 1e-4


def test_map_matches_grid_search_oracle():
    # oracle: dense scan of the penalized objective for one component
    from repden.expfam import log_normalizer, suffstat_average

    var = 0.5
    model = _scaled_score_family(var)
    rng = np.random.default_rng(10)
    obs = rng.uniform(0.2, 0.8, size=5)
    r = fit_map(model, obs, 1)
    phibar = suffstat_average(model, obs, 1)[0]
    thetas = np.linspace(-10, 10, 200_001)
    best = None
    for th in thetas[:: 2000]:
        val = 5 * (th * phibar - log_normalizer(model, np.array([th]))) - th * th / (2 * var)
        if best is None or val > best[1]:
            best = (th, val)
    lo, hi = best[0] - 0.5, best[0] + 0.5
    fine = np.linspace(lo, hi, 10_001)
    vals = [
        5 * (th * phibar - log_normalizer(model, np.array([th]))) - th * th / (2 * var)
        for th in fine
    ]
    oracle = fine[int(np.argmax(vals))]
    assert r.theta[0] == pytest.approx(oracle, abs=1e-4)


def test_map_shrinks_monotonically_with_prior_strength():
    rng = np.random.default_rng(11)
    obs = rng.uniform(0.55, 0.95, size=12)
    norms = []
    for scale in (1e3, 1.0, 1e-3):
        model = _scaled_score_family(scale * 0.4)
        norms.append(abs(fit_map(model, obs, 1).theta[0]))
    assert norms[0] >= norms[1] >= norms[2]


def test_map_rejects_zero_prior_variance():
    model = _identical_training_model()
    with pytest.raises(ZeroPriorVarianceError):
        fit_map(model, np.array([0.4, 0.6]), 1)


def test_map_objective_concave_at_optimum():
    model = _scaled_score_family(0.7)
    rng = np.random.default_rng(12)
    obs = rng.uniform(0.1, 0.9, size=9)
    r = fit_map(model, obs, 1)
    hess = obs.size * fisher_info(model, r.theta) + np.diag([1.0 / 0.7])
    assert np.linalg.eigvalsh(hess).min() > 0


# ---------------------------------------------------------------------------
# linear shrinkage in moment coordinates


def test_blup_full_shrinkage_with_identical_training():
    model = _identical_training_model()
    tau_bar = moment_map(model, np.zeros(2))
    for obs in (np.array([0.1, 0.2, 0.3]), np.array([0.7, 0.8, 0.9])):
        r = fit_blup(model, obs, 2)
        assert np.allclose(r.xi, tau_bar, atol=1e-8)


def test_blup_no_shrinkage_limit():
    from repden.expfam import suffstat_average

    model = two_component_family(1001)
    rng = np.random.default_rng(13)
    obs = rng.uniform(0.1, 0.9, size=20)
    r = fit_blup(model, obs, 2, fit_n=10**9)
    phibar = suffstat_average(model, obs, 2)
    assert np.max(np.abs(r.xi - phibar)) < 1e-6


def test_blup_betweenness_scalar_formula():
    from repden.expfam import suffstat_average

    model = _scaled_score_family(0.3)
    rng = np.random.default_rng(14)
    obs = rng.uniform(0.5, 0.95, size=8)
    st = shrinkage_stats(model, 1, fit_n=obs.size)
    phibar = suffstat_average(model, obs, 1)[0]
    r = fit_blup(model, obs, 1)
    s_tau = st.sigma_tau[0, 0]
    s_phi = st.sigma_phibar[0, 0]
    want = s_tau / (s_tau + s_phi) * (phibar - st.tau_bar[0]) + st.tau_bar[0]
    assert r.xi[0] == pytest.approx(want, abs=1e-8)
    lo, hi = sorted((st.tau_bar[0], phibar))
    assert lo - 1e-12 <= r.xi[0] <= hi + 1e-12


def test_blup_combination_is_affine():
    model = two_component_family(501)
    st = shrinkage_stats(model, 2, fit_n=9)
    d1 = np.array([0.02, -0.01])
    d2 = np.array([-0.015, 0.03])
    a, b = 1.7, -0.6

    def deviation(phibar):
        return blup_moment(st, phibar) - st.tau_bar

    combo = deviation(st.tau_bar + a * d1 + b * d2)
    parts = a * deviation(st.tau_bar + d1) + b * deviation(st.tau_bar + d2)
    assert np.max(np.abs(combo - parts)) < 1e-10


def test_blup_result_consistency(trained_model):
    rng = np.random.default_rng(15)
    obs = rng.uniform(-2, 2, size=14)
    r = fit_blup(trained_model, obs, 2)
    assert r.method == "BLUP"
    assert np.max(np.abs(moment_map(trained_model, r.theta) - r.xi)) < 1e-6


def test_pull_into_range_moves_only_rows_outside(trained_model):
    k = 2
    tau_bar = trained_model.summary(k).tau_bar
    lo, hi = trained_model.moment_lo[:k], trained_model.moment_hi[:k]
    inside = tau_bar + 0.25 * (hi - tau_bar)
    outside = np.array([hi[0] + 1.0, tau_bar[1]])
    xi = np.stack([outside, inside])
    pulled = _pull_into_range(trained_model, xi, tau_bar)
    assert np.all((pulled[0] > lo) & (pulled[0] < hi))
    t = (pulled[0] - tau_bar)[0] / (outside - tau_bar)[0]
    assert 0.0 < t < 1.0
    np.testing.assert_allclose(pulled[0], tau_bar + t * (outside - tau_bar), rtol=0, atol=1e-14)
    assert pulled[1].tobytes() == inside.tobytes()


def test_blup_moment_zero_covariances_return_tau_bar():
    k, m = 3, 4
    tau_bar = np.array([0.1, -0.2, 0.05])
    stats = ShrinkageStats(tau_bar=tau_bar, sigma_tau=np.zeros((k, k)),
                           sigma_phibar=np.zeros((m, k, k)), score_vars=np.ones(k))
    phibar = np.random.default_rng(17).normal(size=(m, k))
    out = blup_moment(stats, phibar)
    assert out.shape == (m, k)
    assert all(row.tobytes() == tau_bar.tobytes() for row in out)


# ---------------------------------------------------------------------------
# truncation selection


def test_select_k_single_candidate():
    model = two_component_family(501)
    rng = np.random.default_rng(16)
    obs = rng.uniform(0.1, 0.9, size=10)
    r = select_k_aic(model, obs, "mle", 1)
    assert r.k == 1 and len(r.aic_trace) == 1


def test_select_k_returns_trace_minimum(trained_model):
    rng = np.random.default_rng(17)
    obs = rng.uniform(-2.5, 2.5, size=18)
    for method in ("mle", "map", "blup"):
        r = select_k_aic(trained_model, obs, method, 4)
        aics = [a for _, a in r.aic_trace]
        assert r.aic == pytest.approx(min(aics), abs=1e-12)
        assert (r.k, r.aic) in r.aic_trace


def test_select_k_aic_values_match_recomputation(trained_model):
    # oracle: per-observation log-density loop, independent of the batched path
    rng = np.random.default_rng(18)
    obs = rng.uniform(-2.0, 2.0, size=9)
    r = select_k_aic(trained_model, obs, "mle", 3)
    grid = trained_model.domain.grid
    for k, aic in r.aic_trace:
        rf = fit_mle(trained_model, obs, k)
        ll = 0.0
        for x in obs:
            lx = np.interp(x, grid, trained_model.mu_values) - rf.log_normalizer
            for j in range(k):
                lx += rf.theta[j] * np.interp(x, grid, trained_model.phi[:, j])
            ll += lx
        assert aic == pytest.approx(2 * k - 2 * ll, abs=1e-8)


def test_select_k_validation(trained_model):
    rng = np.random.default_rng(19)
    obs = rng.uniform(-2, 2, size=10)
    with pytest.raises(ValueError):
        select_k_aic(trained_model, obs, "ridge", 2)
    with pytest.raises(ValueError):
        select_k_aic(trained_model, obs, "mle", trained_model.n_components + 1)


def test_select_k_all_failures_raises():
    model = _identical_training_model()
    with pytest.raises(FitFailedError):
        select_k_aic(model, np.array([0.4, 0.5]), "map", 2)


def test_methods_coincide_for_identical_training_in_wide_prior_limit():
    model = _scaled_score_family(1e12)
    rng = np.random.default_rng(20)
    obs = rng.uniform(0.1, 0.9, size=10)
    r_mle = fit_mle(model, obs, 1)
    r_map = fit_map(model, obs, 1)
    assert abs(r_map.theta[0] - r_mle.theta[0]) < 1e-4


def test_blup_ridge_follows_the_condition_number():
    # total = sigma_phibar + sigma_tau has eigenvalues 1, 1e-3 and 1/cond in
    # a random basis; the ridge goes on exactly where cond exceeds 1e12
    k = 3
    q, _ = np.linalg.qr(np.random.default_rng(23).normal(size=(k, k)))
    sigma_tau = np.diag([0.3, 0.2, 0.1])
    totals = np.stack([q @ np.diag([1.0, 1e-3, lam]) @ q.T
                       for lam in (1e-6, 1e-11, 1e-13, 0.0)])
    stats = ShrinkageStats(tau_bar=np.zeros(k), sigma_tau=sigma_tau,
                           sigma_phibar=totals - sigma_tau, score_vars=np.ones(k))
    phibar = np.random.default_rng(29).normal(size=(len(totals), k))
    out = blup_moment(stats, phibar)

    total = stats.sigma_phibar + sigma_tau
    for row, (t, p, ridged) in enumerate(zip(total, phibar, (False, False, True, True))):
        ridge = BLUP_RIDGE * np.trace(t) / k
        with_ridge = sigma_tau @ np.linalg.solve(t + ridge * np.eye(k), p)
        np.testing.assert_allclose(out[row], with_ridge if ridged else
                                   sigma_tau @ np.linalg.solve(t, p), rtol=1e-9, atol=0)
        if row < 2:
            assert not np.allclose(out[row], with_ridge, rtol=1e-9, atol=0)
