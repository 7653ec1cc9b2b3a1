import numpy as np
import pytest
from scipy.stats import skew

from repden.expfam import log_trapz_exp
from repden.grid import Domain, integrate, quantile_of_density
from repden.logscale import (
    ScaledModel,
    clamp_log_obs,
    density_original_scale,
    fit_original_scale,
    fit_scaled,
)
from repden.metrics import kl_div, return_level
from repden.presmooth import SubpopSample

from conftest import make_family, parameters_preserved


def _lognormal_samples(n_subpops=8, size=60, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_subpops):
        mu = rng.uniform(2.6, 3.2)
        sd = rng.uniform(0.25, 0.4)
        out.append(SubpopSample(f"s{i}", np.exp(rng.normal(mu, sd, size=size))))
    return out


@pytest.fixture(scope="module")
def scaled():
    return fit_scaled(_lognormal_samples(), k_max=4)


def _uniform_x_scaled(n_grid=2001):
    """A wrapper whose log-scale member at theta=0 is uniform on [0, 1]."""
    dom = Domain(0.0, 1.0, n_grid)
    t = dom.grid
    model = make_family(dom, [t - 0.5])
    return ScaledModel(inner=model, delta=0.5)


def test_domain_construction(scaled):
    samples = _lognormal_samples()
    x_max = max(np.log(s.obs).max() for s in samples)
    assert scaled.inner.domain.lo == 0.0
    assert scaled.inner.domain.hi == pytest.approx(x_max + 0.5, abs=1e-12)
    assert scaled.inner.meta.log_scale is True
    assert scaled.inner.meta.delta == 0.5


def test_domain_widens_below_one_with_warning():
    samples = _lognormal_samples()
    small = SubpopSample("tiny", np.full(10, 0.2))  # log is negative
    with pytest.warns(UserWarning):
        m = fit_scaled(samples + [small], k_max=3)
    assert m.inner.domain.lo == pytest.approx(np.log(0.2) - 0.5)


def test_rejects_nonpositive_responses():
    bad = [SubpopSample("a", np.array([1.0, -2.0])), SubpopSample("b", np.array([1.0, 2.0]))]
    with pytest.raises(ValueError):
        fit_scaled(bad, k_max=2)


def test_log_scale_reduces_skewness():
    samples = _lognormal_samples(n_subpops=4, size=2500, seed=3)
    y = np.concatenate([s.obs for s in samples])
    x = np.log(y)
    assert abs(skew(x)) < skew(y)


def test_training_is_deterministic():
    m1 = fit_scaled(_lognormal_samples(), k_max=4)
    m2 = fit_scaled(_lognormal_samples(), k_max=4)
    assert np.array_equal(m1.inner.mu_values, m2.inner.mu_values)
    assert np.array_equal(m1.inner.phi, m2.inner.phi)


def test_original_scale_density_normalized(scaled):
    rng = np.random.default_rng(4)
    for _ in range(100):
        theta = rng.normal(0, 1, size=scaled.inner.n_components)
        p = density_original_scale(scaled, theta)
        assert integrate(p) == pytest.approx(1.0, abs=1e-6)
        assert p.values.min() >= 0


def test_uniform_member_maps_to_reciprocal_density():
    m = _uniform_x_scaled()
    p = density_original_scale(m, np.zeros(1))
    want = 1.0 / p.domain.grid
    assert np.max(np.abs(p.values - want)) < 1e-4
    assert p.domain.lo == pytest.approx(1.0)
    assert p.domain.hi == pytest.approx(np.e)


def test_quantile_equivariance(scaled):
    theta = np.full(scaled.inner.n_components, 0.3)
    from repden.expfam import density as family_density

    p_x = family_density(scaled.inner, theta)
    p_y = density_original_scale(scaled, theta)
    cell = p_y.domain.dt
    for q in (0.5, 0.8, 0.9, 0.95, 1 - 1 / 30):
        qx = quantile_of_density(p_x, q)
        qy = quantile_of_density(p_y, q)
        assert abs(qy - np.exp(qx)) <= 2 * cell


def test_fit_original_scale_methods(scaled):
    rng = np.random.default_rng(5)
    obs_y = np.exp(rng.normal(2.9, 0.3, size=15))
    r_fixed = fit_original_scale(scaled, obs_y, method="mle", k=2)
    assert r_fixed.k == 2 and len(r_fixed.aic_trace) == 1
    r_aic = fit_original_scale(scaled, obs_y, method="map", k=None, k_max=3)
    assert 1 <= r_aic.k <= 3 and len(r_aic.aic_trace) >= 1


def test_parameters_shared_between_scales(scaled):
    from repden.estimators import fit_mle

    rng = np.random.default_rng(6)
    obs_y = np.exp(rng.normal(2.9, 0.3, size=20))
    theta = parameters_preserved(scaled, obs_y, k=2, method="mle")
    direct = fit_mle(scaled.inner, np.log(obs_y), 2)
    assert np.max(np.abs(theta - direct.theta)) < 1e-10
    p1 = density_original_scale(scaled, theta)
    p2 = density_original_scale(scaled, direct.theta)
    assert kl_div(p1, p2) == pytest.approx(0.0, abs=1e-10)
    cell = p1.domain.dt
    for q in (0.5, 0.9):
        assert abs(
            quantile_of_density(p1, q) - quantile_of_density(p2, q)
        ) <= 2 * cell


def test_return_levels_through_original_scale(scaled):
    rng = np.random.default_rng(8)
    obs_y = np.exp(rng.normal(3.0, 0.3, size=12))
    r = fit_original_scale(scaled, obs_y, method="blup", k=2)
    p_y = density_original_scale(scaled, r.theta)
    levels = [return_level(p_y, t) for t in (5, 10, 20, 30)]
    assert np.all(np.diff(levels) >= 0)
    assert p_y.domain.lo < levels[0] < p_y.domain.hi


def test_out_of_domain_observations_clamped_with_warning(scaled):
    hi = scaled.inner.domain.hi
    obs_y = np.array([20.0, np.exp(hi) * 1.5])
    with pytest.warns(UserWarning):
        x = clamp_log_obs(scaled, obs_y)
    assert x.max() < hi
    assert scaled.inner.domain.contains(x)
    with pytest.raises(ValueError):
        clamp_log_obs(scaled, np.array([-1.0]))


def test_log_scale_density_keeps_the_floor_of_the_linear_scale():
    """Where ``exp`` of the log density underflows, the response-scale density
    is the 1e-300 floor of :func:`repden.expfam.density` divided by ``y``,
    as on the linear scale, so a held-out point there has a finite score."""
    m = _uniform_x_scaled(n_grid=20001)
    theta = np.array([400.0])
    g = m.inner.mu_values + m.inner.phi[:, 0] * theta[0]
    log_px = g - log_trapz_exp(g, m.inner.domain.trap_weights)
    assert np.exp(log_px[0]) == 0.0  # the log density itself underflows at x = 0
    p = density_original_scale(m, theta)
    y = p.domain.grid
    assert integrate(p) == pytest.approx(1.0, abs=1e-12)
    assert np.all(p.values > 0)
    assert p.values[0] * y[0] == pytest.approx(1e-300, rel=1e-3)
    assert -np.log(p.values[0]) == pytest.approx(300 * np.log(10), rel=1e-3)
