"""Properties of the moment map, the BLUP combination and the log-scale pushforward."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repden.estimators import blup_moment, shrinkage_stats
from repden.expfam import density, log_trapz_exp, moment_map, natural_from_moment
from repden.grid import Domain, integrate
from repden.logscale import ScaledModel, density_original_scale, pushforward

BOX = 1.5


def _theta(data, k: int) -> np.ndarray:
    return np.array(data.draw(st.lists(st.floats(-BOX, BOX), min_size=k, max_size=k)))


@settings(max_examples=30, deadline=None)
@given(data=st.data(), k=st.integers(1, 3))
def test_moment_map_inverts_natural_from_moment(trained_model, data, k):
    # a convex combination of training moments lies inside the moment range
    moments = trained_model.train_moments(k)
    raw = data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(moments),
                             max_size=len(moments)))
    xi = (np.array(raw) / sum(raw)) @ moments
    theta = natural_from_moment(trained_model, xi)
    assert np.max(np.abs(moment_map(trained_model, theta) - xi)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(data=st.data(), k=st.integers(1, 3), n=st.integers(2, 200),
       a=st.floats(-1.0, 2.0))
def test_blup_moment_is_affine_in_phibar(trained_model, data, k, n, a):
    stats = shrinkage_stats(trained_model, k, n)
    p1, p2 = _theta(data, k), _theta(data, k)
    mixed = blup_moment(stats, a * p1 + (1 - a) * p2)
    combined = a * blup_moment(stats, p1) + (1 - a) * blup_moment(stats, p2)
    assert np.allclose(mixed, combined, rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), k=st.integers(1, 3))
def test_densities_and_pushforwards_integrate_to_one(trained_model, data, k):
    p = density(trained_model, _theta(data, k))
    assert abs(integrate(p) - 1.0) < 1e-12
    assert abs(integrate(pushforward(p)) - 1.0) < 1e-12


@settings(max_examples=30, deadline=None)
@given(data=st.data(), k=st.integers(1, 3))
def test_density_original_scale_is_the_changed_variable(trained_model, data, k):
    """Against ``p_X(log y) / y`` built from the log-density components one by one."""
    scaled = ScaledModel(inner=trained_model, delta=0.5)
    theta = _theta(data, k)
    xdom = trained_model.domain
    ydom = Domain(float(np.exp(xdom.lo)), float(np.exp(xdom.hi)), 4 * xdom.n_grid)
    x = np.log(ydom.grid)
    g = trained_model.mu_values + trained_model.phi[:, :k] @ theta
    log_px = np.interp(x, xdom.grid, trained_model.mu_values - log_trapz_exp(g, xdom.trap_weights))
    for j in range(k):
        log_px += theta[j] * np.interp(x, xdom.grid, trained_model.phi[:, j])
    want = np.exp(log_px) / ydom.grid
    want /= ydom.trap_weights @ want
    got = density_original_scale(scaled, theta)
    assert got.domain == ydom
    assert np.max(np.abs(got.values - want) / want) < 1e-12
