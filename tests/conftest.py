"""Shared builders (hand-made toy families, a small trained model) and test oracles."""

import numpy as np
import pytest

from repden.estimators import fit
from repden.expfam import FamilyModel, ModelMeta, train_family
from repden.fpca import EigenSystem
from repden.grid import Domain, GridFn
from repden.logmap import LogDensityFn
from repden.logscale import ScaledModel, clamp_log_obs, fit_original_scale
from repden.simgen import default_spec, generate, scenario_domain


def orthonormalize(domain: Domain, columns) -> list[np.ndarray]:
    """Gram-Schmidt under the trapezoidal inner product."""
    w = domain.trap_weights
    out = []
    for col in columns:
        v = np.asarray(col, dtype=float).copy()
        for u in out:
            v -= (w @ (v * u)) * u
        v /= np.sqrt(w @ (v * v))
        out.append(v)
    return out


def centered(domain: Domain, vals: np.ndarray) -> np.ndarray:
    """Subtract the domain-average so the values integrate to zero."""
    return vals - (domain.trap_weights @ vals) / domain.length


def make_family(
    domain: Domain,
    phi_cols,
    mu_vals=None,
    eigvals=None,
    scores=None,
    train_densities=None,
) -> FamilyModel:
    """A family with hand-picked components; inputs are orthonormalized."""
    phi = orthonormalize(domain, phi_cols)
    k = len(phi)
    if mu_vals is None:
        mu_vals = np.zeros(domain.n_grid)
    mu_vals = centered(domain, np.asarray(mu_vals, dtype=float))
    if eigvals is None:
        eigvals = np.linspace(1.0, 0.5, k)
    if scores is None:
        rng = np.random.default_rng(5)
        scores = rng.normal(0, np.sqrt(eigvals), size=(8, k))
        scores -= scores.mean(axis=0)
    scores = np.asarray(scores, dtype=float)
    sys = EigenSystem(
        mu=LogDensityFn(GridFn(domain, mu_vals)),
        eigvals=np.asarray(eigvals, dtype=float),
        eigfns=tuple(GridFn(domain, p) for p in phi),
        scores=scores,
    )
    if train_densities is None:
        w = domain.trap_weights
        phi_mat = np.column_stack(phi)
        densities = []
        for row in scores:
            g = mu_vals + phi_mat @ row
            vals = np.exp(g - g.max())
            densities.append(GridFn(domain, vals / (w @ vals)))
        train_densities = tuple(densities)
    meta = ModelMeta(
        n_train=scores.shape[0],
        train_sizes=tuple([20] * scores.shape[0]),
        bandwidth=0.1,
    )
    return FamilyModel(sys=sys, domain=domain, train_densities=tuple(train_densities), meta=meta)


def rank1_family(n_grid: int = 20001, scores=None) -> FamilyModel:
    """One linear component on [0, 1]; dense grid for quadrature oracles."""
    dom = Domain(0.0, 1.0, n_grid)
    t = dom.grid
    return make_family(dom, [np.sqrt(12.0) * (t - 0.5)], scores=scores)


def two_component_family(n_grid: int = 4001) -> FamilyModel:
    dom = Domain(0.0, 1.0, n_grid)
    t = dom.grid
    return make_family(dom, [t - 0.5, (t - 0.5) ** 2], eigvals=np.array([1.0, 0.4]))


def parameters_preserved(m: ScaledModel, obs_y, k: int, method: str = "mle") -> np.ndarray:
    """Confirm the two fitting routes share one parameter vector.

    Fits the sample through the original-scale wrapper and directly on the
    log scale; the shared ``theta`` is returned after checking the two
    agree to machine precision.
    """
    via_wrapper = fit_original_scale(m, obs_y, method=method, k=k)
    direct = fit(m.inner, clamp_log_obs(m, obs_y), method, k=k)
    if not np.allclose(via_wrapper.theta, direct.theta, rtol=0, atol=1e-10):
        raise AssertionError("scale wrapper and direct log-scale fit disagree")
    return via_wrapper.theta


@pytest.fixture(scope="session")
def trained_model() -> FamilyModel:
    """A small family trained end to end on generated data."""
    spec = default_spec("trunc_normal", seed=123, n_train=12, train_size=120, n_test=1)
    train, _ = generate(spec, n_grid=256)
    return train_family(train, scenario_domain("trunc_normal", 256), 6)
