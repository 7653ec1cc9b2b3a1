"""Log-scaling wrapper for heavy-tailed positive data.

The family is trained on ``X = log Y`` over a compact working domain built
from the observed range; densities and quantiles are reported back in the
original scale through the change of variables ``p_Y(y) = p_X(log y) / y``.
Natural parameters are shared between the two scales, so the shrinkage
machinery runs unchanged on the log scale.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .estimators import as_samples, fit
from .expfam import FamilyModel, log_trapz_exp, train_family, _check_theta
from .grid import Domain, GridFn
from .presmooth import SubpopSample

DEFAULT_DELTA = 0.5

# Relative offset used when clamping out-of-domain observations inward.
CLAMP_EPS_REL = 1e-9


@dataclass(frozen=True)
class ScaledModel:
    """A family trained on log-transformed responses plus its domain pad."""

    inner: FamilyModel
    delta: float

    @property
    def y_domain(self) -> tuple[float, float]:
        return (float(np.exp(self.inner.domain.lo)), float(np.exp(self.inner.domain.hi)))


def fit_scaled(
    train: list[SubpopSample],
    k_max: int,
    delta: float = DEFAULT_DELTA,
    bandwidth: float | None = None,
    n_grid: int = 512,
) -> ScaledModel:
    """Train on the log scale over ``[0, max(log Y) + delta]``.

    When some response is below one, the lower endpoint drops to
    ``min(log Y) - delta`` instead so every observation stays interior; a
    warning records the widened domain.
    """
    if delta <= 0:
        raise ValueError(f"domain pad must be positive, got {delta}")
    for s in train:
        if np.any(s.obs <= 0):
            raise ValueError(f"subpopulation {s.id!r} has nonpositive responses")
    logged = [SubpopSample(id=s.id, obs=np.log(s.obs)) for s in train]
    x_min = min(float(s.obs[0]) for s in logged)
    x_max = max(float(s.obs[-1]) for s in logged)
    lo = 0.0
    if x_min < 0:
        lo = x_min - delta
        warnings.warn(
            f"responses below one observed; working domain widened to [{lo:.6g}, ...]",
            stacklevel=2,
        )
    domain = Domain(lo, x_max + delta, n_grid)
    model = train_family(logged, domain, k_max, bandwidth=bandwidth)
    model.meta.log_scale = True
    model.meta.delta = float(delta)
    return ScaledModel(inner=model, delta=float(delta))


def clamp_log_obs(m: ScaledModel, obs_y) -> np.ndarray:
    """Log-transform new responses, clamping any that leave the trained domain."""
    obs_y = np.asarray(obs_y, dtype=float).ravel()
    if np.any(obs_y <= 0):
        raise ValueError("responses must be positive")
    x = np.log(obs_y)
    dom = m.inner.domain
    eps = CLAMP_EPS_REL * dom.length
    n_out = int(np.sum((x > dom.hi) | (x < dom.lo)))
    if n_out:
        warnings.warn(
            f"{n_out} observation(s) outside the trained domain were clamped",
            stacklevel=2,
        )
        x = np.clip(x, dom.lo + eps, dom.hi - eps)
    return x


def fit_original_scale(
    m: ScaledModel,
    obs_y,
    method: str = "mle",
    k: int | None = None,
    k_max: int | None = None,
):
    """Fit new original-scale samples; ``k=None`` selects the truncation by AIC.

    Takes one sample or a sequence, like :func:`repden.estimators.fit`; in a
    sequence, a sample with a nonpositive response fails on its own.
    """
    samples, single = as_samples(obs_y)
    if single:
        return fit(m.inner, clamp_log_obs(m, samples[0]), method, k=k, k_max=k_max)
    logged, outcomes = [], []
    for y in samples:
        try:
            logged.append(clamp_log_obs(m, y))
            outcomes.append(None)
        except ValueError as exc:
            outcomes.append(exc)
    fits = iter(fit(m.inner, logged, method, k=k, k_max=k_max))
    return [next(fits) if r is None else r for r in outcomes]


def density_original_scale(m: ScaledModel, theta, n_y: int | None = None) -> GridFn:
    """The fitted density carried back to the response scale.

    Evaluates the log-scale family density at ``log y`` on a uniform
    response grid (log-density components linearly interpolated), applies
    the ``1/y`` Jacobian, and renormalizes under the response-grid
    trapezoidal rule.
    """
    model = m.inner
    theta = _check_theta(model, theta)
    if n_y is None:
        n_y = 4 * model.domain.n_grid
    y_lo, y_hi = m.y_domain
    ydom = Domain(y_lo, y_hi, n_y)
    x = np.log(ydom.grid)
    xg = model.domain.grid
    g = model.mu_values + model.phi[:, : theta.size] @ theta
    b = log_trapz_exp(g, model.domain.trap_weights)
    log_px = np.interp(x, xg, model.mu_values - b)
    for j in range(theta.size):
        log_px += theta[j] * np.interp(x, xg, model.phi[:, j])
    vals = np.exp(log_px) / ydom.grid
    vals = vals / (ydom.trap_weights @ vals)
    return GridFn(ydom, vals)


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
