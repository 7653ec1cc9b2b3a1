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
from functools import partial

import numpy as np

from .estimators import fit, prepare
from .expfam import FamilyModel, density, rowwise, train_family
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
    warning records the widened domain.  Responses whose response grid
    overflows (see :func:`response_domain`) are rejected.
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
    response_domain(domain)
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
    sequence, a sample with a nonpositive response fails on its own.  Each
    sample is reduced up to ``k``, else ``k_max``, else every component; a
    batch already reduced on the log scale by ``prepare`` passes through as
    it is.
    """
    width = k or k_max or m.inner.n_components
    s, single = prepare(m.inner, obs_y, width, partial(clamp_log_obs, m))
    batch = fit(m.inner, s, method, k=k, k_max=k_max)
    return batch.item() if single else batch


def response_domain(dom: Domain) -> Domain:
    """The response grid of a log-scale domain: ``[exp(lo), exp(hi)]`` with
    four times as many points.  A ``ValueError`` if ``exp(hi)`` overflows."""
    with np.errstate(over="ignore"):
        hi = float(np.exp(dom.hi))
    if not np.isfinite(hi):
        raise ValueError(f"log-scale domain ends at {dom.hi:.6g}, so the response grid "
                         "overflows; responses must stay below exp(709.78 - delta)")
    return Domain(float(np.exp(dom.lo)), hi, 4 * dom.n_grid)


def pushforward_values(dom: Domain, px: np.ndarray) -> tuple[Domain, np.ndarray]:
    """Positive log-scale densities carried to the response scale,
    ``p_Y(y) = p_X(log y) / y``, for each row of ``px`` (values on ``dom``).

    The response grid is :func:`response_domain`; ``log p_X`` is interpolated
    linearly at ``log y``, and each row is renormalized under the
    response-grid trapezoidal rule.  Returns the response domain and the ``(m, 4G)`` values.
    """
    ydom = response_domain(dom)
    log_y = np.log(ydom.grid)
    vals = np.exp([np.interp(log_y, dom.grid, row) for row in np.log(px)]) / ydom.grid
    return ydom, vals / rowwise(vals, ydom.trap_weights[:, None])


def pushforward(p_x: GridFn) -> GridFn:
    """A positive log-scale density carried to the response scale by
    :func:`pushforward_values`."""
    ydom, vals = pushforward_values(p_x.domain, p_x.values[None])
    return GridFn(ydom, vals[0])


def density_original_scale(m: ScaledModel, theta) -> GridFn | tuple[Domain, np.ndarray]:
    """The fitted density carried back to the response scale by :func:`pushforward`;
    a stack ``(m, k)`` of ``theta`` gives :func:`pushforward_values` of its rows."""
    if np.ndim(theta) == 2:
        return pushforward_values(*density(m.inner, theta))
    return pushforward(density(m.inner, theta))
