"""Fitting a new sample within the trained family: MLE, MAP, BLUP, and AIC.

All three fits reduce to the shared convex solver in :mod:`repden.expfam`.
The MAP posterior multiplies the per-observation likelihood by the sample
size before adding the log-prior, so smaller samples are shrunk harder; the
BLUP combines the sample statistic with the training mean through the
between- versus within-subpopulation covariances in moment coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .expfam import (
    FamilyModel,
    MomentRangeError,
    NewtonDivergenceError,
    check_moment_range,
    natural_from_moment,
    newton_minimize,
    suffstat_average,
    _moments_core,
)

BLUP_RIDGE = 1e-10
BLUP_COND_LIMIT = 1e12
BLUP_BOX_MARGIN = 1e-6


class ZeroPriorVarianceError(ValueError):
    """A training score variance is zero, so the MAP prior degenerates."""


class FitFailedError(RuntimeError):
    """No truncation level produced a valid fit."""


# What a fit raises for bad input or a failed solve; anything else is a bug.
# ``ValueError`` covers ``MomentRangeError`` and ``np.linalg.LinAlgError``.
FIT_ERRORS = (ValueError, FitFailedError, NewtonDivergenceError)


@dataclass(frozen=True)
class ShrinkageStats:
    """Training-side statistics entering the BLUP combination at one truncation.

    ``sigma_phibar`` is the expected within-subpopulation covariance of the
    sample statistic (scaled by the fitting sample size); ``sigma_tau`` the
    between-subpopulation covariance of the training moment coordinates.
    """

    tau_bar: np.ndarray
    sigma_tau: np.ndarray
    sigma_phibar: np.ndarray
    score_vars: np.ndarray


@dataclass(frozen=True)
class FitResult:
    """One fitted density: coordinates, log-likelihood, and the AIC trace."""

    method: str
    k: int
    theta: np.ndarray
    xi: np.ndarray
    log_normalizer: float
    loglik: float
    aic_trace: tuple[tuple[int, float], ...]
    n_obs: int

    @property
    def aic(self) -> float:
        return 2.0 * self.k - 2.0 * self.loglik


def _loglik(model: FamilyModel, theta: np.ndarray, obs: np.ndarray, b: float) -> float:
    """Full-sample log-likelihood; grid functions interpolated at the data."""
    grid = model.domain.grid
    k = theta.size
    mu_at = np.interp(obs, grid, model.mu_values)
    phi_at = np.column_stack(
        [np.interp(obs, grid, model.phi[:, j]) for j in range(k)]
    )
    return float(mu_at.sum() + (phi_at @ theta).sum() - obs.size * b)


def _finish(model, method, k, theta, obs) -> FitResult:
    _, b, xi, _ = _moments_core(model, theta)
    ll = _loglik(model, theta, obs, b)
    result = FitResult(
        method=method,
        k=k,
        theta=theta,
        xi=xi,
        log_normalizer=b,
        loglik=ll,
        aic_trace=(),
        n_obs=int(obs.size),
    )
    return replace(result, aic_trace=((k, result.aic),))


def shrinkage_stats(model: FamilyModel, k: int, fit_n: int) -> ShrinkageStats:
    """All four training-side shrinkage statistics at truncation ``k``."""
    if model.n_train < 2:
        raise ValueError("shrinkage statistics need at least two training subpopulations")
    if not 1 <= k <= model.n_components:
        raise ValueError(f"k must be in [1, {model.n_components}], got {k}")
    if fit_n < 1:
        raise ValueError(f"fitting sample size must be positive, got {fit_n}")
    s = model.summary(k)
    return ShrinkageStats(
        tau_bar=s.tau_bar,
        sigma_tau=s.sigma_tau,
        sigma_phibar=s.phibar_base / fit_n,
        score_vars=s.score_vars,
    )


def fit_mle(model: FamilyModel, obs, k: int, theta0=None) -> FitResult:
    """Maximum likelihood within the truncated family.

    The first-order condition matches the model moments to the sample
    statistic average, so this is a plain moment inversion.
    """
    obs = np.asarray(obs, dtype=float).ravel()
    phibar = suffstat_average(model, obs, k)
    check_moment_range(model, phibar)
    theta = newton_minimize(model, k, phibar, theta0=theta0)
    return _finish(model, "MLE", k, theta, obs)


def fit_map(model: FamilyModel, obs, k: int, theta0=None) -> FitResult:
    """Posterior mode under independent zero-mean normal priors on ``theta``.

    Prior variances are the training score variances; the likelihood term is
    the full-sample one, so the prior pulls harder when ``obs`` is small.
    """
    obs = np.asarray(obs, dtype=float).ravel()
    phibar = suffstat_average(model, obs, k)
    check_moment_range(model, phibar)
    svars = model.summary(k).score_vars
    if np.any(svars <= 0):
        raise ZeroPriorVarianceError(
            "a training score variance is zero for the requested truncation"
        )
    penalty = 1.0 / (obs.size * svars)
    theta = newton_minimize(model, k, phibar, diag_penalty=penalty, theta0=theta0)
    return _finish(model, "MAP", k, theta, obs)


def blup_moment(stats: ShrinkageStats, phibar: np.ndarray) -> np.ndarray:
    """The affine shrinkage combination in moment coordinates."""
    k = phibar.size
    total = stats.sigma_phibar + stats.sigma_tau
    cond = np.linalg.cond(total)
    if not np.isfinite(cond) or cond > BLUP_COND_LIMIT:
        total = total + (BLUP_RIDGE * np.trace(total) / k) * np.eye(k)
    try:
        gain = np.linalg.solve(total, phibar - stats.tau_bar)
    except np.linalg.LinAlgError:
        total = total + (BLUP_RIDGE * max(np.trace(total), 1.0) / k) * np.eye(k)
        gain = np.linalg.solve(total, phibar - stats.tau_bar)
    return stats.sigma_tau @ gain + stats.tau_bar


def _pull_into_range(model: FamilyModel, xi: np.ndarray, tau_bar: np.ndarray) -> np.ndarray:
    """Shrink ``xi`` along the segment toward ``tau_bar`` until strictly inside
    the moment range, keeping a small margin off the boundary."""
    k = xi.size
    lo = model.moment_lo[:k] + BLUP_BOX_MARGIN
    hi = model.moment_hi[:k] - BLUP_BOX_MARGIN
    if np.all(xi > lo) and np.all(xi < hi):
        return xi
    d = xi - tau_bar
    t_max = 1.0
    for j in range(k):
        if d[j] > 0:
            t_max = min(t_max, (hi[j] - tau_bar[j]) / d[j])
        elif d[j] < 0:
            t_max = min(t_max, (lo[j] - tau_bar[j]) / d[j])
    t_max = max(t_max, 0.0)
    return tau_bar + t_max * d


def fit_blup(model: FamilyModel, obs, k: int, fit_n: int | None = None,
             theta0=None) -> FitResult:
    """Shrinkage fit in moment coordinates, then mapped back to ``theta``.

    ``fit_n`` overrides the sample size entering the within-subpopulation
    covariance; by default it is the number of observations.
    """
    obs = np.asarray(obs, dtype=float).ravel()
    phibar = suffstat_average(model, obs, k)
    check_moment_range(model, phibar)
    stats = shrinkage_stats(model, k, fit_n if fit_n is not None else obs.size)
    xi = blup_moment(stats, phibar)
    xi = _pull_into_range(model, xi, stats.tau_bar)
    theta = natural_from_moment(model, xi, theta0=theta0)
    return _finish(model, "BLUP", k, theta, obs)


_FITTERS = {"mle": fit_mle, "map": fit_map, "blup": fit_blup}

FAMILY_METHODS = tuple(_FITTERS)


def _fitter(method: str):
    tag = method.lower()
    if tag not in _FITTERS:
        raise ValueError(f"unknown method {method!r}; expected one of {sorted(_FITTERS)}")
    return _FITTERS[tag]


def fit(model: FamilyModel, obs, method: str, k: int | None = None,
        k_max: int | None = None) -> FitResult:
    """Fit ``obs`` by ``method`` (``mle``, ``map`` or ``blup``) at truncation ``k``.

    ``k=None`` selects the truncation by AIC over ``1..k_max`` (all retained
    components when ``k_max`` is None).
    """
    if k is None:
        return select_k_aic(model, obs, method,
                            model.n_components if k_max is None else k_max)
    return _fitter(method)(model, obs, k)


def select_k_aic(model: FamilyModel, obs, method: str, k_max: int) -> FitResult:
    """Fit at every truncation up to ``k_max`` and keep the AIC minimizer.

    Truncations where the fit errors are skipped and absent from the trace;
    ties go to the smallest ``k``.
    """
    fitter = _fitter(method)
    if not 1 <= k_max <= model.n_components:
        raise ValueError(f"k_max must be in [1, {model.n_components}], got {k_max}")
    trace: list[tuple[int, float]] = []
    best: FitResult | None = None
    warm: np.ndarray | None = None
    for k in range(1, k_max + 1):
        theta0 = None
        if warm is not None:
            theta0 = np.concatenate([warm, np.zeros(k - warm.size)])
        try:
            result = fitter(model, obs, k, theta0=theta0)
        except (MomentRangeError, NewtonDivergenceError, ZeroPriorVarianceError,
                np.linalg.LinAlgError):
            continue
        warm = result.theta
        trace.append((k, result.aic))
        if best is None or result.aic < best.aic:
            best = result
    if best is None:
        raise FitFailedError(f"all truncations 1..{k_max} failed for method {method!r}")
    return replace(best, aic_trace=tuple(trace))
