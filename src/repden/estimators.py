"""Fitting a new sample within the trained family: MLE, MAP, BLUP, and AIC.

All three fits reduce to the shared convex solver in :mod:`repden.expfam`.
Every fitter takes one sample or a sequence of samples; a sequence is
solved as one batch and gives one result or one error per sample.  The MAP
posterior multiplies the per-observation likelihood by the sample
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
    natural_from_moment,
    newton_minimize,
    rowwise,
    suffstat_average,
    suffstat_values,
    _moments,
    _outside_range,
)

BLUP_RIDGE = 1e-10
BLUP_COND_LIMIT = 1e12
BLUP_BOX_MARGIN = 1e-6

# Samples solved together by one call of ``fit``: a batch's working memory is
# a few arrays of ``BATCH_SIZE x n_grid`` values.  At the default grid they
# stay in a core's L2 cache; batches of 1024 took about 1.5x as long to solve
# 4800 leave-one-out subsets.
BATCH_SIZE = 256


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


def as_samples(obs) -> tuple[list[np.ndarray], bool]:
    """``obs`` as a list of 1-D samples, and whether it was a single sample.

    A list or tuple whose items are arrays is a sequence of samples; any
    other value (an array, or a list of numbers) is one sample.
    """
    if isinstance(obs, (list, tuple)) and (not obs or np.ndim(obs[0]) > 0):
        return [np.asarray(o, dtype=float).ravel() for o in obs], False
    return [np.asarray(obs, dtype=float).ravel()], True


@dataclass(frozen=True)
class _Samples:
    """Samples reduced to what every fit uses: their sizes, and the means of
    ``mu`` and of the statistics up to one truncation, each sample
    interpolated once.  A sample that failed validation keeps its error."""

    n: np.ndarray
    mu_bar: np.ndarray
    phibar: np.ndarray
    errors: tuple

    def __len__(self) -> int:
        return self.n.size

    def __getitem__(self, rows: slice) -> _Samples:
        return _Samples(self.n[rows], self.mu_bar[rows], self.phibar[rows], self.errors[rows])


def prepare(model: FamilyModel, obs, k: int, scale=None) -> tuple[_Samples, bool]:
    """``obs`` reduced up to truncation ``k``, and whether it was one sample;
    already reduced samples pass through as a batch.  ``scale`` maps a
    sample to the model's scale first; a sample it rejects with a
    ``ValueError`` keeps that error, as does one that fails validation."""
    if isinstance(obs, _Samples):
        return obs, False
    samples, single = as_samples(obs)
    m = len(samples)
    phibar = np.full((m, k), np.nan)
    mu_bar = np.full(m, np.nan)
    errors: list[ValueError | None] = [None] * m
    for i, x in enumerate(samples):
        try:
            x = x if scale is None else scale(x)
            phibar[i] = suffstat_average(model, x, k)
        except ValueError as exc:
            errors[i] = exc
            continue
        mu_bar[i] = np.interp(x, model.domain.grid, model.mu_values).mean()
    n = np.array([x.size for x in samples], dtype=int)
    return _Samples(n=n, mu_bar=mu_bar, phibar=phibar, errors=tuple(errors)), single


def loo_subsets(model: FamilyModel, samples: list[np.ndarray], k: int, scale=None) -> _Samples:
    """The leave-one-out subsets of every sample, in order, reduced up to
    truncation ``k`` as one batch for :func:`fit`; ``scale`` is as in
    :func:`prepare`.

    Each sample is interpolated once: subset ``j`` of ``N`` values has the
    means ``(sum - value_j) / (N - 1)`` and ``N - 1`` observations.  The
    subsets of a sample with fewer than two values, with a value outside
    the domain, or that ``scale`` rejects are reduced one by one, so each
    keeps the error a direct fit of it gives.
    """
    parts = []
    for y in samples:
        try:
            x = y if scale is None else scale(y)
        except ValueError:
            x = None
        if x is None or x.size < 2 or not model.domain.contains(x):
            parts.append(prepare(model, [np.delete(y, j) for j in range(y.size)], k, scale)[0])
            continue
        phi = suffstat_values(model, x, k)
        mu = np.interp(x, model.domain.grid, model.mu_values)
        n = x.size - 1
        parts.append(_Samples(n=np.full(x.size, n), mu_bar=(mu.sum() - mu) / n,
                              phibar=(phi.sum(axis=1)[:, None] - phi).T / n,
                              errors=(None,) * x.size))
    return _Samples(n=np.concatenate([p.n for p in parts]),
                    mu_bar=np.concatenate([p.mu_bar for p in parts]),
                    phibar=np.concatenate([p.phibar for p in parts]),
                    errors=tuple(e for p in parts for e in p.errors))


def _unwrap(results: list, single: bool):
    """One sample's result, raising its error; or the whole list."""
    if not single:
        return results
    if isinstance(results[0], Exception):
        raise results[0]
    return results[0]


def _fit(model: FamilyModel, obs, k: int, theta0, method: str, solve):
    """Run ``solve(n, phibar, theta0) -> (theta, errors)`` on the samples whose
    statistics are inside the moment range, and package every row."""
    s, single = prepare(model, obs, k)
    phibar = s.phibar[:, :k]
    errors = list(s.errors)
    for i in np.flatnonzero(_outside_range(model, phibar)):
        errors[i] = MomentRangeError()
    rows = np.flatnonzero([e is None for e in errors])
    theta = np.full(phibar.shape, np.nan)
    if rows.size:
        start = None if theta0 is None else np.reshape(theta0, phibar.shape)[rows]
        theta[rows], row_errors = solve(s.n[rows], phibar[rows], start)
        for i, e in zip(rows, row_errors):
            errors[i] = e
    results: list = errors
    ok = np.flatnonzero([e is None for e in errors])
    if ok.size:
        _, b, xi = _moments(model, theta[ok])
        n = s.n[ok]
        # the sum over observations of mu + phi @ theta - B, from the means
        loglik = n * (s.mu_bar[ok] + np.einsum("ij,ij->i", phibar[ok], theta[ok]) - b)
        for j, i in enumerate(ok):
            ll = float(loglik[j])
            results[i] = FitResult(method=method, k=k, theta=theta[i], xi=xi[j],
                                   log_normalizer=float(b[j]), loglik=ll,
                                   aic_trace=((k, 2.0 * k - 2.0 * ll),), n_obs=int(n[j]))
    return _unwrap(results, single)


def shrinkage_stats(model: FamilyModel, k: int, fit_n) -> ShrinkageStats:
    """All four training-side shrinkage statistics at truncation ``k``.

    ``fit_n`` is one sample size or an array of them; an array stacks
    ``sigma_phibar`` along a leading axis.
    """
    s = model.summary(k)
    fit_n = np.asarray(fit_n)
    if np.any(fit_n < 1):
        raise ValueError(f"fitting sample size must be positive, got {fit_n}")
    return ShrinkageStats(
        tau_bar=s.tau_bar,
        sigma_tau=s.sigma_tau,
        sigma_phibar=s.phibar_base / fit_n[..., None, None],
        score_vars=s.score_vars,
    )


def fit_mle(model: FamilyModel, obs, k: int, theta0=None):
    """Maximum likelihood within the truncated family.

    The first-order condition matches the model moments to the sample
    statistic average, so this is a plain moment inversion.
    """
    def solve(n, phibar, start):
        return newton_minimize(model, k, phibar, theta0=start)

    return _fit(model, obs, k, theta0, "MLE", solve)


def fit_map(model: FamilyModel, obs, k: int, theta0=None):
    """Posterior mode under independent zero-mean normal priors on ``theta``.

    Prior variances are the training score variances; the likelihood term is
    the full-sample one, so the prior pulls harder when ``obs`` is small.
    """
    def solve(n, phibar, start):
        svars = model.summary(k).score_vars
        if np.any(svars <= 0):
            return np.full(phibar.shape, np.nan), [ZeroPriorVarianceError(
                "a training score variance is zero for the requested truncation"
            ) for _ in n]
        penalty = 1.0 / (n[:, None] * svars)
        return newton_minimize(model, k, phibar, diag_penalty=penalty, theta0=start)

    return _fit(model, obs, k, theta0, "MAP", solve)


def blup_moment(stats: ShrinkageStats, phibar: np.ndarray) -> np.ndarray:
    """The affine shrinkage combination in moment coordinates.

    ``phibar`` is one statistic ``(k,)`` or a stack ``(m, k)`` matching a
    stacked ``stats.sigma_phibar``.  Where ``total = sigma_phibar + sigma_tau``
    has a condition number that is not finite or exceeds ``BLUP_COND_LIMIT``,
    its diagonal gains ``BLUP_RIDGE * s / k``, ``s`` its trace or 1 where that is 0.
    """
    k = phibar.shape[-1]
    total = stats.sigma_phibar + stats.sigma_tau
    trace = np.trace(total, axis1=-2, axis2=-1)
    cond = np.linalg.cond(total)
    scale = np.where(trace == 0, 1.0, trace)
    ridge = np.where(np.isfinite(cond) & (cond <= BLUP_COND_LIMIT), 0.0, BLUP_RIDGE * scale / k)
    total = total + ridge[..., None, None] * np.eye(k)
    gain = np.linalg.solve(total, (phibar - stats.tau_bar)[..., None])[..., 0]
    return rowwise(gain, stats.sigma_tau.T) + stats.tau_bar


def _pull_into_range(model: FamilyModel, xi: np.ndarray, tau_bar: np.ndarray) -> np.ndarray:
    """Shrink each row of ``xi`` along the segment toward ``tau_bar`` until
    strictly inside the moment range, keeping a small margin off the boundary."""
    k = xi.shape[-1]
    lo = model.moment_lo[:k] + BLUP_BOX_MARGIN
    hi = model.moment_hi[:k] - BLUP_BOX_MARGIN
    inside = np.all((xi > lo) & (xi < hi), axis=-1)
    d = xi - tau_bar
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        reach = np.where(d > 0, (hi - tau_bar) / d, np.where(d < 0, (lo - tau_bar) / d, np.inf))
    t_max = np.maximum(np.minimum(reach.min(axis=-1), 1.0), 0.0)
    return np.where(inside[..., None], xi, tau_bar + t_max[..., None] * d)


def fit_blup(model: FamilyModel, obs, k: int, fit_n: int | None = None,
             theta0=None):
    """Shrinkage fit in moment coordinates, then mapped back to ``theta``.

    ``fit_n`` overrides the sample size entering the within-subpopulation
    covariance; by default it is the number of observations.
    """
    def solve(n, phibar, start):
        stats = shrinkage_stats(model, k, n if fit_n is None else fit_n)
        xi = _pull_into_range(model, blup_moment(stats, phibar), stats.tau_bar)
        return natural_from_moment(model, xi, theta0=start)

    return _fit(model, obs, k, theta0, "BLUP", solve)


_FITTERS = {"mle": fit_mle, "map": fit_map, "blup": fit_blup}

FAMILY_METHODS = tuple(_FITTERS)


def _fitter(method: str):
    tag = method.lower()
    if tag not in _FITTERS:
        raise ValueError(f"unknown method {method!r}; expected one of {sorted(_FITTERS)}")
    return _FITTERS[tag]


def fit(model: FamilyModel, obs, method: str, k: int | None = None,
        k_max: int | None = None):
    """Fit ``obs`` by ``method`` (``mle``, ``map`` or ``blup``) at truncation ``k``.

    ``k=None`` selects the truncation by AIC over ``1..k_max`` (all retained
    components when ``k_max`` is None).  One sample gives a
    :class:`FitResult` or raises; a sequence of samples (see
    :func:`as_samples`), or the subsets of :func:`loo_subsets`, is fitted
    in batches of up to ``BATCH_SIZE`` and gives, per sample, a
    :class:`FitResult` or the ``FIT_ERRORS`` instance it failed with.
    """
    samples = obs if isinstance(obs, _Samples) else as_samples(obs)[0]
    if len(samples) > BATCH_SIZE:
        return [r for i in range(0, len(samples), BATCH_SIZE)
                for r in fit(model, samples[i:i + BATCH_SIZE], method, k, k_max)]
    if k is None:
        return select_k_aic(model, obs, method,
                            model.n_components if k_max is None else k_max)
    return _fitter(method)(model, obs, k)


def select_k_aic(model: FamilyModel, obs, method: str, k_max: int):
    """Fit at every truncation up to ``k_max`` and keep the AIC minimizer.

    Truncations where the fit errors are skipped and absent from the trace;
    ties go to the smallest ``k``.  All samples are fitted at ``k = 1``, then
    at ``k = 2`` warm-started from each sample's last successful truncation
    padded with zeros, and so on.  A sample that fails validation keeps its
    error.
    """
    fitter = _fitter(method)
    if not 1 <= k_max <= model.n_components:
        raise ValueError(f"k_max must be in [1, {model.n_components}], got {k_max}")
    s, single = prepare(model, obs, k_max)
    fits: list[list[tuple[float, FitResult]]] = [[] for _ in range(len(s))]
    warm = np.zeros((len(s), k_max))
    for k in range(1, k_max + 1):
        for i, r in enumerate(fitter(model, s, k, theta0=warm[:, :k])):
            if isinstance(r, FitResult):
                warm[i, :k] = r.theta
                fits[i].append((r.aic, r))
    failed = f"all truncations 1..{k_max} failed for method {method!r}"
    results = [
        err if err is not None
        else FitFailedError(failed) if not rs
        else replace(min(rs, key=lambda p: p[0])[1], aic_trace=tuple((r.k, a) for a, r in rs))
        for err, rs in zip(s.errors, fits)
    ]
    return _unwrap(results, single)
