"""Fitting a new sample within the trained family: MLE, MAP, BLUP, and AIC.

All three fits reduce to the shared convex solver in :mod:`repden.expfam`.
Every fitter takes one sample, which gives a :class:`FitResult` or raises, or
a sequence of samples, solved as one batch into a :class:`FitBatch`.  The MAP
posterior multiplies the per-observation likelihood by the sample
size before adding the log-prior, so smaller samples are shrunk harder; the
BLUP combines the sample statistic with the training mean through the
between- versus within-subpopulation covariances in moment coordinates.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .expfam import (
    FamilyModel,
    MomentRangeError,
    NewtonDivergenceError,
    NewtonRecord,
    natural_from_moment,
    newton_minimize,
    rowwise,
    suffstat_average,
    suffstat_values,
    _outside_range,
)

# Rows of one stacked density call in FitBatch.densities: each holds a few
# rows x grid buffers, and 256-row blocks raised simulate's peak memory.
DENSITY_ROWS = 32

# A batch longer than one Newton block on any grid of 256 points or more.
BATCH_SIZE = 256

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


@dataclass(frozen=True, eq=False)
class FitBatch(Sequence):
    """The fits of a batch of samples as read-only columns, one row per sample:
    ``k`` (0 where the row failed), ``theta`` and ``xi`` NaN-padded to the
    widest truncation, ``aic`` with one column per truncation (NaN where it
    was not fitted), and ``errors`` (a failed row's error, else None).
    ``batch[i]`` builds row ``i``'s :class:`FitResult`, or is its error, and
    :meth:`densities` maps the fitted rows to their densities."""

    method: str
    k: np.ndarray
    theta: np.ndarray
    xi: np.ndarray
    log_normalizer: np.ndarray
    loglik: np.ndarray
    n_obs: np.ndarray
    aic: np.ndarray
    errors: tuple

    def __post_init__(self):
        for a in (self.k, self.theta, self.xi, self.log_normalizer, self.loglik, self.n_obs,
                  self.aic):
            a.setflags(write=False)

    def __len__(self) -> int:
        return len(self.errors)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        if self.errors[i] is not None:
            return self.errors[i]
        k = int(self.k[i])
        trace = tuple((j + 1, a) for j, a in enumerate(self.aic[i].tolist()) if not np.isnan(a))
        return FitResult(self.method, k, self.theta[i, :k], self.xi[i, :k],
                         float(self.log_normalizer[i]), float(self.loglik[i]), trace,
                         int(self.n_obs[i]))

    def __eq__(self, other):
        return list(self) == other if isinstance(other, list) else NotImplemented

    def densities(self, density):
        """``(rows, domain, values)`` for the fitted rows, by blocks of at most
        ``DENSITY_ROWS`` rows of one truncation ``k`` (ascending): ``domain``
        and ``values`` are ``density(self.theta[rows, :k])``, one stacked call."""
        for k in sorted(set(self.k.tolist()) - {0}):
            rows = np.flatnonzero(self.k == k)
            for start in range(0, rows.size, DENSITY_ROWS):
                block = rows[start:start + DENSITY_ROWS]
                yield (block, *density(self.theta[block, :k]))

    def item(self) -> FitResult:
        """The first row's :class:`FitResult`; raises the row's error."""
        if self.errors[0] is not None:
            raise self.errors[0]
        return self[0]


def _columns(m: int, width: int) -> dict:
    """Writable :class:`FitBatch` columns of ``m`` rows, none of them fitted."""
    return {"k": np.zeros(m, dtype=int), "theta": np.full((m, width), np.nan),
            "xi": np.full((m, width), np.nan), "log_normalizer": np.full(m, np.nan),
            "loglik": np.full(m, np.nan), "aic": np.full((m, width), np.nan)}


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


def prepare(model: FamilyModel, obs, k: int, scale=None) -> tuple[_Samples, bool]:
    """``obs`` reduced up to truncation ``k``, and whether it was one sample;
    reduced samples pass through as a batch (a ``ValueError`` if narrower than
    ``k``).  ``scale`` maps a sample to the model's scale first; a sample it
    rejects with a ``ValueError`` keeps that error, as does one that fails validation."""
    if isinstance(obs, _Samples):
        if obs.phibar.shape[1] < k:
            raise ValueError(f"samples reduced up to truncation {obs.phibar.shape[1]} "
                             f"cannot be fitted at truncation {k}")
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


def _fit(model: FamilyModel, obs, k: int, theta0, method: str, solve):
    """Run ``solve(n, phibar, theta0)``, which returns the solver's
    :class:`NewtonRecord`, on the samples whose statistics are inside the
    moment range, and copy the rows it solved into a :class:`FitBatch`."""
    s, single = prepare(model, obs, k)
    phibar = s.phibar[:, :k]
    errors = np.array(s.errors, dtype=object)
    for i in np.flatnonzero(_outside_range(model, phibar)):
        errors[i] = MomentRangeError()
    rows = np.flatnonzero([e is None for e in errors])
    start = None if theta0 is None else np.reshape(theta0, phibar.shape)[rows]
    rec = solve(s.n[rows], phibar[rows], start)
    # the sum over observations of mu + phi @ theta - B, from the means
    loglik = s.n[rows] * (s.mu_bar[rows] + np.einsum("ij,ij->i", phibar[rows], rec.theta) - rec.b)
    errors[rows] = rec.errors
    ok = np.array([e is None for e in rec.errors], dtype=bool)
    done = rows[ok]
    # the columns are made after the solve, so they never share its peak
    c = _columns(len(s), k)
    c["k"][done], c["theta"][done], c["xi"][done] = k, rec.theta[ok], rec.xi[ok]
    c["log_normalizer"][done], c["loglik"][done] = rec.b[ok], loglik[ok]
    c["aic"][done, k - 1] = 2.0 * k - 2.0 * loglik[ok]
    batch = FitBatch(method, n_obs=s.n.copy(), errors=tuple(errors), **c)
    return batch.item() if single else batch


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
            return NewtonRecord.failed(k, [ZeroPriorVarianceError(
                "a training score variance is zero for the requested truncation"
            ) for _ in n])
        penalty = 1.0 / (n[:, None] * svars)
        return newton_minimize(model, k, phibar, diag_penalty=penalty, theta0=start)

    return _fit(model, obs, k, theta0, "MAP", solve)


def blup_moment(stats: ShrinkageStats, phibar: np.ndarray) -> np.ndarray:
    """The affine shrinkage combination in moment coordinates.

    ``phibar`` is one statistic ``(k,)`` or a stack ``(m, k)`` matching a
    stacked ``stats.sigma_phibar``.  ``total = sigma_phibar + sigma_tau`` is
    symmetric, so its condition number is the ratio of its extreme
    eigenvalues, infinite unless the smallest is positive.  Where it exceeds
    ``BLUP_COND_LIMIT``, the diagonal of ``total`` gains
    ``BLUP_RIDGE * s / k``, ``s`` its trace or 1 where that is 0.
    """
    k = phibar.shape[-1]
    total = stats.sigma_phibar + stats.sigma_tau
    trace = np.trace(total, axis1=-2, axis2=-1)
    lam = np.linalg.eigvalsh(total)
    well_conditioned = (lam[..., 0] > 0) & (lam[..., -1] <= BLUP_COND_LIMIT * lam[..., 0])
    scale = np.where(trace == 0, 1.0, trace)
    ridge = np.where(well_conditioned, 0.0, BLUP_RIDGE * scale / k)
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
    as one batch and gives a :class:`FitBatch`, whose row for a failed
    sample holds the ``FIT_ERRORS`` instance it failed with.
    """
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
    c = _columns(len(s), k_max)
    best = np.full(len(s), np.inf)
    warm = np.zeros((len(s), k_max))
    for k in range(1, k_max + 1):
        r = _as_batch(fitter(model, s, k, theta0=warm[:, :k]), k)
        ok = r.k > 0
        warm[ok, :k] = r.theta[ok, :k]
        aic = c["aic"][:, k - 1] = r.aic[:, k - 1]
        wins = ok & ((c["k"] == 0) | (aic < best))
        best[wins], c["k"][wins] = aic[wins], k
        c["theta"][wins, :k], c["xi"][wins, :k] = r.theta[wins, :k], r.xi[wins, :k]
        c["log_normalizer"][wins], c["loglik"][wins] = r.log_normalizer[wins], r.loglik[wins]
        del r, aic  # before the next truncation's solve
    failed = f"all truncations 1..{k_max} failed for method {method!r}"
    errors = tuple(e if e is not None or k else FitFailedError(failed)
                   for e, k in zip(s.errors, c["k"]))
    batch = FitBatch(method.upper(), n_obs=s.n.copy(), errors=errors, **c)
    return batch.item() if single else batch


def _as_batch(results, k: int) -> FitBatch:
    """A fitter's results at truncation ``k`` as a :class:`FitBatch`; a plain
    list of :class:`FitResult` and errors is copied into columns."""
    if isinstance(results, FitBatch):
        return results
    c = _columns(len(results), k)
    for i, r in enumerate(results):
        if isinstance(r, FitResult):
            c["k"][i], c["log_normalizer"][i], c["loglik"][i] = k, r.log_normalizer, r.loglik
            c["theta"][i], c["xi"][i], c["aic"][i, k - 1] = r.theta, r.xi, r.aic
    return FitBatch("", n_obs=np.zeros(len(results), dtype=int), errors=tuple(
        None if isinstance(r, FitResult) else r for r in results), **c)
