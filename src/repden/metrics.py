"""Evaluation functionals: KL divergence, leave-one-out cross-entropy, return levels."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .grid import (DomainMismatchError, GridFn, check_normalized, quantile_of_density,
                   sorted_median)

# Points where the reference density is below this floor contribute zero,
# which realizes the 0 * log 0 = 0 convention on the grid.
KL_SUPPORT_FLOOR = 1e-14


class InfiniteDivergenceError(ValueError):
    """The approximating density vanishes where the reference has mass."""


class LooRefitError(RuntimeError):
    """A leave-one-out refit failed; carries the left-out index."""

    def __init__(self, index: int, message: str):
        super().__init__(f"leave-one-out refit failed at index {index}: {message}")
        self.index = index


@dataclass(frozen=True)
class EvalReport:
    """Per-sample metric values with their mean, median, and sd."""

    per_sample: tuple[tuple[str, float], ...]
    mean: float
    median: float
    sd: float

    @classmethod
    def from_pairs(cls, pairs) -> "EvalReport":
        pairs = tuple((str(i), float(v)) for i, v in pairs)
        values = np.array([v for _, v in pairs])
        sd = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
        return cls(
            per_sample=pairs,
            mean=float(values.mean()),
            median=sorted_median(np.sort(values)),
            sd=sd,
        )


def kl_div(p: GridFn, q: GridFn) -> float:
    """Information loss ``int p log(p / q)`` on the shared grid.

    ``p`` must be nonnegative and ``q`` strictly positive wherever ``p``
    carries mass; both must be normalized.
    """
    if p.domain != q.domain:
        raise DomainMismatchError("densities live on different domains")
    if np.any(p.values < 0):
        raise ValueError("reference density has negative values")
    check_normalized(p, "reference density")
    check_normalized(q, "approximating density")
    support = p.values > KL_SUPPORT_FLOOR
    if np.any(q.values[support] <= 0):
        raise InfiniteDivergenceError(
            "approximating density vanishes on the support of the reference"
        )
    integrand = np.zeros_like(p.values)
    ps = p.values[support]
    integrand[support] = ps * np.log(ps / q.values[support])
    return float(p.domain.trap_weights @ integrand)


def mean_kl(truths: list[GridFn], fits: list[GridFn]) -> EvalReport:
    """Per-sample KL divergences from truths to fits, with summary stats."""
    if len(truths) != len(fits):
        raise ValueError(
            f"got {len(truths)} truths but {len(fits)} fits"
        )
    if not truths:
        raise ValueError("need at least one pair")
    return EvalReport.from_pairs(
        (i, kl_div(p, q)) for i, (p, q) in enumerate(zip(truths, fits))
    )


def loo_score(held_out: Iterable[float], n: int) -> float:
    """Leave-one-out cross-entropy ``-(1/N) sum_j log p_{-j}(X_j)``.

    ``held_out`` yields ``p_{-j}(X_j)``, the density fitted without
    observation ``j`` at that observation, in order of ``j``.  Returns
    ``inf``, without drawing further values, at the first that is zero.
    """
    if n < 2:
        raise ValueError("leave-one-out needs at least two observations")
    logs = np.empty(n)
    for j, pj in zip(range(n), held_out):
        if pj <= 0:
            return math.inf
        logs[j] = math.log(pj)
    return float(-logs.mean())


def loo_cross_entropy(fit_fn: Callable[[np.ndarray], GridFn], obs) -> float:
    """Leave-one-out cross-entropy with each refit made by ``fit_fn``.

    ``fit_fn`` maps an observation subset to a density, evaluated at the
    held-out point by linear interpolation; see :func:`loo_score`.  A
    failing refit raises :class:`LooRefitError` with the index, chained to
    the refit's exception.
    """
    obs = np.asarray(obs, dtype=float).ravel()

    def held_out():
        for j in range(obs.size):
            try:
                dens = fit_fn(np.delete(obs, j))
            except Exception as exc:
                raise LooRefitError(j, str(exc)) from exc
            yield float(dens(obs[j]))

    return loo_score(held_out(), obs.size)


def return_level(p: GridFn, t_years: float) -> float:
    """The level expected to be exceeded once in ``t_years``: the
    ``1 - 1/t_years`` quantile of ``p``."""
    if not t_years > 1:
        raise ValueError(f"return period must exceed one year, got {t_years}")
    return quantile_of_density(p, 1.0 - 1.0 / t_years)
