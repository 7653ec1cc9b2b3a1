"""The trained low-dimensional exponential family and its dual coordinates.

Densities take the form ``exp(mu + sum_k theta_k phi_k - B(theta))`` with the
training mean log-density as base measure and the leading eigenfunctions as
sufficient statistics.  The log-normalizer ``B`` is computed max-shifted on
the grid and is finite for every finite ``theta``, so the natural parameter
space is all of ``R^K``; the moment parameter is the gradient of ``B`` and is
inverted by a damped Newton iteration on the strictly convex dual objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .fpca import EigenSystem, fit_fpca
from .grid import Domain, GridFn
from .logmap import clog_transform
from .presmooth import KdeConfig, SubpopSample, median_bandwidth, weighted_kde

NEWTON_MAX_ITER = 200
NEWTON_GRAD_TOL = 1e-9
NEWTON_RIDGE = 1e-10
ARMIJO_C = 1e-4

# Parameters this large mean the target sits on the attainable boundary and
# the iterates are running off to infinity; stop early with a diagnostic.
THETA_DIVERGENCE_BOUND = 500.0


class MomentRangeError(ValueError):
    """Target moments are not strictly inside the attainable range, so no
    finite maximizer exists."""


class NewtonDivergenceError(RuntimeError):
    """The damped Newton iteration failed to reach the gradient tolerance."""


@dataclass
class ModelMeta:
    """Provenance carried by a trained model."""

    n_train: int
    train_sizes: tuple[int, ...]
    bandwidth: float
    log_scale: bool = False
    delta: float | None = None
    seed: int | None = None
    timestamp: str | None = None


@dataclass(frozen=True)
class TruncationSummary:
    """Training-side summaries at one truncation ``k``, all read-only: the
    moment coordinates of the training scores (one row per subpopulation),
    their mean and covariance, the mean within-subpopulation covariance of
    the sample statistic at unit sample size, and the score variances."""

    train_moments: np.ndarray
    tau_bar: np.ndarray
    sigma_tau: np.ndarray
    phibar_base: np.ndarray
    score_vars: np.ndarray


@dataclass(frozen=True)
class FamilyModel:
    """A trained family: eigensystem, domain, and training-side summaries.

    Immutable.  The summaries for every truncation ``k = 1..K`` are computed
    once at construction, so fits against one model share them, from any
    thread.
    """

    sys: EigenSystem
    domain: Domain
    train_densities: tuple[GridFn, ...]
    meta: ModelMeta
    summaries: tuple[TruncationSummary, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sys.mu.domain != self.domain:
            raise ValueError("eigensystem domain differs from model domain")
        if len(self.train_densities) != self.sys.n_train:
            raise ValueError("one pre-smoothed density per training subpopulation required")
        summaries = tuple(_summarize(self, k) for k in range(1, self.n_components + 1))
        object.__setattr__(self, "summaries", summaries)

    @property
    def n_components(self) -> int:
        return self.sys.n_components

    @property
    def n_train(self) -> int:
        return self.sys.n_train

    @property
    def train_scores(self) -> np.ndarray:
        return self.sys.scores

    @cached_property
    def phi(self) -> np.ndarray:
        """Eigenfunction values, shape ``(n_grid, K)``."""
        return self.sys.phi_matrix()

    @cached_property
    def mu_values(self) -> np.ndarray:
        return self.sys.mu.values

    @cached_property
    def moment_lo(self) -> np.ndarray:
        """Per-component grid minima of the sufficient statistics."""
        return self.phi.min(axis=0)

    @cached_property
    def moment_hi(self) -> np.ndarray:
        return self.phi.max(axis=0)

    def summary(self, k: int) -> TruncationSummary:
        """The training-side summaries at truncation ``k``."""
        if not 1 <= k <= self.n_components:
            raise ValueError(f"k must be in [1, {self.n_components}], got {k}")
        return self.summaries[k - 1]

    def train_moments(self, k: int) -> np.ndarray:
        """Moment coordinates of the training scores at truncation ``k``."""
        return self.summary(k).train_moments


def _summarize(model: FamilyModel, k: int) -> TruncationSummary:
    """The summaries at truncation ``k``.  The within-subpopulation covariance
    averages ``int (phi(t) - tau_i)(phi(t) - tau_i)' p_i(t) dt`` over the
    pre-smoothed training densities; divided by a fitting sample size it is
    the covariance of that sample's statistic mean."""
    phi = model.phi[:, :k]
    w = model.domain.trap_weights
    taus = _moments_batch(model, k, model.train_scores[:, :k])
    total = np.zeros((k, k))
    for tau, dens in zip(taus, model.train_densities):
        wp = w * dens.values
        m2 = phi.T @ (wp[:, None] * phi)
        m1 = wp @ phi
        total += m2 - np.outer(tau, m1) - np.outer(m1, tau) + np.outer(tau, tau)
    base = total / model.n_train
    tau_bar = taus.mean(axis=0)
    centered = taus - tau_bar
    sigma_tau = centered.T @ centered / (model.n_train - 1)
    arrays = {
        "train_moments": taus,
        "tau_bar": tau_bar,
        "sigma_tau": 0.5 * (sigma_tau + sigma_tau.T),
        "phibar_base": 0.5 * (base + base.T),
        "score_vars": model.train_scores[:, :k].var(axis=0, ddof=1),
    }
    for a in arrays.values():
        a.setflags(write=False)
    return TruncationSummary(**arrays)


def log_trapz_exp(g: np.ndarray, w: np.ndarray) -> float:
    """``log sum_j w_j exp(g_j)`` with the max shifted out; never overflows."""
    m = g.max()
    return float(m + np.log(w @ np.exp(g - m)))


def _log_trapz_exp_rows(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    m = g.max(axis=1)
    return m + np.log(np.exp(g - m[:, None]) @ w)


def _check_theta(model: FamilyModel, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float).ravel()
    k = theta.size
    if not 1 <= k <= model.n_components:
        raise ValueError(
            f"theta has {k} components, model retains {model.n_components}"
        )
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    return theta


def log_normalizer(model: FamilyModel, theta) -> float:
    """``log int exp(mu + sum theta_k phi_k)``, computed max-shifted."""
    theta = _check_theta(model, theta)
    g = model.mu_values + model.phi[:, : theta.size] @ theta
    return log_trapz_exp(g, model.domain.trap_weights)


def density(model: FamilyModel, theta) -> GridFn:
    """The family density for natural parameter ``theta`` on the model grid."""
    theta = _check_theta(model, theta)
    g = model.mu_values + model.phi[:, : theta.size] @ theta
    b = log_trapz_exp(g, model.domain.trap_weights)
    vals = np.exp(g - b)
    return GridFn(model.domain, np.maximum(vals, 1e-300))


def _moments_core(model: FamilyModel, theta: np.ndarray):
    """Density values, log-normalizer, moments, and second moments in one pass."""
    k = theta.size
    phi = model.phi[:, :k]
    w = model.domain.trap_weights
    g = model.mu_values + phi @ theta
    b = log_trapz_exp(g, w)
    p = np.exp(g - b)
    wp = w * p
    xi = wp @ phi
    second = phi.T @ (wp[:, None] * phi)
    return p, b, xi, second


def _moments_batch(model: FamilyModel, k: int, thetas: np.ndarray) -> np.ndarray:
    """Moment coordinates for each row of ``thetas``, shape ``(n, k)``."""
    phi = model.phi[:, :k]
    w = model.domain.trap_weights
    g = model.mu_values[None, :] + thetas @ phi.T
    b = _log_trapz_exp_rows(g, w)
    p = np.exp(g - b[:, None])
    return (p * w[None, :]) @ phi


def moment_map(model: FamilyModel, theta) -> np.ndarray:
    """Moment coordinates ``xi_k = int phi_k p_theta``; the gradient of ``B``."""
    theta = _check_theta(model, theta)
    _, _, xi, _ = _moments_core(model, theta)
    return xi


def fisher_info(model: FamilyModel, theta) -> np.ndarray:
    """Covariance of the sufficient statistics under ``p_theta`` (Hessian of ``B``)."""
    theta = _check_theta(model, theta)
    _, _, xi, second = _moments_core(model, theta)
    m = second - np.outer(xi, xi)
    return 0.5 * (m + m.T)


def suffstat_average(model: FamilyModel, obs, k: int) -> np.ndarray:
    """Per-component mean of the eigenfunctions over the observations.

    Eigenfunctions are evaluated off-grid by linear interpolation, matching
    the order of the trapezoidal quadrature.
    """
    obs = np.asarray(obs, dtype=float).ravel()
    if obs.size == 0:
        raise ValueError("observation vector is empty")
    if not model.domain.contains(obs):
        raise ValueError("observations fall outside the model domain")
    if not 1 <= k <= model.n_components:
        raise ValueError(f"k must be in [1, {model.n_components}], got {k}")
    grid = model.domain.grid
    return np.array(
        [np.interp(obs, grid, model.phi[:, j]).mean() for j in range(k)]
    )


def check_moment_range(model: FamilyModel, xi: np.ndarray) -> None:
    """Require ``xi`` strictly inside the per-component range of the statistics."""
    k = xi.size
    lo = model.moment_lo[:k]
    hi = model.moment_hi[:k]
    if np.any(xi <= lo) or np.any(xi >= hi):
        raise MomentRangeError(
            "target moments lie on or outside the attainable range; "
            "no finite maximizer exists"
        )


def _solve_step(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    try:
        c, low = cho_factor(hess, check_finite=False)
        return cho_solve((c, low), -grad, check_finite=False)
    except np.linalg.LinAlgError:
        # numerically non-PD: regularize the diagonal and retry
        h = hess + NEWTON_RIDGE * max(np.trace(hess), 1.0) * np.eye(hess.shape[0])
        return np.linalg.solve(h, -grad)


def newton_minimize(
    model: FamilyModel,
    k: int,
    target: np.ndarray,
    diag_penalty: np.ndarray | None = None,
    theta0: np.ndarray | None = None,
    max_iter: int = NEWTON_MAX_ITER,
    grad_tol: float = NEWTON_GRAD_TOL,
) -> np.ndarray:
    """Minimize ``B(theta) - theta @ target + 0.5 theta' diag(d) theta``.

    This convex objective covers plain moment inversion and maximum
    likelihood (``d = 0``) as well as ridge-penalized posteriors.  Damped
    Newton with Armijo backtracking; converges when the gradient max-norm
    drops below ``grad_tol``.
    """
    d = np.zeros(k) if diag_penalty is None else np.asarray(diag_penalty, dtype=float)
    theta = np.zeros(k) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    phi = model.phi[:, :k]
    w = model.domain.trap_weights
    mu = model.mu_values

    def objective(th):
        b = log_trapz_exp(mu + phi @ th, w)
        return b - th @ target + 0.5 * (d * th * th).sum()

    f = objective(theta)
    for _ in range(max_iter):
        _, _, xi, second = _moments_core(model, theta)
        grad = xi - target + d * theta
        if np.max(np.abs(grad)) < grad_tol:
            return theta
        hess = second - np.outer(xi, xi) + np.diag(d)
        step = _solve_step(hess, grad)
        slope = float(grad @ step)
        if slope >= 0:
            step = -grad
            slope = float(grad @ step)
        # allowance for decreases below float resolution, so the final
        # polishing steps near the optimum are not rejected
        slack = 10.0 * np.finfo(float).eps * (1.0 + abs(f))
        t = 1.0
        while t > 1e-14:
            cand = theta + t * step
            f_cand = objective(cand)
            if f_cand <= f + ARMIJO_C * t * slope + slack:
                theta = cand
                f = f_cand
                break
            t *= 0.5
        else:
            raise NewtonDivergenceError(
                "line search stalled; target may be unattainable"
            )
        if np.max(np.abs(theta)) > THETA_DIVERGENCE_BOUND:
            raise NewtonDivergenceError(
                "iterates diverging; target sits on the attainable boundary"
            )
    raise NewtonDivergenceError(
        f"no convergence after {max_iter} iterations; "
        "target may sit too close to the attainable boundary"
    )


def natural_from_moment(
    model: FamilyModel, xi, theta0: np.ndarray | None = None
) -> np.ndarray:
    """Invert the moment map: the ``theta`` with ``moment_map(theta) = xi``."""
    xi = np.asarray(xi, dtype=float).ravel()
    if not 1 <= xi.size <= model.n_components:
        raise ValueError(
            f"xi has {xi.size} components, model retains {model.n_components}"
        )
    if not np.all(np.isfinite(xi)):
        raise ValueError("xi must be finite")
    check_moment_range(model, xi)
    return newton_minimize(model, xi.size, xi, theta0=theta0)


def train_family(
    samples: list[SubpopSample],
    domain: Domain,
    k_max: int,
    bandwidth: float | None = None,
) -> FamilyModel:
    """Build the approximating family from discrete training samples.

    Pre-smooths every sample with the boundary-corrected KDE (median
    bandwidth unless one is given), applies the centered log transform, and
    runs the weighted eigendecomposition.
    """
    n = len(samples)
    if n < 2:
        raise ValueError("training requires at least two subpopulations")
    h = float(bandwidth) if bandwidth is not None else median_bandwidth(samples)
    cfg = KdeConfig(bandwidth=h)
    densities = tuple(weighted_kde(s, cfg, domain) for s in samples)
    trajs = [clog_transform(p) for p in densities]
    sys = fit_fpca(trajs, min(k_max, n - 1))
    meta = ModelMeta(
        n_train=n,
        train_sizes=tuple(s.size for s in samples),
        bandwidth=h,
    )
    return FamilyModel(sys=sys, domain=domain, train_densities=densities, meta=meta)
