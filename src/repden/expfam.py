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

from .fpca import EigenSystem, fit_fpca
from .grid import Domain, GridFn
from .logmap import clog_transform
from .presmooth import KdeConfig, SubpopSample, median_bandwidth, weighted_kde

NEWTON_MAX_ITER = 200
NEWTON_GRAD_TOL = 1e-9
NEWTON_RIDGE = 1e-10
ARMIJO_C = 1e-4
# Armijo slack per unit of the objective's magnitude
_SLACK = 10.0 * np.finfo(float).eps

# Parameters this large mean the target sits on the attainable boundary and
# the iterates are running off to infinity; stop early with a diagnostic.
THETA_DIVERGENCE_BOUND = 500.0


class MomentRangeError(ValueError):
    """Target moments are not strictly inside the attainable range, so no
    finite maximizer exists."""

    def __init__(self, message: str = "target moments lie on or outside the attainable "
                                      "range; no finite maximizer exists"):
        super().__init__(message)


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
    the sample statistic at unit sample size, and the score variances.
    ``phi_outer`` holds the products ``phi_i(t) phi_j(t)`` on the grid, one
    column per pair ``(i, j)``, so second moments of many densities are one
    matrix product."""

    train_moments: np.ndarray
    tau_bar: np.ndarray
    sigma_tau: np.ndarray
    phibar_base: np.ndarray
    score_vars: np.ndarray
    phi_outer: np.ndarray


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
        if self.n_train < 2:
            raise ValueError("a family needs at least two training subpopulations")
        wp = np.stack([p.values for p in self.train_densities])
        wp *= self.domain.trap_weights
        mass, m1 = wp.sum(axis=0), wp @ self.phi
        summaries = tuple(_summarize(self, k, mass, m1) for k in range(1, self.n_components + 1))
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


def _summarize(model: FamilyModel, k: int, mass: np.ndarray, m1: np.ndarray) -> TruncationSummary:
    """The summaries at truncation ``k``.  The within-subpopulation covariance
    averages ``int (phi(t) - tau_i)(phi(t) - tau_i)' p_i(t) dt`` over the ``n``
    pre-smoothed training densities; divided by a fitting sample size it is
    the covariance of that sample's statistic mean.  With ``mass = sum_i w p_i``
    and ``m1[i] = (w p_i) @ phi`` (``w`` the trapezoid weights) it is
    ``(phi' diag(mass) phi - taus' m1 - m1' taus + taus' taus) / n``."""
    phi = model.phi[:, :k]
    taus = _moments(model, model.train_scores[:, :k])[2]
    cross = taus.T @ m1[:, :k]
    base = (phi.T @ (mass[:, None] * phi) - cross - cross.T + taus.T @ taus) / model.n_train
    tau_bar = taus.mean(axis=0)
    centered = taus - tau_bar
    sigma_tau = centered.T @ centered / (model.n_train - 1)
    arrays = {
        "train_moments": taus,
        "tau_bar": tau_bar,
        "sigma_tau": 0.5 * (sigma_tau + sigma_tau.T),
        "phibar_base": 0.5 * (base + base.T),
        "score_vars": model.train_scores[:, :k].var(axis=0, ddof=1),
        "phi_outer": (phi[:, :, None] * phi[:, None, :]).reshape(len(phi), k * k),
    }
    for a in arrays.values():
        a.setflags(write=False)
    return TruncationSummary(**arrays)


def log_trapz_exp(g: np.ndarray, w: np.ndarray) -> float:
    """``log sum_j w_j exp(g_j)`` with the max shifted out; never overflows."""
    m = g.max()
    return float(m + np.log(w @ np.exp(g - m)))


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


def rowwise(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``x @ m`` computed as one product per row of ``x`` (last axis).

    A batched gemm's blocking, and the BLAS threads it runs on, depend on
    the number of rows, so a row's result would depend on the rest of its
    batch; one product per row gives the same bits in any batch.
    """
    return np.matmul(x[..., None, :], m)[..., 0, :]


def _exponent(model: FamilyModel, thetas: np.ndarray) -> np.ndarray:
    """``mu + phi @ theta`` on the grid for each row of ``thetas``, shape ``(m, G)``."""
    phi_t = np.ascontiguousarray(model.phi[:, : thetas.shape[1]].T)
    return model.mu_values + rowwise(thetas, phi_t)


def density_values(model: FamilyModel, thetas: np.ndarray) -> np.ndarray:
    """Family density values on the grid for each row of ``thetas`` (shape
    ``(m, k)``), normalized max-shifted under the trapezoidal rule and
    floored at 1e-300; :func:`density` is one such row."""
    g = _exponent(model, thetas)
    top = g.max(axis=1)
    w = model.domain.trap_weights
    b = top + np.log(rowwise(np.exp(g - top[:, None]), w[:, None])[:, 0])
    return np.maximum(np.exp(g - b[:, None]), 1e-300)


def density(model: FamilyModel, theta) -> GridFn:
    """The family density for natural parameter ``theta`` on the model grid."""
    theta = _check_theta(model, theta)
    return GridFn(model.domain, density_values(model, theta[None])[0])


def _moments(model: FamilyModel, thetas: np.ndarray):
    """For each row of ``thetas`` (shape ``(m, k)``): the density values times
    the trapezoid weights, the log-normalizer, and the moment coordinates."""
    g = _exponent(model, thetas)
    top = g.max(axis=1)
    wp = np.exp(g - top[:, None]) * model.domain.trap_weights
    mass = wp.sum(axis=1)
    wp /= mass[:, None]
    return wp, top + np.log(mass), rowwise(wp, model.phi[:, : thetas.shape[1]])


def _covariances(phi_outer: np.ndarray, wp: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Covariance of the statistics under each row's density, shape
    ``(m, k, k)``, from the truncation's ``phi_outer``."""
    k = xi.shape[1]
    second = rowwise(wp, phi_outer).reshape(-1, k, k)
    return second - xi[:, :, None] * xi[:, None, :]


def moment_map(model: FamilyModel, theta) -> np.ndarray:
    """Moment coordinates ``xi_k = int phi_k p_theta``; the gradient of ``B``."""
    theta = _check_theta(model, theta)
    return _moments(model, theta[None])[2][0]


def fisher_info(model: FamilyModel, theta) -> np.ndarray:
    """Covariance of the sufficient statistics under ``p_theta`` (Hessian of ``B``)."""
    theta = _check_theta(model, theta)
    wp, _, xi = _moments(model, theta[None])
    m = _covariances(model.summary(theta.size).phi_outer, wp, xi)[0]
    return 0.5 * (m + m.T)


def suffstat_values(model: FamilyModel, obs, k: int) -> np.ndarray:
    """The eigenfunctions ``1..k`` at each observation, shape ``(k, N)``.

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
    return np.array([np.interp(obs, grid, model.phi[:, j]) for j in range(k)])


def suffstat_average(model: FamilyModel, obs, k: int) -> np.ndarray:
    """Per-component mean of the eigenfunctions over the observations."""
    return suffstat_values(model, obs, k).mean(axis=1)


def _outside_range(model: FamilyModel, xi: np.ndarray) -> np.ndarray:
    """Whether each target (last axis) lies on or outside the per-component
    range of the statistics."""
    k = xi.shape[-1]
    return np.any((xi <= model.moment_lo[:k]) | (xi >= model.moment_hi[:k]), axis=-1)


def newton_minimize(
    model: FamilyModel,
    k: int,
    target: np.ndarray,
    diag_penalty: np.ndarray | None = None,
    theta0: np.ndarray | None = None,
):
    """Minimize ``B(theta) - theta @ target + 0.5 theta' diag(d) theta``.

    This convex objective covers plain moment inversion and maximum
    likelihood (``d = 0``) as well as ridge-penalized posteriors.  Damped
    Newton with Armijo backtracking; converges when the gradient max-norm
    drops below ``NEWTON_GRAD_TOL``.

    A ``(k,)`` target is one problem: the minimizer is returned and a
    failure raises :class:`NewtonDivergenceError`.  An ``(m, k)`` target is
    ``m`` problems solved together (``diag_penalty`` and ``theta0`` take the
    shape of ``target``): every row has its own convergence test,
    line search and failure, and the call returns ``(theta, errors)``, where
    a failed row of ``theta`` is NaN and ``errors[i]`` is its error or None.
    """
    single = np.ndim(target) == 1
    target = np.atleast_2d(np.asarray(target, dtype=float))
    m = target.shape[0]
    errors: list[NewtonDivergenceError | None] = [None] * m
    phi_outer = model.summary(k).phi_outer
    diag = np.arange(k)
    d = np.zeros_like(target)
    if diag_penalty is not None:
        d[:] = np.reshape(diag_penalty, target.shape)
    th = np.zeros_like(target)
    if theta0 is not None:
        th[:] = np.reshape(theta0, target.shape)

    def evaluate(sel, cand):
        """Objective values, weighted densities and moments of the problems
        ``sel`` at the parameters ``cand``."""
        wp, b, xi = _moments(model, cand)
        return b + (cand * (0.5 * d[sel] * cand - target[sel])).sum(axis=1), wp, xi

    # ``th`` has one row per problem; ``rows`` holds the problems still
    # iterating, and ``f``, ``wp`` and ``xi`` one row for each of them
    f, wp, xi = evaluate(slice(None), th)
    rows = np.arange(m)
    for _ in range(NEWTON_MAX_ITER):
        th_rows, tgt = th[rows], target[rows]
        grad = xi - tgt + d[rows] * th_rows
        # Changes below the objective's rounding error pass the Armijo test,
        # so the final polishing steps are not rejected.  The error scales
        # with B and theta @ target, which near a far-out optimum are much
        # larger than their difference.
        slack = _SLACK * (1.0 + np.abs(f) + np.abs(th_rows * tgt).sum(axis=1))
        going = np.abs(grad).max(axis=1) >= NEWTON_GRAD_TOL
        if not going.all():
            rows, f, wp, xi, grad, slack = (a[going] for a in (rows, f, wp, xi, grad, slack))
        if not rows.size:
            break
        hess = _covariances(phi_outer, wp, xi)
        hess[:, diag, diag] += d[rows]
        try:
            step = np.linalg.solve(hess, -grad[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # an exactly singular Hessian: regularize the diagonals and retry
            ridge = NEWTON_RIDGE * np.maximum(np.trace(hess, axis1=1, axis2=2), 1.0)
            hess += ridge[:, None, None] * np.eye(k)
            step = np.linalg.solve(hess, -grad[:, :, None])[:, :, 0]
        slope = np.einsum("ij,ij->i", grad, step)
        uphill = slope >= 0
        if uphill.any():
            step[uphill] = -grad[uphill]
            slope[uphill] = np.einsum("ij,ij->i", grad[uphill], step[uphill])
        # backtracking from the full step: the rows that reject a step length
        # halve it together (``search`` indexes ``rows``)
        search, t = np.arange(rows.size), 1.0
        while search.size and t > 1e-14:
            sel = rows[search]
            cand = th[sel] + t * step[search]
            f_cand, wp_cand, xi_cand = evaluate(sel, cand)
            ok = f_cand <= f[search] + ARMIJO_C * t * slope[search] + slack[search]
            if ok.all() and search.size == rows.size:
                th[rows], f, wp, xi = cand, f_cand, wp_cand, xi_cand
            else:
                th[sel[ok]] = cand[ok]
                for a, new in zip((f, wp, xi), (f_cand, wp_cand, xi_cand)):
                    a[search[ok]] = new[ok]
            search, t = search[~ok], 0.5 * t
        drop = np.abs(th[rows]).max(axis=1) > THETA_DIVERGENCE_BOUND
        for i in rows[drop]:
            errors[i] = NewtonDivergenceError(
                "iterates diverging; target sits on the attainable boundary")
        for i in rows[search]:
            errors[i] = NewtonDivergenceError("line search stalled; target may be unattainable")
        drop[search] = True
        if drop.any():
            rows, f, wp, xi = (a[~drop] for a in (rows, f, wp, xi))
    else:
        for i in rows:
            errors[i] = NewtonDivergenceError(
                f"no convergence after {NEWTON_MAX_ITER} iterations; "
                "target may sit too close to the attainable boundary"
            )
    th[[e is not None for e in errors]] = np.nan
    if single:
        if errors[0] is not None:
            raise errors[0]
        return th[0]
    return th, errors


def natural_from_moment(model: FamilyModel, xi, theta0: np.ndarray | None = None):
    """Invert the moment map: the ``theta`` with ``moment_map(theta) = xi``.

    ``xi`` is one target or a batch, as in :func:`newton_minimize`; every row
    must be finite and inside the moment range.
    """
    xi = np.asarray(xi, dtype=float)
    k = xi.shape[-1]
    if xi.ndim not in (1, 2) or not 1 <= k <= model.n_components:
        raise ValueError(
            f"xi has {k} components, model retains {model.n_components}"
        )
    if not np.all(np.isfinite(xi)):
        raise ValueError("xi must be finite")
    if np.any(_outside_range(model, xi)):
        raise MomentRangeError()
    return newton_minimize(model, k, xi, theta0=theta0)


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
