"""The trained low-dimensional exponential family and its dual coordinates.

Densities take the form ``exp(mu + sum_k theta_k phi_k - B(theta))`` with the
training mean log-density as base measure and the leading eigenfunctions as
sufficient statistics.  The log-normalizer ``B`` is computed max-shifted on
the grid and is finite for every finite ``theta``, so the natural parameter
space is all of ``R^K``; the moment parameter is the gradient of ``B`` and is
inverted by a damped Newton iteration on the strictly convex dual objective.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .fpca import EigenSystem, fit_fpca
from .grid import DENSITY_FLOOR, Domain, GridFn
from .logmap import clog_transform
from .presmooth import BUDGET, KdeConfig, SubpopSample, median_bandwidth, weighted_kde

NEWTON_MAX_ITER = 200
NEWTON_GRAD_TOL = 1e-9
NEWTON_RIDGE = 1e-10
ARMIJO_C = 1e-4
# Armijo slack per unit of the objective's magnitude
_SLACK = 10.0 * np.finfo(float).eps

# A row stops with a divergence error once some |theta| exceeds this.  Most
# rows it stops converge with the bound at 1e6, so the error's claim that the
# target sits on the attainable boundary is often false.
THETA_DIVERGENCE_BOUND = 500.0

# Kernel-sum values of pre-smoothing (grid points times observations) from
# which training smooths on helper threads beside the calling thread, one
# worker per available CPU; a smaller set is smoothed on the calling thread
# alone, since a helper's malloc arena raised the peak of ``simulate`` by
# 0.77 MB.  On a first call in a fresh process, as ``train`` and one
# replication of ``simulate`` make it, serial against two workers at 512
# grid points took (2-vCPU VM, medians of 11 processes) 20.3/21.1 ms on
# 50 x 200 values (5.1M), 23.4/24.0 on 60 x 200 (6.1M), 28.4/29.4 on
# 75 x 200 (7.7M), 54.9/39.9 on 100 x 200 (10.2M) and 69.3/45.6 on 30 x 1000
# (15.4M); 162/106 ms on 40 x 2000 (41M) and 693/404 on 20 x 20000 (205M).
# ``train_family`` on twelve of simulate's training sets in turn in one
# process, as its replications call it, took 23.8/23.1 ms (medians).
HELPER_THRESHOLD = 1 << 23


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

    Immutable.  Every array (``mu_values``, ``phi`` of shape ``(n_grid, K)``,
    its contiguous transpose ``phi_t``, the statistics' grid minima
    ``moment_lo`` and maxima ``moment_hi``, and the summaries for every
    truncation ``k = 1..K``) is built once at construction and is read-only;
    fits against one model share them, from any thread.
    """

    sys: EigenSystem
    domain: Domain
    train_densities: tuple[GridFn, ...]
    meta: ModelMeta
    mu_values: np.ndarray = field(init=False, repr=False, compare=False)
    phi: np.ndarray = field(init=False, repr=False, compare=False)
    phi_t: np.ndarray = field(init=False, repr=False, compare=False)
    moment_lo: np.ndarray = field(init=False, repr=False, compare=False)
    moment_hi: np.ndarray = field(init=False, repr=False, compare=False)
    summaries: tuple[TruncationSummary, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sys.mu.domain != self.domain:
            raise ValueError("eigensystem domain differs from model domain")
        if len(self.train_densities) != self.sys.n_train:
            raise ValueError("one pre-smoothed density per training subpopulation required")
        if self.n_train < 2:
            raise ValueError("a family needs at least two training subpopulations")
        phi = self.sys.phi_matrix()
        for name, a in (("mu_values", self.sys.mu.values), ("phi", phi),
                        ("phi_t", np.ascontiguousarray(phi.T)),
                        ("moment_lo", phi.min(axis=0)), ("moment_hi", phi.max(axis=0))):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
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
    g = _exponent(model, theta[None])
    return float(_normalize(model, g, g)[1][0])


def rowwise(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``x @ m`` computed as one product per row of ``x`` (last axis).

    A batched gemm's blocking, and the BLAS threads it runs on, depend on
    the number of rows, so a row's result would depend on the rest of its
    batch; one product per row gives the same bits in any batch.
    """
    return np.matmul(x[..., None, :], m)[..., 0, :]


def _exponent(model: FamilyModel, thetas: np.ndarray) -> np.ndarray:
    """The exponent ``mu + phi @ theta`` on the grid for each row of
    ``thetas`` (shape ``(m, k)``), in one new ``(m, n_grid)`` buffer."""
    g = rowwise(thetas, model.phi_t[: thetas.shape[1]])
    g += model.mu_values
    return g


def _normalize(model: FamilyModel, g: np.ndarray, out: np.ndarray):
    """The one computation of ``B``.  For each row of the exponent ``g``:
    ``exp(g - max g)`` times the trapezoid weights, written to ``out`` (which
    may be ``g`` itself), its sum, and ``B``."""
    top = g.max(axis=1)
    np.subtract(g, top[:, None], out=out)
    np.exp(out, out=out)
    out *= model.domain.trap_weights
    mass = out.sum(axis=1)
    return mass, top + np.log(mass)


def density_values(model: FamilyModel, thetas: np.ndarray) -> np.ndarray:
    """Family density values on the grid for each row of ``thetas`` (shape
    ``(m, k)``), ``exp(mu + phi @ theta - B)`` floored at ``DENSITY_FLOOR``;
    :func:`density` is one such row."""
    g = _exponent(model, thetas)
    b = _normalize(model, g, np.empty_like(g))[1]
    g -= b[:, None]
    np.exp(g, out=g)
    return np.maximum(g, DENSITY_FLOOR, out=g)


def density(model: FamilyModel, theta) -> GridFn | tuple[Domain, np.ndarray]:
    """The family density for natural parameter ``theta`` on the model grid; a
    stack ``(m, k)`` gives the domain and the rows of :func:`density_values`."""
    if np.ndim(theta) == 2:
        return model.domain, density_values(model, theta)
    theta = _check_theta(model, theta)
    return GridFn(model.domain, density_values(model, theta[None])[0])


def _moments(model: FamilyModel, thetas: np.ndarray):
    """For each row of ``thetas`` (shape ``(m, k)``): the density values times
    the trapezoid weights, the log-normalizer, and the moment coordinates.
    The weighted density overwrites the exponent, so this holds one
    ``(m, n_grid)`` buffer."""
    wp = _exponent(model, thetas)
    mass, b = _normalize(model, wp, wp)
    wp /= mass[:, None]
    return wp, b, rowwise(wp, model.phi[:, : thetas.shape[1]])


def _covariances(second: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Covariance of the statistics under each row's density, shape
    ``(m, k, k)``, from the second moments ``rowwise(wp, phi_outer)``."""
    k = xi.shape[1]
    return second.reshape(-1, k, k) - xi[:, :, None] * xi[:, None, :]


def _rowwise_kept(x: np.ndarray, keep: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``rowwise(x[keep], m)`` without copying rows of ``x``: one product per
    run of consecutive kept rows."""
    padded = np.zeros(keep.size + 2, dtype=bool)
    padded[1:-1] = keep
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return np.concatenate([rowwise(x[a:b], m) for a, b in zip(edges[::2], edges[1::2])])


def moment_map(model: FamilyModel, theta) -> np.ndarray:
    """Moment coordinates ``xi_k = int phi_k p_theta``; the gradient of ``B``."""
    theta = _check_theta(model, theta)
    return _moments(model, theta[None])[2][0]


def fisher_info(model: FamilyModel, theta) -> np.ndarray:
    """Covariance of the sufficient statistics under ``p_theta`` (Hessian of ``B``)."""
    theta = _check_theta(model, theta)
    wp, _, xi = _moments(model, theta[None])
    m = _covariances(rowwise(wp, model.summary(theta.size).phi_outer), xi)[0]
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


@dataclass(frozen=True)
class NewtonRecord:
    """What a batched Newton solve knew at each problem's solution.

    One row per problem: the minimizer ``theta``, the log-normalizer ``b``
    and the moments ``xi`` there (all NaN for a failed row), ``errors`` (None
    or the row's error), the Newton ``iterations`` the row ran, the step
    ``halvings`` its line searches made, and ``grad_norm``, the gradient
    max-norm at the last convergence test the row went through, which for a
    converged row is at its solution.  Every array is read-only.
    """

    theta: np.ndarray
    errors: tuple
    b: np.ndarray
    xi: np.ndarray
    iterations: np.ndarray
    halvings: np.ndarray
    grad_norm: np.ndarray

    def __post_init__(self):
        for a in (self.theta, self.b, self.xi, self.iterations, self.halvings, self.grad_norm):
            a.setflags(write=False)

    @classmethod
    def failed(cls, k: int, errors) -> NewtonRecord:
        """The record of problems that each failed with ``errors`` before a solve."""
        m = len(errors)
        return cls(theta=np.full((m, k), np.nan), errors=tuple(errors), b=np.full(m, np.nan),
                   xi=np.full((m, k), np.nan), iterations=np.zeros(m, dtype=int),
                   halvings=np.zeros(m, dtype=int), grad_norm=np.full(m, np.nan))


def newton_minimize(
    model: FamilyModel,
    k: int,
    target: np.ndarray,
    diag_penalty: np.ndarray | None = None,
    theta0: np.ndarray | None = None,
) -> NewtonRecord:
    """Minimize ``B(theta) - theta @ target + 0.5 theta' diag(d) theta``.

    This convex objective covers plain moment inversion and maximum
    likelihood (``d = 0``) as well as ridge-penalized posteriors.  Damped
    Newton with Armijo backtracking; converges when the gradient max-norm
    drops below ``NEWTON_GRAD_TOL``.

    An ``(m, k)`` target is ``m`` problems solved together
    (``diag_penalty`` and ``theta0`` take the shape of ``target``), and a
    ``(k,)`` target is one.  Every row has its own convergence test, line
    search and failure, and the call returns their :class:`NewtonRecord`,
    where a failed row of ``theta`` is NaN and ``errors[i]`` is its error or
    None; no row's error is raised.  The ridge for an exactly singular
    Hessian is decided per row, so no row depends on the rest of its batch.
    A row fails at the iteration cap only if the convergence test after its
    ``NEWTON_MAX_ITER``-th step fails too.

    An objective evaluation takes the rows in blocks of ``BUDGET // n_grid``
    (at least one), and holds one block's weighted densities until the
    second moments of the rows it accepts are taken, so only per-row values
    carry across iterations.
    """
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
    f, b, slope, slack, grad_norm = np.zeros((5, m))
    grad, xi, step = np.zeros((3, *target.shape))
    second = np.zeros((m, k * k))
    iterations, halvings = np.zeros(m, dtype=int), np.zeros(m, dtype=int)
    # a block's weighted densities hold at most ``BUDGET`` values (512 KiB):
    # 128 rows at 512 points, 16 at 4096.  256-row blocks made ``select_k_aic``
    # to k = 4 peak at 1.33 and 8.33 MiB on 300 samples at 512 and 4096 points,
    # and at 4.91 MiB on 1024 at 2048; the budget gives 0.82, 0.81 and 1.38 MiB
    # at the same CPU time to within 2% (tracemalloc, 2-vCPU VM).
    block = max(1, BUDGET // model.domain.n_grid)

    def take(sel, cand, t):
        """Evaluate the problems ``sel`` at ``cand``, accept each row that passes
        the Armijo test for step length ``t`` (every row if ``t`` is None), and
        return which rows were accepted."""
        ok = np.ones(sel.size, dtype=bool)
        for a in range(0, sel.size, block):
            blk, c, acc = sel[a:a + block], cand[a:a + block], ok[a:a + block]
            wp, b_c, xi_c = _moments(model, c)
            f_c = b_c + (c * (0.5 * d[blk] * c - target[blk])).sum(axis=1)
            grad_c = xi_c - target[blk] + d[blk] * c
            acc[:] = t is None or f_c <= f[blk] + ARMIJO_C * t * slope[blk] + slack[blk]
            for arr, new in zip((th, f, grad, b, xi), (c, f_c, grad_c, b_c, xi_c)):
                arr[blk[acc]] = new[acc]
            keep = acc & (np.abs(grad_c).max(axis=1) >= NEWTON_GRAD_TOL)
            if keep.any():
                second[blk[keep]] = _rowwise_kept(wp, keep, phi_outer)
            del wp
        return ok

    # Every per-problem array (``th``, ``f``, ``grad``, ``b``, ``xi``, the
    # second moments ``second``, ``step``, ``slope``, ``slack``) has one row
    # per problem; ``rows`` holds the problems still iterating, and the line
    # search's ``search`` those still halving.  Second moments are taken only
    # for accepted rows that fail the convergence test; a converged row needs
    # no Hessian, so its stale row is never read.  The test runs once more
    # after the last step the cap allows.
    rows = np.arange(m)
    take(rows, th, None)
    for it in range(NEWTON_MAX_ITER + 1):
        grad_norm[rows] = np.abs(grad[rows]).max(axis=1)
        rows = rows[grad_norm[rows] >= NEWTON_GRAD_TOL]
        if not rows.size or it == NEWTON_MAX_ITER:
            break
        # Changes below the objective's rounding error pass the Armijo test,
        # so the final polishing steps are not rejected.  The error scales
        # with B and theta @ target, which near a far-out optimum are much
        # larger than their difference.
        slack[rows] = _SLACK * (1.0 + np.abs(f[rows]) + np.abs(th[rows] * target[rows]).sum(axis=1))
        hess = _covariances(second[rows], xi[rows])
        hess[:, diag, diag] += d[rows]
        try:
            step[rows] = np.linalg.solve(hess, -grad[rows][:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # exactly singular Hessians (a zero pivot in the LU factorization
            # ``solve`` uses): regularize those rows' diagonals and retry
            singular = np.linalg.slogdet(hess)[0] == 0
            ridge = NEWTON_RIDGE * np.maximum(np.trace(hess[singular], axis1=1, axis2=2), 1.0)
            hess[singular] += ridge[:, None, None] * np.eye(k)
            step[rows] = np.linalg.solve(hess, -grad[rows][:, :, None])[:, :, 0]
        slope[rows] = np.einsum("ij,ij->i", grad[rows], step[rows])
        uphill = rows[slope[rows] >= 0]
        if uphill.size:
            step[uphill] = -grad[uphill]
            slope[uphill] = np.einsum("ij,ij->i", grad[uphill], step[uphill])
        # backtracking from the full step: the rows that reject a step length
        # halve it together
        search, t = rows, 1.0
        while search.size and t > 1e-14:
            search, t = search[~take(search, th[search] + t * step[search], t)], 0.5 * t
            halvings[search] += 1
        iterations[rows] += 1
        for i in rows[np.abs(th[rows]).max(axis=1) > THETA_DIVERGENCE_BOUND]:
            errors[i] = NewtonDivergenceError(
                "iterates diverging; target sits on the attainable boundary")
        for i in search:
            errors[i] = NewtonDivergenceError("line search stalled; target may be unattainable")
        rows = rows[[errors[i] is None for i in rows]]
    for i in rows:
        errors[i] = NewtonDivergenceError(
            f"no convergence after {NEWTON_MAX_ITER} iterations; "
            "target may sit too close to the attainable boundary"
        )
    failed = [e is not None for e in errors]
    th[failed], b[failed], xi[failed] = np.nan, np.nan, np.nan
    return NewtonRecord(theta=th, errors=tuple(errors), b=b, xi=xi,
                        iterations=iterations, halvings=halvings, grad_norm=grad_norm)


def natural_from_moment(model: FamilyModel, xi, theta0: np.ndarray | None = None):
    """Invert the moment map: the ``theta`` with ``moment_map(theta) = xi``.

    Every row of ``xi`` must be finite and inside the moment range.  An
    ``(m, k)`` batch returns the solve's :class:`NewtonRecord`; a ``(k,)``
    target returns its ``theta``, or raises its
    :class:`NewtonDivergenceError`.
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
    rec = newton_minimize(model, k, xi, theta0=theta0)
    if xi.ndim == 2:
        return rec
    if rec.errors[0] is not None:
        raise rec.errors[0]
    return rec.theta[0]


def _presmooth_workers(n_samples: int) -> int:
    """Workers for pre-smoothing, the calling thread included: one per CPU
    this process may run on, at most one per sample."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, n_samples)


def _smooth_all(smooth, samples: list[SubpopSample],
                threaded: bool = True) -> tuple[GridFn, ...]:
    """``smooth`` of every sample, in input order.

    The calling thread and ``_presmooth_workers(n) - 1`` threads, where
    ``n`` counts the samples if ``threaded`` and is 1 if not, each take the
    next sample index from one counter until it runs out, and write the
    sample's density into its slot.  A failure stops the counter; every
    earlier index was handed out before it, so once the threads are joined
    the first failing sample in input order raises its own exception.  An
    interrupt in the calling thread (any ``BaseException`` that is not an
    ``Exception``) also stops the counter, and propagates once the threads
    are joined.
    """
    n = len(samples)
    out: list = [None] * n
    lock = threading.Lock()
    cursor = 0

    def take() -> int | None:
        nonlocal cursor
        with lock:
            i = cursor
            cursor += 1
        return i if i < n else None

    def halt() -> None:
        nonlocal cursor
        with lock:
            cursor = n

    def work() -> None:
        while (i := take()) is not None:
            try:
                out[i] = smooth(samples[i])
            except BaseException as exc:
                out[i] = exc
                halt()
                if not isinstance(exc, Exception):
                    raise

    threads = [threading.Thread(target=work, name=f"repden-presmooth-{j}")
               for j in range(1, _presmooth_workers(n if threaded else 1))]
    for t in threads:
        t.start()
    try:
        work()
    except BaseException:
        halt()
        raise
    finally:
        for t in threads:
            t.join()
    for p in out:
        if isinstance(p, BaseException):
            raise p
    return tuple(out)


def train_family(
    samples: list[SubpopSample],
    domain: Domain,
    k_max: int,
    bandwidth: float | None = None,
) -> FamilyModel:
    """Build the approximating family from discrete training samples.

    Pre-smooths every sample with the boundary-corrected KDE (median
    bandwidth unless one is given), applies the centered log transform, and
    runs the weighted eigendecomposition.  A training set of at least
    ``HELPER_THRESHOLD`` kernel-sum values (grid points times observations)
    is pre-smoothed by one worker per available CPU, at most one per sample:
    the calling thread takes its share of the samples and helper threads
    take the rest (the kernel sums are numpy work that releases the GIL).  A
    smaller set is smoothed on the calling thread alone.  Each density
    depends on its sample alone and lands in its input slot, so the model is
    the same for any worker count, and the first sample outside the domain
    in input order is the one reported.
    """
    n = len(samples)
    if n < 2:
        raise ValueError("training requires at least two subpopulations")
    h = float(bandwidth) if bandwidth is not None else median_bandwidth(samples)
    smooth = partial(weighted_kde, cfg=KdeConfig(bandwidth=h), domain=domain)
    values = sum(s.size for s in samples) * domain.n_grid
    densities = _smooth_all(smooth, samples, threaded=values >= HELPER_THRESHOLD)
    trajs = [clog_transform(p) for p in densities]
    sys = fit_fpca(trajs, min(k_max, n - 1))
    meta = ModelMeta(
        n_train=n,
        train_sizes=tuple(s.size for s in samples),
        bandwidth=h,
    )
    return FamilyModel(sys=sys, domain=domain, train_densities=densities, meta=meta)
