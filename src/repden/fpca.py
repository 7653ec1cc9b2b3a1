"""Principal component analysis of the transformed training trajectories.

The sample covariance of the centered log-densities is discretized with
trapezoidal quadrature weights ``W`` and the symmetric problem is that of
``W^{1/2} G W^{1/2} = X^T X``, where ``X = C W^{1/2} / sqrt(n)`` holds the n
weighted, centered log-densities on G grid points.  With n < G the n x n
Gram matrix ``X X^T`` is decomposed instead: it has the same nonzero
eigenvalues, and ``X^T u`` is the eigenvector for its eigenvector ``u``
(Sirovich's snapshot method, Q. Appl. Math. 45, 1987), so a G x G matrix
and its ``eigh`` workspace are never formed.  With n >= G, or when the
log-densities do not vary at all, the G x G matrix is decomposed.
Eigenvectors map back through ``W^{-1/2}``, which makes the eigenfunctions
orthonormal in the weighted inner product that the rest of the package
uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridFn
from .logmap import LogDensityFn

# Relative threshold under which trailing eigenvalues are treated as rank noise.
NULL_EIGVAL_REL = 1e-12

ORTHONORMALITY_TOL = 1e-6


@dataclass(frozen=True)
class EigenSystem:
    """Mean, eigenpairs, and per-trajectory scores of the training set.

    Eigenvalues are nonnegative and nonincreasing; eigenfunctions are
    orthonormal under the trapezoidal inner product and sign-aligned so the
    grid value of largest magnitude is positive.
    """

    mu: LogDensityFn
    eigvals: np.ndarray          # (K,)
    eigfns: tuple[GridFn, ...]   # K functions on the shared domain
    scores: np.ndarray           # (n, K)

    def __post_init__(self):
        eigvals = np.array(self.eigvals, dtype=float)
        scores = np.array(self.scores, dtype=float)
        k = eigvals.size
        if len(self.eigfns) != k or scores.ndim != 2 or scores.shape[1] != k:
            raise ValueError("inconsistent component counts")
        if k == 0:
            raise ValueError("need at least one component; eigvals, eigfns and scores are empty")
        if np.any(eigvals < 0) or np.any(np.diff(eigvals) > 0):
            raise ValueError("eigenvalues must be nonnegative and nonincreasing")
        if not (np.all(np.isfinite(eigvals)) and np.all(np.isfinite(scores))):
            raise ValueError("eigenvalues and scores must be finite")
        dom = self.mu.domain
        w = dom.trap_weights
        phi = np.column_stack([f.values for f in self.eigfns])
        for f in self.eigfns:
            if f.domain != dom:
                raise ValueError("eigenfunction domain differs from mean domain")
        gram = phi.T @ (w[:, None] * phi)
        if np.max(np.abs(gram - np.eye(k))) > ORTHONORMALITY_TOL:
            raise ValueError("eigenfunctions are not orthonormal under the grid inner product")
        eigvals.setflags(write=False)
        scores.setflags(write=False)
        object.__setattr__(self, "eigvals", eigvals)
        object.__setattr__(self, "scores", scores)

    @property
    def n_components(self) -> int:
        return int(self.eigvals.size)

    @property
    def n_train(self) -> int:
        return int(self.scores.shape[0])

    def phi_matrix(self, k: int | None = None) -> np.ndarray:
        """Eigenfunction values stacked column-wise, shape ``(n_grid, k)``."""
        if k is None:
            k = self.n_components
        return np.column_stack([f.values for f in self.eigfns[:k]])


def _align_sign(vals: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(vals)))
    return -vals if vals[idx] < 0 else vals


def fit_fpca(trajs: list[LogDensityFn], k_max: int) -> EigenSystem:
    """Mean, covariance eigenpairs, and scores of the training trajectories.

    The covariance uses divisor ``n``.  Components whose eigenvalue falls
    below ``NULL_EIGVAL_REL`` times the leading one are discarded as
    numerically null; at most ``min(k_max, n - 1)`` components are retained.
    """
    n = len(trajs)
    if n < 2:
        raise ValueError("need at least two training trajectories")
    if not 1 <= k_max <= n - 1:
        raise ValueError(f"k_max must be in [1, {n - 1}], got {k_max}")
    dom = trajs[0].domain
    for f in trajs:
        if f.domain != dom:
            raise ValueError("all trajectories must share one domain")

    F = np.stack([f.values for f in trajs])
    mu_vals = F.mean(axis=0)
    C = F - mu_vals

    w = dom.trap_weights
    sw = np.sqrt(w)
    if n < dom.n_grid and C.any():
        # the n x n Gram matrix; without variation X^T u is 0 and would be
        # normalized as 0 / 0, so that case takes the G x G matrix below
        X = C * (sw / np.sqrt(n))
        evals, U = np.linalg.eigh(X @ X.T)
        evecs = X.T @ U
    else:
        # A = W^{1/2} G W^{1/2} with G(s,t) = (1/n) sum_i c_i(s) c_i(t)
        A = (sw[:, None] * (C.T @ C) * sw[None, :]) / n
        evals, evecs = np.linalg.eigh(A)
    order = np.argsort(evals)[::-1][:k_max]
    evals = np.clip(evals[order], 0.0, None)
    evecs = evecs[:, order]

    keep = evals >= NULL_EIGVAL_REL * evals[0]
    evals = evals[keep]
    evecs = evecs[:, keep]

    eigfns = []
    for j in range(evals.size):
        phi = evecs[:, j] / sw
        phi = phi / np.sqrt(w @ (phi * phi))
        eigfns.append(GridFn(dom, _align_sign(phi)))

    phi_mat = np.column_stack([f.values for f in eigfns])
    scores = C @ (w[:, None] * phi_mat)

    mu = LogDensityFn(GridFn(dom, mu_vals))
    return EigenSystem(mu=mu, eigvals=evals, eigfns=tuple(eigfns), scores=scores)


def project_scores(sys: EigenSystem, f: LogDensityFn, k: int) -> np.ndarray:
    """Inner products of ``f - mu`` against the first ``k`` eigenfunctions."""
    if not 1 <= k <= sys.n_components:
        raise ValueError(f"k must be in [1, {sys.n_components}], got {k}")
    if f.domain != sys.mu.domain:
        raise ValueError("trajectory domain differs from the trained domain")
    diff = f.values - sys.mu.values
    w = f.domain.trap_weights
    return (w * diff) @ sys.phi_matrix(k)
