"""Uniform-grid function representation, quadrature, and quantiles.

Every function in the package (densities, log-densities, eigenfunctions) is
carried as its values on a fixed equispaced grid over a compact interval.
All integrals use the trapezoidal rule with weights from :attr:`Domain.trap_weights`,
so linear identities hold exactly in the discrete system.  The one density
floor, :data:`DENSITY_FLOOR`, and normalization check, :func:`check_normalized`, live here.
Sample quartiles and medians are read off sorted values by index arithmetic,
with numpy's rules; ``np.percentile`` and ``np.median`` would load
``numpy.ma`` on numpy 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

NORMALIZATION_TOL = 1e-6

# Floor applied to gridded densities so the log transform never sees an exact
# zero (kernel sums and exponentials underflow in the tails).  Kept near the
# bottom of the double range: a larger floor flattens genuine Gaussian
# log-tails into plateaus and corrupts the leading modes of variation.
DENSITY_FLOOR = 1e-300


class DomainMismatchError(ValueError):
    """Raised when two grid functions live on different domains."""


class NotNormalizedError(ValueError):
    """Raised when a function expected to integrate to one does not."""


@dataclass(frozen=True)
class Domain:
    """Compact interval ``[lo, hi]`` discretized by ``n_grid`` equispaced points.

    Grid points are ``t_j = lo + j * (hi - lo) / (n_grid - 1)`` for
    ``j = 0, ..., n_grid - 1``, endpoints inclusive.
    """

    lo: float
    hi: float
    n_grid: int = 512

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("domain endpoints must be finite")
        if self.hi <= self.lo:
            raise ValueError(f"need hi > lo, got [{self.lo}, {self.hi}]")
        # Python floats: a numpy scalar difference would warn as it overflows
        if not math.isfinite(float(self.hi) - float(self.lo)):
            raise ValueError(f"domain width hi - lo overflows, got [{self.lo}, {self.hi}]")
        if self.n_grid < 16:
            raise ValueError(f"n_grid must be at least 16, got {self.n_grid}")

    @cached_property
    def grid(self) -> np.ndarray:
        g = np.linspace(self.lo, self.hi, self.n_grid)
        g.setflags(write=False)
        return g

    @cached_property
    def trap_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights; endpoints carry half a cell."""
        w = np.full(self.n_grid, self.dt)
        w[0] = w[-1] = 0.5 * self.dt
        w.setflags(write=False)
        return w

    @property
    def dt(self) -> float:
        return (self.hi - self.lo) / (self.n_grid - 1)

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all((x >= self.lo) & (x <= self.hi)))


@dataclass(frozen=True)
class GridFn:
    """A real-valued function given by its (finite) values on a domain grid."""

    domain: Domain
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.domain.n_grid,):
            raise ValueError(
                f"expected {self.domain.n_grid} values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must all be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __call__(self, x):
        """Evaluate at arbitrary points by linear interpolation on the grid."""
        return np.interp(x, self.domain.grid, self.values)


def integrate(f: GridFn) -> float:
    """Trapezoidal-rule integral of ``f`` over its domain."""
    return float(f.domain.trap_weights @ f.values)


def inner(f: GridFn, g: GridFn) -> float:
    """L2 inner product ``\\int f g`` under the trapezoidal rule."""
    if f.domain != g.domain:
        raise DomainMismatchError(
            f"domains differ: {f.domain} vs {g.domain}"
        )
    return float(f.domain.trap_weights @ (f.values * g.values))


def check_normalized(p: GridFn, name: str = "density") -> None:
    """Raise :class:`NotNormalizedError`, naming ``p`` as ``name``, unless it
    integrates to one within ``NORMALIZATION_TOL``."""
    total = integrate(p)
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise NotNormalizedError(f"{name} integrates to {total}, expected 1")


def cdf_on_grid(p: GridFn) -> np.ndarray:
    """Cumulative trapezoidal integral of ``p``; entry ``j`` is mass up to ``t_j``."""
    v = p.values
    cell_mass = 0.5 * (v[:-1] + v[1:]) * p.domain.dt
    cdf = np.empty(p.domain.n_grid)
    cdf[0] = 0.0
    np.cumsum(cell_mass, out=cdf[1:])
    return cdf


def quantile_of_density(p: GridFn, q: float) -> float:
    """Smallest ``t`` with ``CDF(t) >= q``, with the CDF linear inside grid cells.

    ``p`` must be a nonnegative density integrating to one within
    ``NORMALIZATION_TOL``.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {q}")
    if np.any(p.values < 0):
        raise ValueError("density values must be nonnegative")
    check_normalized(p)
    cdf = cdf_on_grid(p)
    q_eff = min(q, cdf[-1])
    j = int(np.searchsorted(cdf, q_eff, side="left"))
    if j == 0:
        return float(p.domain.lo)
    t = p.domain.grid
    # first index with cdf[j] >= q, hence the cell (j-1, j) has positive mass
    frac = (q_eff - cdf[j - 1]) / (cdf[j] - cdf[j - 1])
    return float(t[j - 1] + frac * (t[j] - t[j - 1]))


def sorted_quantile(x: np.ndarray, q: float):
    """The ``q`` quantile of sorted values along the last axis of ``x``, bit
    for bit ``np.percentile(x, 100 * q, axis=-1)``: with ``g`` the fraction of
    ``(n - 1) * q`` and ``a``, ``b`` the values either side of it, ``a + (b -
    a) * g`` for ``g < 0.5`` and ``b - (b - a) * (1 - g)`` otherwise.  Only
    the sign of a zero may differ where ``x`` holds both -0 and +0: numpy
    partitions, and which of the two it reads is its own."""
    pos = (x.shape[-1] - 1) * q
    i = math.floor(pos)
    g = pos - i
    a, b = x[..., i], x[..., min(i + 1, x.shape[-1] - 1)]
    return a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)


def sorted_median(x: np.ndarray) -> float:
    """The median of the sorted values ``x`` (NaNs last, as ``np.sort``
    leaves them), bit for bit ``np.median(x)``: the middle value, or the mean
    of the two middle values, and NaN where ``x`` is empty or holds one.
    ``+ 0.0`` copies ``np.mean``'s sum, which starts from +0 and so never
    gives -0."""
    n = x.size
    if not n or np.isnan(x[-1]):
        return math.nan
    mid = float(x[n // 2]) if n % 2 else (float(x[n // 2 - 1]) + float(x[n // 2])) / 2
    return mid + 0.0
