"""Pilot density estimation for training subpopulations.

A boundary-corrected weighted kernel density estimate produces strictly
positive pilot densities on the grid; the per-sample rule-of-thumb bandwidth
feeds a median rule that fixes one bandwidth for the whole training set.

The kernel sum is exact: every grid point sums the kernel over all N
observations, as a dense G x N evaluation would, but the grid is walked in
blocks of rows that share one buffer of at most ``BUDGET`` elements (or one
row of N), so memory is O(G + N) and the sums are bit-identical to the dense
formula.  Linear binning with a convolution (Silverman 1982; Wand 1994) was
rejected because it corrupts the log-tails that the centered log transform
feeds to the FPCA: on 20 samples of 20,000 observations with G = 512 it moved
log p by up to 0.11 with a direct Toeplitz product, and by up to 652 with an
FFT, whose round-off floors the tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import DENSITY_FLOOR, Domain, GridFn

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))

# Elements of the buffer that holds one block of grid rows against all N
# observations; a block has max(1, BUDGET // N) rows.
BUDGET = 1 << 16


class DegenerateSampleError(ValueError):
    """Raised when a sample has zero spread and no bandwidth can be formed."""


@dataclass(frozen=True)
class SubpopSample:
    """Observations of one subpopulation; values are kept sorted."""

    id: str
    obs: np.ndarray

    def __post_init__(self):
        obs = np.sort(np.asarray(self.obs, dtype=float).ravel())
        if obs.size < 1:
            raise ValueError(f"subpopulation {self.id!r} has no observations")
        if not np.all(np.isfinite(obs)):
            raise ValueError(f"subpopulation {self.id!r} has non-finite observations")
        obs.setflags(write=False)
        object.__setattr__(self, "obs", obs)

    @property
    def size(self) -> int:
        return int(self.obs.size)


@dataclass(frozen=True)
class KdeConfig:
    bandwidth: float
    kernel: str = "gaussian"

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.kernel != "gaussian":
            raise ValueError(f"unsupported kernel {self.kernel!r}")


def _erf(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.erf, x.tolist()), float, count=x.size)


def boundary_weight(t: np.ndarray, h: float, domain: Domain) -> np.ndarray:
    """Reciprocal of the Gaussian kernel mass falling inside the domain.

    Dividing the kernel sum by this mass removes the downward bias of a
    plain KDE near the interval endpoints.  Computed in closed form as the
    sum of two non-negative error functions, so no digits cancel even when
    the kernel is much wider than the domain.
    """
    r = 1.0 / (h * math.sqrt(2.0))
    erfs = _erf((t - domain.lo) * r) + _erf((domain.hi - t) * r)
    return 1.0 / (0.5 * erfs)


@lru_cache(maxsize=16)
def _grid_boundary_weight(h: float, domain: Domain) -> np.ndarray:
    # The same (h, domain) serves every group of a training set and every
    # leave-one-out refit of a sample; the erf calls were over half the time
    # of a 10-value KDE.  Equal domains have equal grids up to the sign of a
    # zero, which adds to a positive erf and does not change the sum.
    weight = boundary_weight(domain.grid, h, domain)
    weight.setflags(write=False)
    return weight


def check_bandwidth(h: float, domain: Domain) -> None:
    """Raise ``ValueError`` for a bandwidth below ``domain.dt / 64`` or above
    ``domain.length * 2**20``, the range :func:`weighted_kde` accepts on the
    domain's grid."""
    if h < domain.dt / 64:
        raise ValueError(f"bandwidth {h:g} is below the grid spacing {domain.dt:g} / 64")
    if h > domain.length * 2**20:
        raise ValueError(f"bandwidth {h:g} is above the domain length {domain.length:g} * 2**20")


def weighted_kde(sample: SubpopSample, cfg: KdeConfig, domain: Domain) -> GridFn:
    """Boundary-corrected Gaussian KDE of ``sample`` on the domain grid.

    Returns a strictly positive density normalized to integrate to one
    under the trapezoidal rule.  The bandwidth must be at least
    ``domain.dt / 64``: every observation lies within ``dt / 2`` of a grid
    point, whose kernel term is then at least ``exp(-512) > 0``, and no
    squared distance over ``h`` overflows.  Below it, a kernel sum can
    vanish or overflow.  At the ceiling ``domain.length * 2**20`` the kernel
    varies by under 5e-13 across the domain; above it, the boundary weight,
    which grows like ``h``, can overflow its product with the kernel sum.
    """
    if not domain.contains(sample.obs):
        raise ValueError(
            f"subpopulation {sample.id!r} has observations outside "
            f"[{domain.lo}, {domain.hi}]"
        )
    t = domain.grid
    h = cfg.bandwidth
    check_bandwidth(h, domain)
    x = sample.obs
    rows = max(1, BUDGET // x.size)
    buf = np.empty((min(rows, t.size), x.size))
    ksum = np.empty(t.size)
    for start in range(0, t.size, rows):
        z = buf[: t.size - start]
        np.subtract(t[start:start + len(z), None], x, out=z)
        z /= h
        np.square(z, out=z)
        z *= -0.5
        np.exp(z, out=z)
        # one pairwise sum per row over the whole sample, as in the dense
        # G x N evaluation, so the result does not depend on the block size
        z.sum(axis=1, out=ksum[start:start + len(z)])
    ksum /= _SQRT_2PI
    raw = ksum * _grid_boundary_weight(h, domain)
    raw = raw / (domain.trap_weights @ raw)
    vals = np.maximum(raw, DENSITY_FLOOR)
    vals = vals / (domain.trap_weights @ vals)
    return GridFn(domain, vals)


def silverman_bandwidth(sample: SubpopSample) -> float:
    """Rule-of-thumb bandwidth ``0.9 * min(sd, IQR/1.34) * N^(-1/5)``.

    Falls back to the standard deviation when the IQR is zero but the
    sample still has spread; raises :class:`DegenerateSampleError` when all
    values coincide.
    """
    if sample.size < 2:
        raise ValueError("bandwidth selection needs at least two observations")
    sd = float(np.std(sample.obs, ddof=1))
    if sd == 0.0:
        raise DegenerateSampleError(
            f"subpopulation {sample.id!r} has zero spread"
        )
    q1, q3 = np.percentile(sample.obs, [25.0, 75.0])
    iqr = float(q3 - q1)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 0.9 * spread * sample.size ** (-0.2)


def median_bandwidth(samples: list[SubpopSample]) -> float:
    """Median of the per-sample bandwidths; one value for the whole training set."""
    bandwidths = []
    for s in samples:
        try:
            bandwidths.append(silverman_bandwidth(s))
        except ValueError:
            continue
    if not bandwidths:
        raise DegenerateSampleError("no sample yields a valid bandwidth")
    return float(np.median(bandwidths))
