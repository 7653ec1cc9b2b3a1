"""Centralized log transform between densities and the unconstrained space.

A strictly positive density maps to its log minus the domain-average log, a
function with zero integral; the inverse exponentiates (max-shifted) and
renormalizes.  The centering constant uses the same trapezoidal rule as all
other integrals, so the zero-integral invariant is exact in the discrete
system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridFn, check_normalized, integrate

CENTERING_TOL = 1e-6

# exp() overflows once the spread of log values exceeds roughly 709; stay under.
MAX_LOG_RANGE = 700.0


@dataclass(frozen=True)
class LogDensityFn:
    """A centered log-density: integrates to zero over its domain."""

    inner: GridFn

    def __post_init__(self):
        c = integrate(self.inner)
        if abs(c) > CENTERING_TOL:
            raise ValueError(f"log-density integrates to {c}, expected 0")

    @property
    def domain(self):
        return self.inner.domain

    @property
    def values(self) -> np.ndarray:
        return self.inner.values


def clog_transform(p: GridFn) -> LogDensityFn:
    """Map a strictly positive normalized density to its centered log."""
    if np.any(p.values <= 0):
        raise ValueError("density must be strictly positive on the grid")
    check_normalized(p)
    logp = np.log(p.values)
    c = float(p.domain.trap_weights @ logp) / p.domain.length
    return LogDensityFn(GridFn(p.domain, logp - c))


def clog_inverse(f: LogDensityFn) -> GridFn:
    """Back-transform: the normalized density proportional to ``exp(f)``."""
    vals = f.values
    spread = float(vals.max() - vals.min())
    if spread > MAX_LOG_RANGE:
        raise OverflowError(
            f"log-density range {spread:.1f} exceeds {MAX_LOG_RANGE}; "
            "density not representable in double precision"
        )
    shifted = np.exp(vals - vals.max())
    z = float(f.domain.trap_weights @ shifted)
    return GridFn(f.domain, shifted / z)
