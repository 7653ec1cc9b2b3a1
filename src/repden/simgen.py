"""Seeded generators for the benchmark scenarios.

Each scenario draws per-subpopulation densities from its population law and
then draws observations from those densities by inverse-CDF sampling on the
grid, so samples follow the gridded truths exactly.  Every subpopulation
gets its own child of the master seed, which keeps generation deterministic
under any evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Domain, GridFn, NORMALIZATION_TOL, NotNormalizedError, cdf_on_grid, integrate
from .presmooth import SubpopSample

SCENARIO_KINDS = (
    "trunc_normal",
    "bimodal",
    "gauss_mixture",
    "rand_intercept_normal",
    "rand_intercept_t3",
)

_SCENARIO_BOUNDS = {
    "trunc_normal": (-3.0, 3.0),
    "bimodal": (0.0, 1.0),
    "gauss_mixture": (-3.0, 3.0),
    "rand_intercept_normal": (-10.0, 10.0),
    "rand_intercept_t3": (-10.0, 10.0),
}

# Default sizes per scenario: (n_train, train_size, n_test, test_size).
SCENARIO_DEFAULTS = {
    "trunc_normal": (50, 200, 100, 10),
    "bimodal": (50, 200, 100, 50),
    "gauss_mixture": (50, 100, 100, 25),
    "rand_intercept_normal": (100, (75, 100), 100, (10, 20)),
    "rand_intercept_t3": (100, (75, 100), 100, (10, 20)),
}

_TRUTH_FLOOR = 1e-300


@dataclass(frozen=True)
class ScenarioSpec:
    """A generator description: scenario kind, sizes, and master seed.

    Sizes may be fixed integers or inclusive ``(lo, hi)`` ranges sampled
    uniformly per subpopulation.
    """

    kind: str
    n_train: int
    train_size: int | tuple[int, int]
    n_test: int
    test_size: int | tuple[int, int]
    seed: int

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario {self.kind!r}; expected one of {SCENARIO_KINDS}")
        for name, count in (("n_train", self.n_train), ("n_test", self.n_test)):
            if count < 1:
                raise ValueError(f"{name} must be at least 1, got {count}")
        for name, size in (("train_size", self.train_size), ("test_size", self.test_size)):
            if smallest_size(size) < 1:
                raise ValueError(f"{name} must be at least 1, got {size}")


def smallest_size(size: int | tuple[int, int]) -> int:
    """The smallest sample size a fixed size or ``(lo, hi)`` range can draw."""
    return size[0] if isinstance(size, tuple) else size


def default_spec(kind: str, seed: int, **overrides) -> ScenarioSpec:
    """The scenario's standard design, with any field overridden by keyword."""
    if kind not in SCENARIO_DEFAULTS:
        raise ValueError(f"unknown scenario {kind!r}; expected one of {SCENARIO_KINDS}")
    n_train, train_size, n_test, test_size = SCENARIO_DEFAULTS[kind]
    fields = dict(
        kind=kind,
        n_train=n_train,
        train_size=train_size,
        n_test=n_test,
        test_size=test_size,
        seed=seed,
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def scenario_domain(kind: str, n_grid: int = 512) -> Domain:
    lo, hi = _SCENARIO_BOUNDS[kind]
    return Domain(lo, hi, n_grid)


def _normalize(domain: Domain, raw: np.ndarray) -> GridFn:
    raw = np.maximum(raw, _TRUTH_FLOOR)
    return GridFn(domain, raw / (domain.trap_weights @ raw))


def truth_trunc_normal(domain: Domain, mu: float, sigma: float) -> GridFn:
    t = domain.grid
    return _normalize(domain, np.exp(-0.5 * ((t - mu) / sigma) ** 2))


def truth_bimodal(domain: Domain, theta: float) -> GridFn:
    t = domain.grid
    e = (4.0 + theta) * t - (26.5 + theta) * t**2 + 47.0 * t**3 - 25.0 * t**4
    return _normalize(domain, np.exp(e - e.max()))


def truth_gauss_mixture(domain: Domain, weights, means, sds) -> GridFn:
    t = domain.grid
    raw = np.zeros_like(t)
    for w, m, s in zip(weights, means, sds):
        raw += w * np.exp(-0.5 * ((t - m) / s) ** 2)
    return _normalize(domain, raw)


def truth_rand_intercept(domain: Domain, a: float, heavy_tail: bool) -> GridFn:
    z = domain.grid - a
    if heavy_tail:
        # t density with 3 degrees of freedom, up to normalization
        raw = (1.0 + z * z / 3.0) ** -2
    else:
        raw = np.exp(-0.5 * z * z)
    return _normalize(domain, raw)


def _draw_truth(kind: str, rng: np.random.Generator, domain: Domain) -> GridFn:
    if kind == "trunc_normal":
        return truth_trunc_normal(domain, rng.uniform(-2, 2), rng.uniform(2, 4))
    if kind == "bimodal":
        return truth_bimodal(domain, rng.uniform(0, 10))
    if kind == "gauss_mixture":
        weights = rng.dirichlet([1 / 3, 1 / 3, 1 / 3])
        means = rng.uniform(-5, 5, size=3)
        sds = rng.uniform(0.5, 5, size=3)
        return truth_gauss_mixture(domain, weights, means, sds)
    if kind == "rand_intercept_normal":
        return truth_rand_intercept(domain, rng.normal(0.0, 1.0), heavy_tail=False)
    if kind == "rand_intercept_t3":
        return truth_rand_intercept(domain, rng.normal(0.0, 1.0), heavy_tail=True)
    raise ValueError(f"unknown scenario {kind!r}")


def _draw_size(size: int | tuple[int, int], rng: np.random.Generator) -> int:
    if isinstance(size, tuple):
        lo, hi = size
        return int(rng.integers(lo, hi + 1))
    return int(size)


def inverse_cdf_sample(p: GridFn, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` observations from the gridded density by CDF inversion."""
    total = integrate(p)
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise NotNormalizedError(f"density integrates to {total}, expected 1")
    if n == 0:
        return np.empty(0)
    cdf = cdf_on_grid(p)
    cdf = cdf / cdf[-1]
    u = rng.random(n)
    idx = np.clip(np.searchsorted(cdf, u, side="left"), 1, p.domain.n_grid - 1)
    below = cdf[idx - 1]
    span = cdf[idx] - below
    t = p.domain.grid
    frac = np.where(span > 0, (u - below) / np.where(span > 0, span, 1.0), 0.0)
    return t[idx - 1] + frac * (t[idx] - t[idx - 1])


def sample_from_density(p: GridFn, n: int, seed) -> np.ndarray:
    """Seeded inverse-CDF sampling; identical output for identical seeds."""
    return inverse_cdf_sample(p, n, np.random.default_rng(seed))


def generate(
    spec: ScenarioSpec, n_grid: int = 512
) -> tuple[list[SubpopSample], list[tuple[SubpopSample, GridFn]]]:
    """Training samples plus testing samples with their true densities.

    Deterministic in ``spec.seed``: each subpopulation consumes its own
    seed-sequence child in a fixed order (density parameters, then size,
    then observations).
    """
    domain = scenario_domain(spec.kind, n_grid)
    train_root, test_root = np.random.SeedSequence(spec.seed).spawn(2)

    train: list[SubpopSample] = []
    for i, child in enumerate(train_root.spawn(spec.n_train)):
        rng = np.random.default_rng(child)
        truth = _draw_truth(spec.kind, rng, domain)
        size = _draw_size(spec.train_size, rng)
        obs = inverse_cdf_sample(truth, size, rng)
        train.append(SubpopSample(id=f"train_{i:04d}", obs=obs))

    test: list[tuple[SubpopSample, GridFn]] = []
    for i, child in enumerate(test_root.spawn(spec.n_test)):
        rng = np.random.default_rng(child)
        truth = _draw_truth(spec.kind, rng, domain)
        size = _draw_size(spec.test_size, rng)
        obs = inverse_cdf_sample(truth, size, rng)
        test.append((SubpopSample(id=f"test_{i:04d}", obs=obs), truth))

    return train, test
