import numpy as np
import pytest
from scipy.stats import truncnorm

from repden.grid import (
    Domain,
    DomainMismatchError,
    GridFn,
    NotNormalizedError,
    cdf_on_grid,
    inner,
    integrate,
    quantile_of_density,
)


def test_domain_invariants():
    with pytest.raises(ValueError):
        Domain(1.0, 0.0, 100)
    with pytest.raises(ValueError):
        Domain(0.0, 1.0, 15)
    d = Domain(0.0, 1.0, 101)
    assert d.grid[0] == 0.0 and d.grid[-1] == 1.0
    assert d.trap_weights.sum() == pytest.approx(1.0)


def test_gridfn_rejects_nonfinite():
    d = Domain(0.0, 1.0, 16)
    with pytest.raises(ValueError):
        GridFn(d, np.full(16, np.nan))
    with pytest.raises(ValueError):
        GridFn(d, np.ones(17))


def test_integrate_constant_exact():
    d = Domain(0.0, 1.0, 101)
    assert integrate(GridFn(d, np.ones(101))) == pytest.approx(1.0, abs=1e-15)


def test_integrate_linear_exact():
    d = Domain(0.0, 1.0, 101)
    assert integrate(GridFn(d, d.grid)) == pytest.approx(0.5, abs=1e-15)


def test_integrate_quadratic_second_order():
    d = Domain(0.0, 1.0, 1001)
    assert integrate(GridFn(d, d.grid**2)) == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_integrate_linearity_machine_precision():
    d = Domain(-2.0, 3.0, 257)
    rng = np.random.default_rng(0)
    f = GridFn(d, rng.normal(size=257))
    g = GridFn(d, rng.normal(size=257))
    a, b = 1.7, -0.3
    combo = GridFn(d, a * f.values + b * g.values)
    assert integrate(combo) == pytest.approx(
        a * integrate(f) + b * integrate(g), abs=1e-12
    )


def test_inner_zero_function():
    d = Domain(0.0, 1.0, 64)
    z = GridFn(d, np.zeros(64))
    assert inner(z, z) == 0.0


def test_inner_orthogonal_trig():
    d = Domain(0.0, 1.0, 1001)
    s = GridFn(d, np.sin(2 * np.pi * d.grid))
    c = GridFn(d, np.cos(2 * np.pi * d.grid))
    assert inner(s, c) == pytest.approx(0.0, abs=1e-8)


def test_inner_one_and_t():
    d = Domain(0.0, 1.0, 101)
    assert inner(GridFn(d, np.ones(101)), GridFn(d, d.grid)) == pytest.approx(0.5)


def test_inner_domain_mismatch():
    f = GridFn(Domain(0.0, 1.0, 64), np.ones(64))
    g = GridFn(Domain(0.0, 2.0, 64), np.ones(64))
    with pytest.raises(DomainMismatchError):
        inner(f, g)


def test_quantile_uniform():
    d = Domain(0.0, 1.0, 201)
    p = GridFn(d, np.ones(201))
    assert quantile_of_density(p, 0.5) == pytest.approx(0.5, abs=1e-9)
    assert quantile_of_density(p, 0.9) == pytest.approx(0.9, abs=1e-9)


def test_quantile_truncated_normal_against_scipy():
    # oracle: exact CDF inversion of the standard normal truncated to [-3, 3]
    d = Domain(-3.0, 3.0, 4001)
    vals = np.exp(-0.5 * d.grid**2)
    p = GridFn(d, vals / integrate(GridFn(d, vals)))
    got = quantile_of_density(p, 0.975)
    want = truncnorm.ppf(0.975, -3, 3)
    assert got == pytest.approx(want, abs=1e-3)


def test_quantile_rejects_unnormalized():
    d = Domain(0.0, 1.0, 64)
    with pytest.raises(NotNormalizedError):
        quantile_of_density(GridFn(d, np.full(64, 2.0)), 0.5)


def test_quantile_rejects_bad_level():
    d = Domain(0.0, 1.0, 64)
    p = GridFn(d, np.ones(64))
    for q in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            quantile_of_density(p, q)


def _random_density(seed, n_grid=301):
    d = Domain(0.0, 1.0, n_grid)
    rng = np.random.default_rng(seed)
    vals = np.exp(rng.normal(size=n_grid).cumsum() * 0.05)
    return GridFn(d, vals / integrate(GridFn(d, vals)))


def test_quantile_nondecreasing_in_q():
    p = _random_density(7)
    qs = np.linspace(0.01, 0.99, 50)
    levels = [quantile_of_density(p, q) for q in qs]
    assert np.all(np.diff(levels) >= 0)


def test_quantile_inverts_cdf_within_one_cell():
    p = _random_density(11)
    cdf = cdf_on_grid(p)
    t = p.domain.grid
    dt = p.domain.dt
    for j in range(10, 290, 40):
        q = cdf[j]
        if not 0.0 < q < 1.0:
            continue
        assert abs(quantile_of_density(p, q) - t[j]) <= dt + 1e-12


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (np.float64(-1e308), np.float64(1e308)),
                                    (-np.finfo(float).max, np.finfo(float).max)])
def test_domain_rejects_a_width_that_overflows(lo, hi):
    with pytest.raises(ValueError, match="width"):
        Domain(lo, hi, 64)
    Domain(-1e307, 1e307, 64)
