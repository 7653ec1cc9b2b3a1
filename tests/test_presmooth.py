import numpy as np
import pytest
from scipy.integrate import quad

from repden.grid import Domain, integrate
from repden.presmooth import (
    DegenerateSampleError,
    KdeConfig,
    SubpopSample,
    median_bandwidth,
    silverman_bandwidth,
    weighted_kde,
)
from repden.simgen import default_spec, generate


def test_sample_sorted_and_validated():
    s = SubpopSample("a", np.array([3.0, 1.0, 2.0]))
    assert np.array_equal(s.obs, [1.0, 2.0, 3.0])
    assert s.size == 3
    with pytest.raises(ValueError):
        SubpopSample("b", np.array([]))
    with pytest.raises(ValueError):
        SubpopSample("c", np.array([1.0, np.inf]))


def test_kde_config_validation():
    with pytest.raises(ValueError):
        KdeConfig(bandwidth=0.0)
    with pytest.raises(ValueError):
        KdeConfig(bandwidth=0.1, kernel="epanechnikov")


def test_kde_symmetric_about_interior_observation():
    dom = Domain(-1.0, 1.0, 401)
    p = weighted_kde(SubpopSample("a", np.array([0.0])), KdeConfig(0.2), dom)
    assert np.max(np.abs(p.values - p.values[::-1])) < 1e-10


def test_kde_normalized_and_positive():
    dom = Domain(0.0, 1.0, 256)
    rng = np.random.default_rng(3)
    for _ in range(5):
        s = SubpopSample("a", rng.uniform(0, 1, size=30))
        p = weighted_kde(s, KdeConfig(0.05), dom)
        assert integrate(p) == pytest.approx(1.0, abs=1e-8)
        assert p.values.min() > 0


def test_kde_boundary_value_matches_quadrature_oracle():
    # oracle: same estimator but with the boundary weight integral computed
    # numerically instead of from the closed-form normal CDF
    dom = Domain(-1.0, 1.0, 8001)
    h = 0.1
    obs = np.array([-1.0, -0.6, 0.2])
    p = weighted_kde(SubpopSample("a", obs), KdeConfig(h), dom)

    def kappa(u):
        return np.exp(-0.5 * u * u) / np.sqrt(2 * np.pi)

    t = dom.grid
    ksum = kappa((t[:, None] - obs[None, :]) / h).sum(axis=1)
    weight = np.empty_like(t)
    for i, ti in enumerate(t):
        mass, _ = quad(kappa, (ti - dom.hi) / h, (ti - dom.lo) / h)
        weight[i] = 1.0 / mass
    raw = ksum * weight
    oracle = raw / (dom.trap_weights @ raw)
    assert p.values[0] == pytest.approx(oracle[0], abs=1e-6)
    assert np.max(np.abs(p.values - oracle)) < 1e-6


def test_kde_rejects_out_of_domain():
    dom = Domain(0.0, 1.0, 64)
    with pytest.raises(ValueError):
        weighted_kde(SubpopSample("a", np.array([2.0])), KdeConfig(0.1), dom)


def test_kde_bandwidth_floor_is_grid_spacing_over_64():
    dom = Domain(-3.0, 3.0, 512)
    sample = SubpopSample("a", np.array([-1.0, 0.3, 2.0]))
    assert np.all(weighted_kde(sample, KdeConfig(dom.dt / 64), dom).values > 0)
    with pytest.raises(ValueError, match="bandwidth"):
        weighted_kde(sample, KdeConfig(np.nextafter(dom.dt / 64, 0)), dom)


def test_kde_bandwidth_ceiling_is_domain_length_times_2_pow_20():
    # at the ceiling the kernel is flat to 5e-13 across the domain, and no
    # product overflows; above it the bandwidth is rejected before any sum
    dom = Domain(-3.0, 3.0, 128)
    sample = SubpopSample("a", np.array([-2.0, 0.5, 1.0]))
    h = dom.length * 2**20
    p = weighted_kde(sample, KdeConfig(h), dom)
    assert np.ptp(np.log(p.values)) < 5e-13
    with pytest.raises(ValueError, match=r"above the domain length 6 \* 2\*\*20"):
        weighted_kde(sample, KdeConfig(np.nextafter(h, np.inf)), dom)


def test_kde_shift_equivariance_in_interior():
    dom = Domain(-10.0, 10.0, 501)
    rng = np.random.default_rng(9)
    obs = rng.normal(0.0, 0.5, size=40)
    delta = 25 * dom.dt  # exact multiple of the grid step
    p0 = weighted_kde(SubpopSample("a", obs), KdeConfig(0.3), dom)
    p1 = weighted_kde(SubpopSample("a", obs + delta), KdeConfig(0.3), dom)
    assert np.max(np.abs(p1.values[125:425] - p0.values[100:400])) < 1e-6


def test_kde_boundary_correction_removes_depression():
    # uniform data: the corrected estimate keeps its level at the endpoint
    dom = Domain(0.0, 1.0, 201)
    rng = np.random.default_rng(21)
    at_edge, interior = [], []
    for _ in range(100):
        s = SubpopSample("a", rng.uniform(0, 1, size=200))
        p = weighted_kde(s, KdeConfig(silverman_bandwidth(s)), dom)
        at_edge.append(p.values[0])
        interior.append(p.values[100])
    ratio = np.mean(at_edge) / np.mean(interior)
    assert ratio > 0.8


def test_silverman_hand_value():
    s = SubpopSample("a", np.array([0.0, 1.0]))
    want = 0.9 * (0.5 / 1.34) * 2 ** (-0.2)
    assert silverman_bandwidth(s) == pytest.approx(want, rel=1e-12)
    assert silverman_bandwidth(s) == pytest.approx(0.2923, abs=5e-5)


def test_silverman_shrinks_with_sample_size():
    rng = np.random.default_rng(4)
    hs = [
        silverman_bandwidth(SubpopSample("a", rng.normal(0, 1, size=n)))
        for n in (50, 500, 5000, 50000)
    ]
    assert np.all(np.diff(hs) < 0)


def test_silverman_degenerate_sample():
    with pytest.raises(DegenerateSampleError):
        silverman_bandwidth(SubpopSample("a", np.full(5, 2.0)))
    with pytest.raises(ValueError):
        silverman_bandwidth(SubpopSample("a", np.array([1.0])))


def test_silverman_zero_iqr_falls_back_to_sd():
    s = SubpopSample("a", np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]))
    h = silverman_bandwidth(s)
    sd = np.std(s.obs, ddof=1)
    assert h == pytest.approx(0.9 * sd * 8 ** (-0.2))


def test_median_bandwidth_single_and_median():
    rng = np.random.default_rng(8)
    samples = [SubpopSample(str(i), rng.normal(0, 1 + i, size=30)) for i in range(3)]
    hs = sorted(silverman_bandwidth(s) for s in samples)
    assert median_bandwidth(samples[:1]) == silverman_bandwidth(samples[0])
    assert median_bandwidth(samples) == pytest.approx(hs[1])


def test_median_bandwidth_skips_degenerate():
    rng = np.random.default_rng(8)
    good = SubpopSample("g", rng.normal(size=20))
    bad = SubpopSample("b", np.zeros(5))
    assert median_bandwidth([bad, good]) == silverman_bandwidth(good)
    with pytest.raises(DegenerateSampleError):
        median_bandwidth([bad])


def test_bandwidths_cluster_around_median_on_benchmark_design():
    spec = default_spec("trunc_normal", seed=31, n_test=1)
    train, _ = generate(spec)
    hs = np.array([silverman_bandwidth(s) for s in train])
    med = np.median(hs)
    assert np.all(hs < 3 * med) and np.all(hs > med / 3)
