"""The simulate KDE baseline, smoothed in stacks of equal-size samples, is
each sample's own ``weighted_kde`` bit for bit, and fails as it would."""

import re

import numpy as np
import pytest

from repden import cli, simulate
from repden.grid import Domain
from repden.presmooth import (BUDGET, DegenerateSampleError, KdeConfig, SubpopSample,
                              silverman_bandwidth, silverman_kdes, weighted_kde)
from repden.simgen import default_spec


def one_by_one(sample, domain):
    return weighted_kde(sample, KdeConfig(silverman_bandwidth(sample)), domain)


def assert_matches_one_by_one(samples, domain):
    seen = []
    for rows, dom, values in silverman_kdes(samples, domain):
        assert dom == domain
        for i, v in zip(rows.tolist(), values):
            assert np.array_equal(v, one_by_one(samples[i], domain).values)
            seen.append(i)
    assert sorted(seen) == list(range(len(samples)))


def _samples(sizes, seed, lo=-3.0, hi=3.0):
    rng = np.random.default_rng(seed)
    return [SubpopSample(f"s{i}", np.clip(rng.normal(rng.uniform(-1, 1), 0.7, n), lo, hi))
            for i, n in enumerate(sizes)]


def test_ragged_sizes_match_weighted_kde():
    rng = np.random.default_rng(1)
    sizes = rng.integers(2, 61, 120)
    assert_matches_one_by_one(_samples(sizes, 2), Domain(-3.0, 3.0, 512))


@pytest.mark.parametrize("g", [512, 4096])
def test_sizes_where_the_stack_length_changes(g):
    # the stack length BUDGET // (g * n) steps down at these sizes, and is 1
    # (a single sample, walked in blocks of grid rows) past BUDGET // g
    edges = {n for k in (1, 2, 3, 6) for n in (BUDGET // (g * k), BUDGET // (g * k) + 1)}
    sizes = [n for n in sorted(edges) if n >= 2 for _ in range(9)] + [BUDGET // g + 40] * 2
    assert_matches_one_by_one(_samples(sizes, g), Domain(-3.0, 3.0, g))


def failing_samples(order):
    """A regular sample, then a zero-spread one and one whose bandwidth is
    below ``dt / 64`` on the 512-point [-3, 3] grid, in ``order``."""
    flat = SubpopSample("flat", np.full(10, 0.5))
    narrow = SubpopSample("narrow", 0.1 + 1e-7 * np.arange(10))
    return _samples([10], 4) + ([flat, narrow] if order == "flat_first" else [narrow, flat])


def first_error(samples, domain):
    for s in samples:
        try:
            one_by_one(s, domain)
        except ValueError as exc:
            return exc
    raise AssertionError("no sample failed")


@pytest.mark.parametrize("order", ["flat_first", "narrow_first"])
def test_first_failing_sample_in_order_raises_its_error(order):
    domain = Domain(-3.0, 3.0, 512)
    samples = failing_samples(order)
    want = first_error(samples, domain)
    assert isinstance(want, DegenerateSampleError) == (order == "flat_first")
    with pytest.raises(type(want)) as got:
        list(silverman_kdes(samples, domain))
    assert str(got.value) == str(want)


@pytest.mark.parametrize("order", ["flat_first", "narrow_first"])
def test_replication_reports_the_earlier_failing_test_sample(monkeypatch, tmp_path, capsys, order):
    real_generate = simulate.generate

    def generate(spec, n_grid):
        train, test = real_generate(spec, n_grid=n_grid)
        bad = failing_samples(order)[1:]
        return train, [(s, truth) for s, (_, truth) in zip(bad, test[:2])] + test[2:]

    monkeypatch.setattr(simulate, "generate", generate)
    want = first_error(failing_samples(order)[1:], Domain(-3.0, 3.0, 512))
    spec = default_spec("trunc_normal", 3, n_train=8, train_size=40, n_test=6, test_size=10)
    with pytest.raises(type(want), match=re.escape(str(want))):
        simulate.run_replication(spec, 0, k_max=2)
    code = cli.main(["simulate", "--scenario", "trunc_normal", "--seed", "3", "--reps", "1",
                     "--n-train", "8", "--train-size", "40", "--n-test", "6",
                     "--test-size", "10", "--k-max", "2", "--out", str(tmp_path / "sim")])
    assert code == 3
    assert capsys.readouterr().err == f"numerical failure: replication 0: {want}\n"
