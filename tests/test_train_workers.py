"""Training pre-smooths its samples in a thread pool; the model must not
depend on how many workers the pool has."""

import os

import numpy as np
import pytest

from repden import expfam
from repden.expfam import train_family
from repden.grid import Domain
from repden.presmooth import KdeConfig, SubpopSample, median_bandwidth, weighted_kde

DOMAIN = Domain(-3.0, 3.0, 128)


def _samples(n=7):
    rng = np.random.default_rng(41)
    return [SubpopSample(f"g{i}", rng.normal(0.3 * (i % 3) - 0.3, 0.8, 40 + 300 * i).clip(-3, 3))
            for i in range(n)]


def _train(monkeypatch, workers, samples):
    monkeypatch.setattr(expfam, "_presmooth_workers", lambda n: workers)
    return train_family(samples, DOMAIN, 4)


def test_model_does_not_depend_on_the_worker_count(monkeypatch):
    samples = _samples()
    one, three = (_train(monkeypatch, w, samples) for w in (1, 3))
    assert [p.values.tobytes() for p in one.train_densities] == \
        [p.values.tobytes() for p in three.train_densities]
    assert one.sys.eigvals.tobytes() == three.sys.eigvals.tobytes()
    assert [f.values.tobytes() for f in one.sys.eigfns] == \
        [f.values.tobytes() for f in three.sys.eigfns]
    assert one.train_scores.tobytes() == three.train_scores.tobytes()

    cfg = KdeConfig(bandwidth=median_bandwidth(samples))
    alone = [weighted_kde(s, cfg, DOMAIN).values.tobytes() for s in samples]
    assert [p.values.tobytes() for p in three.train_densities] == alone


@pytest.mark.parametrize("workers", [1, 3])
def test_first_group_outside_the_domain_is_reported(monkeypatch, workers):
    samples = _samples()
    samples[2] = SubpopSample("early", np.r_[samples[2].obs, 3.5])
    samples[5] = SubpopSample("late", np.r_[samples[5].obs, -4.0])
    with pytest.raises(ValueError, match="'early' has observations outside"):
        _train(monkeypatch, workers, samples)


def test_worker_count_is_capped_by_the_samples():
    assert expfam._presmooth_workers(1) == 1
    assert 1 <= expfam._presmooth_workers(1000) <= (os.cpu_count() or 1)
