"""Training starts pre-smoothing helper threads only for a set of at least
``HELPER_THRESHOLD`` kernel-sum values (grid points times observations), one
worker per available CPU; a smaller set is smoothed on the calling thread
alone."""

import json
import os
import threading

import numpy as np
import pytest

from repden import expfam
from repden.expfam import HELPER_THRESHOLD, train_family
from repden.grid import Domain
from repden.modelio import model_to_dict
from repden.presmooth import SubpopSample

DOMAIN = Domain(-3.0, 3.0, 512)


def _cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _samples(n, size):
    rng = np.random.default_rng(29)
    return [SubpopSample(f"g{i}", rng.normal(0.2 * (i % 3) - 0.2, 0.8, size).clip(-2.9, 2.9))
            for i in range(n)]


def _started(monkeypatch):
    """The names of the threads started from here on."""
    started = []

    class Spy(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Spy)
    return started


@pytest.mark.skipif(_cpus() < 2, reason="one CPU never starts a helper thread")
def test_simulates_training_set_starts_no_thread(monkeypatch):
    # simulate's 50 groups of 200 values on 512 grid points
    samples = _samples(50, 200)
    assert 50 * 200 * DOMAIN.n_grid < HELPER_THRESHOLD
    started = _started(monkeypatch)
    model = train_family(samples, DOMAIN, 4)
    assert started == []
    assert len(model.train_densities) == 50


# three samples whose kernel sums come to just under, or just over, the threshold
SIZE = -(-HELPER_THRESHOLD // (3 * DOMAIN.n_grid))


def test_a_set_just_under_the_threshold_starts_no_thread(monkeypatch):
    samples = _samples(3, SIZE - 1)
    assert 3 * (SIZE - 1) * DOMAIN.n_grid < HELPER_THRESHOLD
    started = _started(monkeypatch)
    train_family(samples, DOMAIN, 2)
    assert started == []


def test_a_set_at_the_threshold_starts_a_thread_per_further_cpu(monkeypatch):
    n = 3
    samples = _samples(n, SIZE)
    assert HELPER_THRESHOLD <= n * SIZE * DOMAIN.n_grid < 2 * HELPER_THRESHOLD
    started = _started(monkeypatch)
    model = train_family(samples, DOMAIN, 2)
    assert len(started) == min(_cpus(), n) - 1
    monkeypatch.setattr(expfam, "_presmooth_workers", lambda n_samples: 1)
    serial = train_family(samples, DOMAIN, 2)
    assert json.dumps(model_to_dict(model)) == json.dumps(model_to_dict(serial))
