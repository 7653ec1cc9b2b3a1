"""Training pre-smooths on the calling thread plus plain threads: who does
the work, what is left running afterwards, and which failure is raised."""

import sys
import threading

import numpy as np
import pytest

from repden import cli, expfam
from repden.expfam import train_family
from repden.grid import Domain
from repden.presmooth import SubpopSample

DOMAIN = Domain(-3.0, 3.0, 64)
real_kde = expfam.weighted_kde


def _samples(n=9, size=30):
    rng = np.random.default_rng(17)
    return [SubpopSample(f"g{i}", rng.normal(0.2 * (i % 4) - 0.3, 0.7, size).clip(-2.9, 2.9))
            for i in range(n)]


def _workers(monkeypatch, workers):
    monkeypatch.setattr(expfam, "_presmooth_workers", lambda n: workers)


def _failing_kde(monkeypatch, failures):
    """``weighted_kde`` raising ``failures[sample.id]`` for the named samples."""
    def kde(sample, cfg, domain):
        if sample.id in failures:
            raise failures[sample.id]
        return real_kde(sample, cfg, domain)
    monkeypatch.setattr(expfam, "weighted_kde", kde)


def test_one_worker_smooths_everything_on_the_calling_thread(monkeypatch):
    _workers(monkeypatch, 1)
    seen = []
    before = threading.active_count()

    def spy(sample, cfg, domain):
        seen.append(threading.get_ident())
        return real_kde(sample, cfg, domain)

    monkeypatch.setattr(expfam, "weighted_kde", spy)
    train_family(_samples(), DOMAIN, 3)
    assert seen == [threading.get_ident()] * 9
    assert threading.active_count() == before


def test_three_workers_are_the_caller_and_at_most_two_threads(monkeypatch):
    _workers(monkeypatch, 3)
    caller = threading.get_ident()
    caller_smoothed = threading.Event()
    lock = threading.Lock()
    seen = []
    before = threading.active_count()

    def spy(sample, cfg, domain):
        ident = threading.get_ident()
        if ident == caller:
            caller_smoothed.set()
        else:
            # hold the other workers back until the caller has taken a sample,
            # so a fast thread cannot drain the counter first
            caller_smoothed.wait(timeout=30)
        with lock:
            seen.append(ident)
        return real_kde(sample, cfg, domain)

    monkeypatch.setattr(expfam, "weighted_kde", spy)
    model = train_family(_samples(), DOMAIN, 3)
    assert len(seen) == 9 and len(model.train_densities) == 9
    assert caller in seen
    assert len(set(seen) - {caller}) <= 2
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_programming_error_propagates_unchanged(monkeypatch, workers):
    _workers(monkeypatch, workers)
    boom = RuntimeError("bug in the kernel sums")
    _failing_kde(monkeypatch, {"g4": boom})
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        train_family(_samples(), DOMAIN, 3)
    assert info.value is boom
    assert threading.active_count() == before


def test_a_programming_error_ends_the_train_command(monkeypatch, tmp_path):
    # train turns a ValueError into a usage error; anything else is a crash
    _workers(monkeypatch, 2)
    boom = RuntimeError("bug in the kernel sums")
    _failing_kde(monkeypatch, {"g1": boom})
    with open(tmp_path / "train.csv", "w") as f:
        f.write("subpop_id,value\n")
        for s in _samples(4):
            f.writelines(f"{s.id},{float(v)!r}\n" for v in s.obs)
    with pytest.raises(RuntimeError) as info:
        cli.main(["train", str(tmp_path / "train.csv"), "--out", str(tmp_path / "model.json"),
                  "--domain=-3,3", "--grid", "64", "--k-max", "2"])
    assert info.value is boom
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_first_failing_sample_in_input_order_wins(monkeypatch, workers):
    _workers(monkeypatch, workers)
    early, late = ValueError("early"), RuntimeError("late")
    late_failed = threading.Event()

    def kde(sample, cfg, domain):
        if sample.id == "g2":
            # with another worker, the later sample fails first
            if workers > 1:
                late_failed.wait(timeout=30)
            raise early
        if sample.id == "g6":
            late_failed.set()
            raise late
        return real_kde(sample, cfg, domain)

    monkeypatch.setattr(expfam, "weighted_kde", kde)
    before = threading.active_count()
    with pytest.raises(ValueError) as info:
        train_family(_samples(), DOMAIN, 3)
    assert info.value is early
    assert threading.active_count() == before


def test_an_interrupt_on_the_caller_stops_the_counter_and_joins(monkeypatch):
    _workers(monkeypatch, 3)
    caller = threading.get_ident()
    interrupted = threading.Event()
    lock = threading.Lock()
    smoothed = []
    before = threading.active_count()

    def kde(sample, cfg, domain):
        if threading.get_ident() == caller:
            interrupted.set()
            raise KeyboardInterrupt
        # each thread holds its sample until the caller is interrupted
        interrupted.wait(timeout=30)
        with lock:
            smoothed.append(sample.id)
        return real_kde(sample, cfg, domain)

    monkeypatch.setattr(expfam, "weighted_kde", kde)
    with pytest.raises(KeyboardInterrupt):
        train_family(_samples(50, size=5), DOMAIN, 3)
    assert threading.active_count() == before
    # the threads finish the samples they held, and take no more
    assert len(smoothed) <= 2


def test_many_workers_take_each_index_exactly_once(monkeypatch):
    # more workers than cores, a short switch interval and a trivial smooth,
    # so the workers meet at the counter: a lost update there would smooth
    # some sample twice
    _workers(monkeypatch, 8)
    lock = threading.Lock()
    items = list(range(20000))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            taken = []

            def smooth(x):
                with lock:
                    taken.append(x)
                return -x

            assert expfam._smooth_all(smooth, items) == tuple(-x for x in items)
            assert sorted(taken) == items
    finally:
        sys.setswitchinterval(interval)
