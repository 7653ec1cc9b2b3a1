"""Scenario sizes that no replication can fit are rejected before any work."""

import pytest

from repden import simulate
from repden.simgen import default_spec


@pytest.fixture
def no_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("replication started work on an unusable size")

    monkeypatch.setattr(simulate, "generate", fail)
    monkeypatch.setattr(simulate, "train_family", fail)


@pytest.mark.parametrize("field,size", [
    ("train_size", 1),
    ("train_size", (1, 30)),
    ("test_size", 1),
    ("test_size", (1, 20)),
])
def test_size_below_two_raises_before_training(no_work, field, size):
    spec = default_spec("trunc_normal", 0, **{field: size})
    with pytest.raises(ValueError, match=field):
        simulate.run_scenario(spec, reps=1, k_max=3)


def test_test_size_one_allowed_without_kde_baseline():
    spec = default_spec("trunc_normal", 0, n_train=6, train_size=40, n_test=3, test_size=1)
    (out,) = simulate.run_scenario(spec, reps=1, k_max=2, n_grid=128,
                                   methods=("map",), kde_baseline=False)
    assert set(out.mkl) == {"map"}
    assert out.selected_k["map"] and all(k >= 1 for k in out.selected_k["map"])
