"""The solver's two failure exits that no fit reaches on ordinary data: the
iteration cap and a line search that rejects every step length.  Each fails
only its own row; a row that starts at its solution converges with no
iteration and keeps the bits of its solve alone, and so does a row whose
last step under the cap converges."""

import numpy as np
import pytest

from repden import expfam
from repden.expfam import newton_minimize, suffstat_average

K = 3


@pytest.fixture(scope="module")
def problems(trained_model):
    """Two targets, the first one's solve alone, and start points: the first
    row at its own solution, the second at zero."""
    rng = np.random.default_rng(17)
    targets = np.array([suffstat_average(trained_model, rng.normal(0.0, 1.0, n).clip(-2.5, 2.5),
                                         K) for n in (20, 35)])
    alone = newton_minimize(trained_model, K, targets[0])
    assert alone.errors == (None,)
    start = np.vstack([alone.theta[0], np.zeros(K)])
    return targets, alone, start


def _solve_with(model, problems, monkeypatch, name, value):
    targets, alone, start = problems
    monkeypatch.setattr(expfam, name, value)
    rec = newton_minimize(model, K, targets, theta0=start)
    assert rec.errors[0] is None and rec.iterations[0] == 0 and rec.halvings[0] == 0
    for field in ("theta", "b", "xi", "grad_norm"):
        assert getattr(rec, field)[0].tobytes() == getattr(alone, field)[0].tobytes()
    assert np.all(np.isnan(rec.theta[1])) and np.isnan(rec.b[1]) and np.all(np.isnan(rec.xi[1]))
    return rec


def test_iteration_cap_fails_only_the_unconverged_row(trained_model, problems, monkeypatch):
    rec = _solve_with(trained_model, problems, monkeypatch, "NEWTON_MAX_ITER", 1)
    assert isinstance(rec.errors[1], expfam.NewtonDivergenceError)
    assert str(rec.errors[1]).startswith("no convergence after 1 iterations")
    assert rec.iterations[1] == 1


def test_stalled_line_search_fails_only_its_row(trained_model, problems, monkeypatch):
    # no step length passes an Armijo test this strict, so the search halves
    # from t = 1 until t <= 1e-14: 47 rejected lengths
    rec = _solve_with(trained_model, problems, monkeypatch, "ARMIJO_C", 1e300)
    assert isinstance(rec.errors[1], expfam.NewtonDivergenceError)
    assert str(rec.errors[1]).startswith("line search stalled")
    assert rec.iterations[1] == 1 and rec.halvings[1] == 47


def test_iteration_cap_tests_the_last_step(trained_model, monkeypatch):
    rng = np.random.default_rng(3)
    targets = np.array([suffstat_average(trained_model, rng.normal(0.0, 1.0, n).clip(-2.5, 2.5),
                                         K) for n in (5, 10, 20, 40, 80, 160)])
    free = newton_minimize(trained_model, K, targets)
    assert free.errors == (None,) * len(targets)
    steps = free.iterations.tolist()
    # a row that converges on its n-th step and one that needs step n + 1
    a = next(i for i, n in enumerate(steps) if n + 1 in steps)
    b = steps.index(steps[a] + 1)
    monkeypatch.setattr(expfam, "NEWTON_MAX_ITER", steps[a])
    rec = newton_minimize(trained_model, K, targets[[a, b]])
    assert rec.errors[0] is None
    for field in ("theta", "b", "xi", "grad_norm", "iterations", "halvings"):
        assert getattr(rec, field)[0].tobytes() == getattr(free, field)[a].tobytes()
    assert isinstance(rec.errors[1], expfam.NewtonDivergenceError)
    assert str(rec.errors[1]).startswith(f"no convergence after {steps[a]} iterations")
    assert rec.iterations[1] == steps[a]
