"""The solver record holds, for every converged row, the exact ``B`` and
moments at its solution, the same bits whatever shares its batch; a failed
row has none and keeps its error."""

import numpy as np
import pytest

from repden.estimators import _pull_into_range, blup_moment, shrinkage_stats
from repden.expfam import (
    NEWTON_GRAD_TOL,
    NewtonDivergenceError,
    NewtonRecord,
    _moments,
    log_normalizer,
    natural_from_moment,
    newton_minimize,
    suffstat_average,
)
from repden.simgen import default_spec, generate

KINDS = ("mle", "map", "blup")


@pytest.fixture(scope="module")
def samples():
    """Twenty groups of 5-59 values from the trained model's scenario."""
    spec = default_spec("trunc_normal", seed=47, n_train=1, n_test=20, test_size=(5, 59))
    return [s.obs for s, _ in generate(spec, n_grid=256)[1]]


def _problems(model, samples, k, kind):
    """Targets and diagonal penalties of an MLE, a MAP or a BLUP solve."""
    phibar = np.array([suffstat_average(model, x, k) for x in samples])
    n = np.array([x.size for x in samples])
    if kind == "map":
        return phibar, 1.0 / (n[:, None] * model.summary(k).score_vars)
    if kind == "blup":
        stats = shrinkage_stats(model, k, n)
        return _pull_into_range(model, blup_moment(stats, phibar), stats.tau_bar), None
    return phibar, None


def _solve(model, k, kind, target, penalty):
    if kind == "blup":
        return natural_from_moment(model, target)
    return newton_minimize(model, k, target, diag_penalty=penalty)


def _row(rec, i):
    return (rec.theta[i].tobytes(), rec.b[i].tobytes(), rec.xi[i].tobytes(),
            int(rec.iterations[i]), int(rec.halvings[i]), rec.grad_norm[i].tobytes(),
            type(rec.errors[i]), str(rec.errors[i]))


@pytest.mark.parametrize("kind", KINDS)
def test_record_holds_b_and_moments_at_each_solution(trained_model, samples, kind):
    model = trained_model
    for k in range(1, model.n_components + 1):
        target, penalty = _problems(model, samples, k, kind)
        rec = _solve(model, k, kind, target, penalty)
        assert isinstance(rec, NewtonRecord)
        converged = [i for i, e in enumerate(rec.errors) if e is None]
        assert len(converged) >= 15
        for i in converged:
            _, b, xi = _moments(model, rec.theta[i][None])
            assert rec.b[i] == b[0] == log_normalizer(model, rec.theta[i])
            assert rec.xi[i].tobytes() == xi[0].tobytes()
            assert rec.grad_norm[i] < NEWTON_GRAD_TOL
        for counts in (rec.iterations, rec.halvings):
            assert np.issubdtype(counts.dtype, np.integer) and np.all(counts >= 0)
        assert np.all(rec.iterations[converged] >= 1)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [1, 3, 6])
def test_record_rows_do_not_depend_on_the_batch(trained_model, samples, kind, k):
    model = trained_model
    target, penalty = _problems(model, samples, k, kind)
    batch = _solve(model, k, kind, target, penalty)
    rev = _solve(model, k, kind, target[::-1], None if penalty is None else penalty[::-1])
    m = len(samples)
    for i in range(m):
        alone = _solve(model, k, kind, target[i:i + 1],
                       None if penalty is None else penalty[i:i + 1])
        assert _row(batch, i) == _row(alone, 0) == _row(rev, m - 1 - i)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_failed_row_has_no_b_or_moments_and_keeps_its_error(trained_model, samples, k):
    model = trained_model
    healthy, _ = _problems(model, samples[:4], k, "mle")
    boundary = suffstat_average(model, [2.9, 2.95], k)
    targets = np.array([*healthy[:2], boundary, *healthy[2:]])
    rec = newton_minimize(model, k, targets)
    assert "iterates diverging" in str(rec.errors[2])
    assert np.all(np.isnan(rec.theta[2])) and np.isnan(rec.b[2]) and np.all(np.isnan(rec.xi[2]))
    assert rec.iterations[2] >= 1 and rec.halvings[2] >= 0
    for i in (0, 1, 3, 4):
        assert rec.errors[i] is None and np.isfinite(rec.b[i]) and np.all(np.isfinite(rec.xi[i]))
        assert _row(rec, i) == _row(newton_minimize(model, k, targets[i]), 0)


def test_single_target_record_is_one_row_and_does_not_raise(trained_model):
    model = trained_model
    target = suffstat_average(model, [2.9, 2.95], 3)
    rec = newton_minimize(model, 3, target)
    assert rec.theta.shape == (1, 3) and rec.b.shape == (1,) and len(rec.errors) == 1
    assert rec.errors[0] is not None


def test_record_arrays_are_read_only(trained_model, samples):
    target, _ = _problems(trained_model, samples[:3], 2, "mle")
    rec = newton_minimize(trained_model, 2, target)
    for a in (rec.theta, rec.b, rec.xi, rec.iterations, rec.halvings, rec.grad_norm):
        with pytest.raises(ValueError):
            a[...] = 0


def test_single_target_inversion_is_row_0_of_the_batch_record(trained_model):
    model = trained_model
    rng = np.random.default_rng(11)
    obs = rng.normal(0.0, 1.0, 40).clip(-2.5, 2.5)
    for k in range(1, model.n_components + 1):
        target = suffstat_average(model, obs, k)
        rec = natural_from_moment(model, target[None])
        assert isinstance(rec, NewtonRecord) and rec.errors == (None,)
        assert natural_from_moment(model, target).tobytes() == rec.theta[0].tobytes()
    boundary = suffstat_average(model, [2.9, 2.95], 3)
    rec = natural_from_moment(model, boundary[None])
    assert isinstance(rec.errors[0], NewtonDivergenceError)
    with pytest.raises(NewtonDivergenceError) as raised:
        natural_from_moment(model, boundary)
    assert str(raised.value) == str(rec.errors[0])
