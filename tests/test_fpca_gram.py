"""fit_fpca against the grid-covariance formula it replaces for n < G.

With fewer trajectories than grid points, ``fit_fpca`` decomposes the n x n
Gram matrix; the reference below is the G x G weighted covariance and its
``eigh``, which ``fit_fpca`` still takes for n >= G and for a training set
without variation.
"""

import json
import warnings

import numpy as np
import pytest

from repden.cli import main
from repden.fpca import NULL_EIGVAL_REL, EigenSystem, fit_fpca
from repden.grid import Domain, GridFn
from repden.logmap import LogDensityFn
from repden.modelio import load_model

from conftest import centered

RTOL = 1e-10


def _grid_covariance_fpca(trajs, k_max):
    """The eigensystem from the G x G matrix W^{1/2} G W^{1/2}."""
    n = len(trajs)
    dom = trajs[0].domain
    F = np.stack([f.values for f in trajs])
    mu_vals = F.mean(axis=0)
    C = F - mu_vals
    w = dom.trap_weights
    sw = np.sqrt(w)
    A = (sw[:, None] * (C.T @ C) * sw[None, :]) / n
    evals, evecs = np.linalg.eigh(A)
    order = np.argsort(evals)[::-1][:k_max]
    evals = np.clip(evals[order], 0.0, None)
    evecs = evecs[:, order]
    keep = evals >= NULL_EIGVAL_REL * evals[0]
    evals = evals[keep]
    evecs = evecs[:, keep]
    eigfns = []
    for j in range(evals.size):
        phi = evecs[:, j] / sw
        phi = phi / np.sqrt(w @ (phi * phi))
        idx = int(np.argmax(np.abs(phi)))
        eigfns.append(GridFn(dom, -phi if phi[idx] < 0 else phi))
    phi_mat = np.column_stack([f.values for f in eigfns])
    scores = C @ (w[:, None] * phi_mat)
    mu = LogDensityFn(GridFn(dom, mu_vals))
    return EigenSystem(mu=mu, eigvals=evals, eigfns=tuple(eigfns), scores=scores)


def _trajs(n_grid, n, rank=None, seed=0):
    """n log-densities whose variation spans ``rank`` smooth modes (all of
    them when None) with geometrically decaying variances."""
    dom = Domain(-3.0, 3.0, n_grid)
    rng = np.random.default_rng(seed)
    modes = rank if rank is not None else min(n, n_grid // 2)
    t = (dom.grid - dom.lo) / (dom.hi - dom.lo)
    basis = np.stack([np.cos(np.pi * (j + 1) * t) for j in range(modes)])
    coef = rng.normal(size=(n, modes)) * 0.7 ** (np.arange(modes) / 2)
    base = -0.5 * dom.grid**2
    return [LogDensityFn(GridFn(dom, centered(dom, base + c @ basis))) for c in coef]


def _relative(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("n_grid", [64, 512])
@pytest.mark.parametrize("n, rank", [(3, None), (20, None), (60, None), (20, 4)])
def test_gram_matrix_matches_grid_covariance(n_grid, n, rank):
    trajs = _trajs(n_grid, n, rank, seed=n + n_grid)
    assert n < n_grid
    k_max = min(8, n - 1)
    got, ref = fit_fpca(trajs, k_max), _grid_covariance_fpca(trajs, k_max)
    assert got.n_components == ref.n_components == min(k_max, rank or k_max)
    assert got.mu.values.tobytes() == ref.mu.values.tobytes()
    np.testing.assert_allclose(got.eigvals, ref.eigvals, rtol=RTOL, atol=0)
    for g, r in zip(got.eigfns, ref.eigfns):
        assert _relative(g.values, r.values) <= RTOL
    assert _relative(got.scores, ref.scores) <= RTOL


@pytest.mark.parametrize("n", [64, 100])
def test_grid_covariance_is_kept_bit_for_bit_when_n_reaches_the_grid(n):
    trajs = _trajs(64, n, seed=n)
    got, ref = fit_fpca(trajs, 8), _grid_covariance_fpca(trajs, 8)
    assert got.eigvals.tobytes() == ref.eigvals.tobytes()
    assert [f.values.tobytes() for f in got.eigfns] == [f.values.tobytes() for f in ref.eigfns]
    assert got.scores.tobytes() == ref.scores.tobytes()
    assert got.mu.values.tobytes() == ref.mu.values.tobytes()


def test_training_without_variation_keeps_eigenvalue_zero(tmp_path, capsys):
    # two groups with the same values pre-smooth to the same density, so
    # the centered log-densities are exactly 0
    values = np.linspace(-1.0, 1.0, 30)
    lines = ["subpop_id,value"] + [f"{g},{v!r}" for g in ("a", "b") for v in values.tolist()]
    train_csv = tmp_path / "train.csv"
    train_csv.write_text("\n".join(lines) + "\n")
    model_path = tmp_path / "model.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", str(train_csv), "--out", str(model_path), "--domain=-3,3"])
    out = capsys.readouterr()
    assert code == 0, out.err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert json.loads(out.out)["n_used"] == 2
    model = load_model(model_path)
    assert model.sys.eigvals.tolist() == [0.0]
    assert not model.sys.scores.any()
