"""A fit depends only on its own sample: not on the rest of its batch, the
batch order, or the number of BLAS threads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repden.estimators import FitResult, fit
from repden.expfam import train_family
from repden.grid import Domain
from repden.modelio import save_model, write_samples_csv
from repden.presmooth import SubpopSample

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _truncated_normals(rng, sizes):
    """Normals of random location and scale, kept on [-3, 3] by rejection."""
    groups = []
    for n in sizes:
        mean, sd = rng.uniform(-1.0, 1.0), rng.uniform(0.6, 1.4)
        kept = np.empty(0)
        while kept.size < n:
            draw = rng.normal(mean, sd, size=2 * n)
            kept = np.concatenate([kept, draw[np.abs(draw) < 3.0]])
        groups.append(kept[:n])
    return groups


@pytest.fixture(scope="module")
def sparse_fit():
    """A family trained on 60 groups of 200 values, and 150 new groups of 5-59.

    The draw is the fit_sparse benchmark's first input set, on which a batch
    solved with batched (gemm) products gave different ``fits.json`` bytes
    for one and two BLAS threads.
    """
    rng = np.random.default_rng([101, *b"fit_sparse/0"])
    train = [SubpopSample(f"t{i}", x)
             for i, x in enumerate(_truncated_normals(rng, [200] * 60))]
    model = train_family(train, Domain(-3.0, 3.0, 512), 8)
    groups = _truncated_normals(rng, rng.permutation(np.round(np.linspace(5, 59, 150)).astype(int)))
    return model, groups


def _bits(r):
    if not isinstance(r, FitResult):
        return type(r), str(r)
    return (r.k, r.theta.tobytes(), r.xi.tobytes(), r.loglik, r.log_normalizer, r.aic_trace)


@pytest.mark.parametrize("k", [3, None])
@pytest.mark.parametrize("method", ["mle", "map", "blup"])
def test_batch_equals_each_sample_alone_and_reversed(sparse_fit, method, k):
    model, groups = sparse_fit
    groups = groups[:60]
    batch = [_bits(r) for r in fit(model, groups, method, k=k, k_max=8)]
    alone = [_bits(fit(model, [g], method, k=k, k_max=8)[0]) for g in groups]
    reversed_batch = [_bits(r) for r in fit(model, groups[::-1], method, k=k, k_max=8)][::-1]
    assert sum(isinstance(b[0], int) for b in batch) >= 55
    assert sum(a == b for a, b in zip(batch, alone)) == len(groups)
    assert sum(a == b for a, b in zip(batch, reversed_batch)) == len(groups)


@pytest.mark.parametrize("method", ["mle", "blup"])
def test_fits_json_does_not_depend_on_blas_threads(sparse_fit, tmp_path, method):
    model, groups = sparse_fit
    save_model(model, tmp_path / "model.json")
    write_samples_csv(tmp_path / "new.csv",
                      [SubpopSample(f"g{i:03d}", g) for i, g in enumerate(groups)])
    written = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        out = tmp_path / f"threads{threads}"
        subprocess.run(
            [sys.executable, "-m", "repden.cli", "fit", str(tmp_path / "model.json"),
             str(tmp_path / "new.csv"), "--out", str(out), "--method", method, "--k", "aic"],
            capture_output=True, text=True, env=env, check=True, timeout=300,
        )
        written.append((out / "fits.json").read_bytes())
    assert json.loads(written[0])["n_fitted"] >= 140
    assert written[0] == written[1]
