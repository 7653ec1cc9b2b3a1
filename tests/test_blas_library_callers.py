"""Training with fewer groups than grid points repeats bit for bit under any
BLAS thread count, also in a program that loaded numpy before repden.

Such a program keeps its own OpenBLAS thread count.  With n < G groups the
FPCA decomposes the n x n Gram matrix, whose products and ``eigh`` give the
same bits on one thread and on two; the G x G grid covariance, taken at
n >= G, did not.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repden.modelio import write_samples_csv
from repden.simgen import default_spec, generate

SRC = str(Path(__file__).resolve().parents[1] / "src")
TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')

# numpy first, so repden leaves OPENBLAS_NUM_THREADS as the caller set it
TRAIN = "import numpy, sys; from repden.cli import main; sys.exit(main(sys.argv[1:]))"


def _train(blas_threads: str, train_csv: Path, model: Path) -> bytes:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", TRAIN, "train", str(train_csv), "--out", str(model),
                    "--domain=-3,3", "--k-max", "8"],
                   capture_output=True, env=env, check=True, timeout=300)
    return TIMESTAMP.sub(b'"timestamp": ""', model.read_bytes())


@pytest.mark.parametrize("n_train", [60, 200])
def test_training_under_numpy_imported_first_does_not_depend_on_blas_threads(tmp_path, n_train):
    spec = default_spec("trunc_normal", seed=5, n_train=n_train, train_size=100, n_test=1)
    train, _ = generate(spec)
    train_csv = tmp_path / "train.csv"
    write_samples_csv(train_csv, train)
    one, two = (_train(t, train_csv, tmp_path / f"model{t}.json") for t in ("1", "2"))
    assert b'"n": %d' % n_train in one
    assert one == two
