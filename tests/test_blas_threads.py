"""The CLI starts numpy's OpenBLAS on one thread, so training repeats bit for bit."""

import json
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

# Prints the environment's OpenBLAS thread setting and the count that numpy's
# bundled OpenBLAS runs with (None when that symbol is not there, e.g. MKL).
PROBE = """
import ctypes, os
try:
    from numpy._core import _multiarray_umath as m
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as m
get = getattr(ctypes.CDLL(m.__file__), "scipy_openblas_get_num_threads64_", None)
if get:
    get.argtypes, get.restype = [], ctypes.c_int
print(os.environ["OPENBLAS_NUM_THREADS"], get() if get else None)
"""


def _python(blas_threads: str, *args: str) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          check=True, timeout=300)
    return proc.stdout


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _probe(blas_threads: str, first_import: str) -> tuple[str, int | None]:
    setting, count = _python(blas_threads, "-c", first_import + PROBE).split()
    return setting, (None if count == "None" else int(count))


def test_train_and_simulate_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # without the one-thread start, fpca's threaded eigh changes the model's
    # last digits; on one CPU OpenBLAS runs one thread either way
    spec = default_spec("trunc_normal", seed=14, n_train=60, train_size=200, n_test=1)
    train, _ = generate(spec, n_grid=128)
    train_csv = tmp_path / "train.csv"
    write_samples_csv(train_csv, train)

    models, outputs = [], []
    for threads in ("1", "2"):
        model = tmp_path / f"model{threads}.json"
        _python(threads, "-m", "repden.cli", "train", str(train_csv), "--out", str(model),
                "--domain=-3,3", "--k-max", "8")
        models.append(TIMESTAMP.sub(b'"timestamp": ""', model.read_bytes()))
        out = tmp_path / f"simulate{threads}"
        _python(threads, "-m", "repden.cli", "simulate", "--scenario", "trunc_normal",
                "--reps", "2", "--k-max", "4", "--n-test", "50", "--out", str(out))
        outputs.append(_files(out))
    assert json.loads(models[0])["provenance"]["n"] == 60
    assert models[0] == models[1]
    assert len(outputs[0]) == 2 + 2 * 3  # mkl_per_rep, mkl_summary, and three files per rep
    assert outputs[0] == outputs[1]


def test_repden_imported_first_starts_openblas_on_one_thread():
    setting, count = _probe("2", "import repden")
    assert setting == "1"
    assert count in (None, 1)


def test_numpy_imported_first_keeps_its_own_thread_count():
    plain = _probe("2", "import numpy")
    assert _probe("2", "import numpy, repden") == plain
    assert plain[0] == "2"
    if plain[1] is None:
        pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
    # OpenBLAS caps the count at the CPUs the process may run on
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert plain[1] == min(2, cpus)
