"""No command loads ``numpy.ma``.

numpy 2 imports its masked arrays on first use, and ``np.percentile``,
``np.median`` and ``np.unique`` use them; the import costs about 14 ms and
1.2 MB per command.  numpy 1.x loads ``numpy.ma`` with ``import numpy``, so
only modules that a bare ``import numpy`` did not load count.
"""

import os
import subprocess
import sys
from pathlib import Path

CODE = r"""
import sys
import numpy as np

def masked():
    return {m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")}

before = masked()
from repden.cli import main

tmp = sys.argv[1]
rng = np.random.default_rng(2)
with open(f"{tmp}/train.csv", "w") as f:
    f.write("subpop_id,value\n")
    for g in range(8):
        for v in rng.normal(rng.uniform(-1, 1), 0.6, 30).clip(-2.9, 2.9):
            f.write(f"g{g},{float(v)!r}\n")
commands = [
    ["train", f"{tmp}/train.csv", "--out", f"{tmp}/model.json", "--domain=-3,3", "--k-max", "2",
     "--grid", "64"],
    ["fit", f"{tmp}/model.json", f"{tmp}/train.csv", "--out", f"{tmp}/fit"],
    ["evaluate", f"{tmp}/model.json", f"{tmp}/train.csv", "--out", f"{tmp}/eval", "--loo",
     "--return-levels", "5,10", "--methods", "mle,blup,kde"],
    ["simulate", "--scenario", "trunc_normal", "--seed", "3", "--reps", "2", "--n-train", "8",
     "--train-size", "20", "--n-test", "4", "--test-size", "10", "--k-max", "2", "--grid", "64",
     "--out", f"{tmp}/sim"],
]
for argv in commands:
    assert main(argv) == 0, argv
print(sorted(masked() - before), file=sys.stderr)
"""


def test_no_command_loads_masked_arrays(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", CODE, str(tmp_path)], capture_output=True,
                         text=True, env=env, check=True, timeout=300)
    assert out.stderr.strip().splitlines()[-1] == "[]"
