"""No command loads ``concurrent.futures`` or ``logging``.

Training pre-smooths on plain threads; an executor would load
``concurrent.futures`` and, through it, ``logging``, ``traceback`` and
``queue``.  Only modules that a bare ``import numpy`` did not load count.
"""

import os
import subprocess
import sys
from pathlib import Path

CODE = r"""
import sys
import numpy as np

WATCHED = ("concurrent.futures", "logging")
before = {m for m in WATCHED if m in sys.modules}
from repden.cli import main

tmp = sys.argv[1]
rng = np.random.default_rng(4)
with open(f"{tmp}/train.csv", "w") as f:
    f.write("subpop_id,value\n")
    for g in range(6):
        for v in rng.normal(rng.uniform(-1, 1), 0.6, 30).clip(-2.9, 2.9):
            f.write(f"g{g},{float(v)!r}\n")
commands = [
    ["train", f"{tmp}/train.csv", "--out", f"{tmp}/model.json", "--domain=-3,3", "--k-max", "2",
     "--grid", "64"],
    ["simulate", "--scenario", "trunc_normal", "--seed", "3", "--reps", "1", "--n-train", "6",
     "--train-size", "20", "--n-test", "4", "--test-size", "10", "--k-max", "2", "--grid", "64",
     "--out", f"{tmp}/sim"],
]
for argv in commands:
    assert main(argv) == 0, argv
print(sorted(m for m in WATCHED if m in sys.modules and m not in before), file=sys.stderr)
"""


def test_train_and_simulate_load_no_executor(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", CODE, str(tmp_path)], capture_output=True,
                         text=True, env=env, check=True, timeout=300)
    assert out.stderr.strip().splitlines()[-1] == "[]"
