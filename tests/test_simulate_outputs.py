"""Bytes that `simulate` writes: independent of --threads, grid column exact."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repden.simgen import scenario_domain

SRC = str(Path(__file__).resolve().parents[1] / "src")
SMALL = ["--seed", "11", "--n-train", "12", "--train-size", "60", "--n-test", "8",
         "--test-size", "5:30", "--k-max", "3", "--grid", "64"]


def _simulate(out, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("REPDEN_THREADS", None)
    proc = subprocess.run([sys.executable, "-m", "repden.cli", "simulate", *SMALL, *extra,
                           "--out", str(out)], capture_output=True, text=True, env=env,
                          check=True, timeout=300)
    assert json.loads(proc.stdout)["out"] == str(out)
    return proc.stdout.replace(json.dumps(str(out)), '"OUT"')


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_simulate_outputs_do_not_depend_on_threads(tmp_path):
    stdout, files = [], []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        stdout.append(_simulate(out, "--scenario", "trunc_normal", "--reps", "3",
                                "--threads", threads))
        files.append(_files(out))
    assert stdout[0] == stdout[1]
    assert len(files[0]) == 2 + 3 * 3  # mkl_per_rep, mkl_summary, and three files per rep
    assert files[0] == files[1]


@pytest.mark.parametrize("scenario", ["trunc_normal", "bimodal"])
def test_truths_grid_column_is_the_repr_of_the_scenario_grid(tmp_path, scenario):
    _simulate(tmp_path, "--scenario", scenario, "--reps", "1", "--threads", "1")
    want = [repr(float(t)) for t in scenario_domain(scenario, 64).grid]
    with open(tmp_path / "reps" / "rep_0000" / "truths.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["subpop_id", "t", "density"]
    groups: dict[str, list[str]] = {}
    for sid, t, _ in rows[1:]:
        groups.setdefault(sid, []).append(t)
    assert len(groups) == 8
    for ts in groups.values():
        assert ts == want
