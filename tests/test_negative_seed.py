"""A negative ``--seed`` is a usage error, caught before any work is done."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repden.simgen import ScenarioSpec, default_spec

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_negative_seed_exits_1_and_writes_nothing(tmp_path):
    out = tmp_path / "sim"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "repden.cli", "simulate", "--scenario", "trunc_normal",
         "--seed", "-1", "--reps", "1", "--n-test", "5", "--k-max", "2", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("usage error") and "Traceback" not in proc.stderr
    assert "-1" in proc.stderr
    assert not out.exists()


def test_scenario_spec_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        ScenarioSpec("bimodal", 2, 10, 2, 10, -1)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        default_spec("trunc_normal", -5)
    assert default_spec("trunc_normal", 0).seed == 0
