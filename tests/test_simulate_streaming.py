"""``simulate`` writes each replication's files as soon as it is scored."""

import os
import subprocess
import sys
from pathlib import Path

from repden import simulate
from repden.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")
REP_FILES = ("train.csv", "test.csv", "truths.csv")


def test_each_replication_is_written_before_the_next_starts(tmp_path, monkeypatch):
    out = tmp_path / "sim"
    started = []
    generate = simulate.generate

    def checked_generate(spec, **kwargs):
        rep = len(started)
        if rep:
            assert (out / "reps" / f"rep_{rep - 1:04d}" / "truths.csv").is_file()
        started.append(rep)
        return generate(spec, **kwargs)

    monkeypatch.setattr(simulate, "generate", checked_generate)
    argv = ["simulate", "--scenario", "trunc_normal", "--seed", "3", "--reps", "3",
            "--n-train", "12", "--train-size", "30", "--n-test", "4", "--test-size", "10",
            "--k-max", "2", "--grid", "64", "--out", str(out)]
    assert main(argv) == 0
    assert started == [0, 1, 2]
    assert (out / "mkl_summary.csv").is_file()


def test_a_replication_whose_fit_fails_exits_3_and_keeps_earlier_files(tmp_path):
    out = tmp_path / "sim"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "repden.cli", "simulate", "--scenario", "trunc_normal",
         "--seed", "5", "--reps", "6", "--k-max", "6", "--n-train", "3", "--train-size", "2",
         "--test-size", "2", "--n-test", "100", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == ("numerical failure: replication 1: all truncations 1..2 failed "
                           "for method 'mle'\n")
    assert all((out / "reps" / "rep_0000" / name).is_file() for name in REP_FILES)
    assert not (out / "reps" / "rep_0001").exists()
    assert not list(out.glob("mkl_*.csv"))
