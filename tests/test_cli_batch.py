"""Batched fits behind the command line: leave-one-out refits, errors, flags."""

import csv

import numpy as np
import pytest

from repden import estimators
from repden.cli import main
from repden.estimators import fit
from repden.expfam import density
from repden.metrics import LooRefitError, loo_cross_entropy
from repden.modelio import load_model, write_samples_csv
from repden.presmooth import SubpopSample
from repden.simgen import default_spec, generate


@pytest.fixture(scope="module")
def model_and_csv(tmp_path_factory):
    """A small trained model, its training CSV, and a CSV of groups sized 4, 9 and 15."""
    root = tmp_path_factory.mktemp("cli_batch")
    spec = default_spec("trunc_normal", seed=7, n_train=8, train_size=60, n_test=1)
    train, _ = generate(spec, n_grid=128)
    write_samples_csv(root / "train.csv", train)
    model = root / "model.json"
    assert main(["train", str(root / "train.csv"), "--out", str(model),
                 "--domain=-3,3", "--grid", "128", "--k-max", "3"]) == 0
    rng = np.random.default_rng(12)
    groups = [SubpopSample(f"n{n}", rng.normal(0.2, 0.9, size=n).clip(-2.9, 2.9))
              for n in (4, 9, 15)]
    write_samples_csv(root / "new.csv", groups)
    return model, root / "new.csv", root / "train.csv", groups


def test_batched_loo_matches_refit_loop(model_and_csv, tmp_path, capsys):
    model_path, new, _, groups = model_and_csv
    out = tmp_path / "eval"
    assert main(["evaluate", str(model_path), str(new), "--out", str(out), "--loo",
                 "--methods", "mle,map,blup", "--k", "aic", "--k-max", "2"]) == 0
    capsys.readouterr()
    with open(out / "loo_per_sample.csv", newline="") as fh:
        got = {(r["subpop_id"], r["method"]): r for r in csv.DictReader(fh)}
    model = load_model(model_path)
    for g in groups:
        for method in ("mle", "map", "blup"):
            row = got[g.id, method]
            try:
                want = loo_cross_entropy(
                    lambda s: density(model, fit(model, s, method, k_max=2).theta), g.obs)
            except Exception:
                assert row["finite"] == "0"
                continue
            assert row["finite"] == "1"
            assert float(row["loo_ce"]) == pytest.approx(want, rel=1e-10, abs=1e-12)


def _boom(*args, **kwargs):
    raise TypeError("a programming error, not a fit failure")


def test_programming_error_in_loo_refit_propagates(model_and_csv, tmp_path, monkeypatch):
    model, new, _, _ = model_and_csv
    monkeypatch.setitem(estimators._FITTERS, "mle", _boom)
    with pytest.raises(TypeError, match="programming error"):
        main(["evaluate", str(model), str(new), "--out", str(tmp_path / "o"), "--loo",
              "--methods", "mle", "--k", "1"])


def test_programming_error_in_kde_refit_propagates(model_and_csv, tmp_path, monkeypatch):
    from repden import cli

    model, new, _, _ = model_and_csv
    monkeypatch.setattr(cli, "weighted_kde", _boom)
    with pytest.raises(LooRefitError) as info:
        main(["evaluate", str(model), str(new), "--out", str(tmp_path / "o"), "--loo",
              "--methods", "kde"])
    assert isinstance(info.value.__cause__, TypeError)


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "{train}", "--out", "{out}/m.json", "--log-scale", "--delta", "-1"],
        ["train", "{train}", "--out", "{out}/m.json", "--domain=-3,3", "--grid", "1"],
        ["simulate", "--scenario", "trunc_normal", "--out", "{out}", "--reps", "0"],
        ["simulate", "--scenario", "trunc_normal", "--out", "{out}", "--grid", "8"],
    ],
)
def test_out_of_range_flag_values_exit_1(model_and_csv, tmp_path, capsys, argv):
    _, _, train, _ = model_and_csv
    argv = [a.format(train=train, out=tmp_path) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error") and "Traceback" not in err
