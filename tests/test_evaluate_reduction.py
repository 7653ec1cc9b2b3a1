"""`evaluate` reduces each sample once for all family methods.

The whole-sample fits and the leave-one-out refits of every family method
share one reduction each, so a method's rows do not depend on which other
methods run beside it.
"""

import csv
import json

import numpy as np
import pytest

from repden import estimators, expfam
from repden.cli import main
from repden.modelio import write_samples_csv
from repden.presmooth import SubpopSample
from repden.simgen import default_spec, generate

METHODS = ("mle", "map", "blup", "kde")
SIZES = (6, 9, 12, 15)


@pytest.fixture(scope="module")
def linear(tmp_path_factory):
    root = tmp_path_factory.mktemp("reduce_linear")
    spec = default_spec("trunc_normal", seed=8, n_train=10, train_size=80, n_test=1)
    train, _ = generate(spec, n_grid=128)
    write_samples_csv(root / "train.csv", train)
    model = root / "model.json"
    assert main(["train", str(root / "train.csv"), "--out", str(model),
                 "--domain=-3,3", "--grid", "128", "--k-max", "3"]) == 0
    rng = np.random.default_rng(12)
    write_samples_csv(root / "new.csv", [
        SubpopSample(f"g{n}", rng.normal(0.0, 0.8, size=n).clip(-2.5, 2.5)) for n in SIZES])
    return model, root / "new.csv"


@pytest.fixture(scope="module")
def log_scale(tmp_path_factory):
    root = tmp_path_factory.mktemp("reduce_log")
    rng = np.random.default_rng(13)
    train = [SubpopSample(f"s{i}", np.exp(rng.normal(2.9 + 0.1 * (i % 3), 0.3, size=60)))
             for i in range(10)]
    write_samples_csv(root / "train.csv", train)
    model = root / "model.json"
    assert main(["train", str(root / "train.csv"), "--out", str(model), "--log-scale",
                 "--grid", "128", "--k-max", "3"]) == 0
    write_samples_csv(root / "new.csv", [
        SubpopSample(f"g{n}", np.exp(rng.normal(3.0, 0.3, size=n))) for n in SIZES])
    return model, root / "new.csv"


def _evaluate(model, new, out, methods, *flags):
    assert main(["evaluate", str(model), str(new), "--out", str(out), "--loo",
                 "--return-levels", "5,10", "--methods", methods, *flags]) == 0


@pytest.mark.parametrize("scale", ["linear", "log_scale"])
def test_two_reduction_passes_per_sample(request, monkeypatch, tmp_path, capsys, scale):
    # one pass for the whole-sample fits and one for the leave-one-out
    # subsets, whatever the number of family methods
    model, new = request.getfixturevalue(scale)
    passes = []
    values = expfam.suffstat_values

    def spy(model, obs, k):
        passes.append(np.size(obs))
        return values(model, obs, k)

    monkeypatch.setattr(expfam, "suffstat_values", spy)
    monkeypatch.setattr(estimators, "suffstat_values", spy)
    _evaluate(model, new, tmp_path / "ev", ",".join(METHODS))
    capsys.readouterr()
    assert sorted(passes) == sorted(2 * SIZES)


def _rows_by_method(path, method_column):
    rows = {}
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    for line in lines[1:]:
        (fields,) = csv.reader([line])
        rows.setdefault(fields[method_column], []).append(line)
    return rows


@pytest.mark.parametrize("k", ["aic", "2"])
@pytest.mark.parametrize("scale", ["linear", "log_scale"])
def test_method_rows_do_not_depend_on_the_other_methods(request, tmp_path, capsys, scale, k):
    model, new = request.getfixturevalue(scale)
    _evaluate(model, new, tmp_path / "all", ",".join(METHODS), "--k", k)
    together = json.loads(capsys.readouterr().out)
    loo_all = _rows_by_method(tmp_path / "all" / "loo_per_sample.csv", 3)
    levels_all = _rows_by_method(tmp_path / "all" / "return_levels.csv", 1)
    for method in METHODS:
        out = tmp_path / method
        _evaluate(model, new, out, method, "--k", k)
        alone = json.loads(capsys.readouterr().out)
        assert _rows_by_method(out / "loo_per_sample.csv", 3) == {method: loo_all[method]}
        assert (_rows_by_method(out / "return_levels.csv", 1)
                == ({method: levels_all[method]} if method != "kde" else {}))
        assert alone["strata"] == [
            {"stratum": b["stratum"], "methods": {method: b["methods"][method]}}
            for b in together["strata"]]
        assert alone["errors"] == [e for e in together["errors"] if e["method"] == method]
