"""Flag validation, size strata and error handling of the command line."""

import csv
import json
import warnings

import numpy as np
import pytest

from repden import estimators
from repden.cli import main
from repden.modelio import write_samples_csv
from repden.presmooth import SubpopSample
from repden.simgen import default_spec, generate


@pytest.fixture(scope="module")
def model_and_csv(tmp_path_factory):
    """A small trained model and a CSV of groups sized 3, 4, 8, 12 and 40."""
    root = tmp_path_factory.mktemp("cli_flags")
    spec = default_spec("trunc_normal", seed=5, n_train=8, train_size=60, n_test=1)
    train, _ = generate(spec, n_grid=128)
    write_samples_csv(root / "train.csv", train)
    model = root / "model.json"
    assert main(["train", str(root / "train.csv"), "--out", str(model),
                 "--domain=-3,3", "--grid", "128", "--k-max", "3"]) == 0
    rng = np.random.default_rng(11)
    groups = [SubpopSample(f"n{n}", rng.normal(0.0, 1.0, size=n).clip(-2.9, 2.9))
              for n in (3, 4, 8, 12, 40)]
    write_samples_csv(root / "new.csv", groups)
    return model, root / "new.csv"


def test_strata_label_small_groups_in_lowest_interval(model_and_csv, tmp_path, capsys):
    model, new = model_and_csv
    out = tmp_path / "eval"
    assert main(["evaluate", str(model), str(new), "--out", str(out), "--loo",
                 "--methods", "kde", "--strata", "5,10", "--threads", "1"]) == 0
    capsys.readouterr()
    with open(out / "loo_per_sample.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["subpop_id"]: r["stratum"] for r in rows} == {
        "n3": "(-inf,5]", "n4": "(-inf,5]", "n8": "(5,10]",
        "n12": "(10,inf]", "n40": "(10,inf]",
    }
    summary = json.loads((out / "loo_summary.json").read_text())
    counts = {b["stratum"]: b["methods"]["kde"]["n"] for b in summary["strata"]}
    assert counts == {"(-inf,5]": 2, "(5,10]": 1, "(10,inf]": 2}


@pytest.mark.parametrize("strata", ["10,5", "5,5", "5,nan", ","])
def test_strata_must_increase_strictly(model_and_csv, tmp_path, capsys, strata):
    model, new = model_and_csv
    assert main(["evaluate", str(model), str(new), "--out", str(tmp_path / "e"),
                 "--loo", "--methods", "kde", "--strata", strata]) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "{model}", "{new}", "--out", "{out}", "--k", "abc"],
        ["evaluate", "{model}", "{new}", "--out", "{out}", "--strata", "a"],
        ["evaluate", "{model}", "{new}", "--out", "{out}", "--return-levels", "x"],
        ["train", "{new}", "--out", "{out}/m.json", "--domain=-3,3", "--bandwidth", "foo"],
        ["simulate", "--scenario", "trunc_normal", "--out", "{out}", "--test-size", "x"],
        ["simulate", "--scenario", "trunc_normal", "--out", "{out}", "--bandwidth", "-1"],
        ["train", "{new}", "--out", "{out}/m.json", "--domain=3,-3"],
        ["simulate", "--scenario", "trunc_normal", "--out", "{out}", "--train-size", "5:3"],
    ],
)
def test_malformed_flag_values_exit_1(model_and_csv, tmp_path, capsys, argv):
    model, new = model_and_csv
    argv = [a.format(model=model, new=new, out=tmp_path) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "{model}", "{new}", "--out", "{out}", "--k-max", "-1"],
        ["fit", "{model}", "{new}", "--out", "{out}", "--k-max", "0"],
        ["evaluate", "{model}", "{new}", "--out", "{out}", "--loo", "--k", "99"],
        ["evaluate", "{model}", "{new}", "--out", "{out}", "--loo", "--k-max", "0"],
    ],
)
def test_truncation_flags_checked_once(model_and_csv, tmp_path, capsys, argv):
    model, new = model_and_csv
    argv = [a.format(model=model, new=new, out=tmp_path / "o") for a in argv]
    assert main(argv) == 1
    assert "usage error" in capsys.readouterr().err


def _boom(*args, **kwargs):
    raise TypeError("a programming error, not a fit failure")


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "{model}", "{new}", "--out", "{out}", "--method", "mle", "--k", "1",
         "--threads", "1"],
        ["evaluate", "{model}", "{new}", "--out", "{out}", "--methods", "mle",
         "--k", "1", "--return-levels", "5", "--threads", "1"],
    ],
)
def test_programming_errors_propagate(model_and_csv, tmp_path, monkeypatch, argv):
    model, new = model_and_csv
    monkeypatch.setitem(estimators._FITTERS, "mle", _boom)
    argv = [a.format(model=model, new=new, out=tmp_path / "o") for a in argv]
    with pytest.raises(TypeError, match="programming error"):
        main(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "{train}", "--out", "{out}/m.json", "--domain=-3,3", "--k-max", "0"],
        ["simulate", "--scenario", "trunc_normal", "--out", "{out}", "--reps", "1",
         "--k-max", "0"],
        ["simulate", "--scenario", "trunc_normal", "--out", "{out}", "--reps", "1",
         "--n-test", "0"],
        ["simulate", "--scenario", "trunc_normal", "--out", "{out}", "--reps", "1",
         "--n-train", "1"],
        ["simulate", "--scenario", "trunc_normal", "--out", "{out}", "--reps", "1",
         "--train-size", "1"],
        ["simulate", "--scenario", "trunc_normal", "--out", "{out}", "--reps", "1",
         "--n-train", "10", "--n-test", "3", "--test-size", "1"],
        ["evaluate", "{model}", "{new}", "--out", "{out}", "--methods", "mle", "--k", "1",
         "--return-levels", "5,1"],
        ["evaluate", "{model}", "{new}", "--out", "{out}", "--methods", "mle", "--k", "1",
         "--return-levels", "0.5"],
        ["train", "{train}", "--out", "{out}/m.json", "--domain=-3,3", "--min-train-size", "1000"],
    ],
)
def test_out_of_range_values_rejected_before_work(model_and_csv, tmp_path, capsys, argv):
    model, new = model_and_csv
    train = model.parent / "train.csv"
    argv = [a.format(model=model, new=new, train=train, out=tmp_path) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error") and "Traceback" not in err


def test_simulate_size_ranges_and_bandwidth_are_used(tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", "trunc_normal", "--out", str(out), "--reps", "1",
                 "--n-train", "6", "--train-size", "30:40", "--n-test", "3",
                 "--test-size", "5:8", "--k-max", "2", "--grid", "64",
                 "--bandwidth", "0.4"]) == 0
    capsys.readouterr()
    with open(out / "reps" / "rep_0000" / "train.csv", newline="") as fh:
        ids = [r["subpop_id"] for r in csv.DictReader(fh)]
    sizes = [ids.count(g) for g in dict.fromkeys(ids)]
    assert len(sizes) == 6 and all(30 <= n <= 40 for n in sizes)


@pytest.fixture(scope="module")
def log_model_and_csv(tmp_path_factory):
    """A log-scale model, and groups of which one holds a nonpositive response."""
    root = tmp_path_factory.mktemp("cli_log")
    rng = np.random.default_rng(21)
    train = [SubpopSample(f"s{i}", np.exp(rng.normal(2.9, 0.3, size=60))) for i in range(8)]
    write_samples_csv(root / "train.csv", train)
    model = root / "model.json"
    assert main(["train", str(root / "train.csv"), "--out", str(model), "--log-scale",
                 "--grid", "128", "--k-max", "2"]) == 0
    groups = [SubpopSample("good", np.exp(rng.normal(2.9, 0.3, size=8))),
              SubpopSample("bad", np.concatenate([[-1.0], np.exp(rng.normal(2.9, 0.3, size=7))]))]
    write_samples_csv(root / "new.csv", groups)
    return model, root / "new.csv"


def test_evaluate_reports_failure_reasons(log_model_and_csv, tmp_path, capsys):
    model, new = log_model_and_csv
    out = tmp_path / "eval"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["evaluate", str(model), str(new), "--out", str(out), "--loo",
                     "--methods", "map,kde,blup", "--k", "1", "--return-levels", "5"]) == 0
    printed = json.loads(capsys.readouterr().out)
    summary = json.loads((out / "loo_summary.json").read_text())
    assert summary["errors"] == printed["errors"]
    assert [(e["id"], e["method"]) for e in summary["errors"]] == [
        ("bad", "map"), ("bad", "kde"), ("bad", "blup"),
    ]
    assert all("responses must be positive" in e["error"] for e in summary["errors"])
    with open(out / "loo_per_sample.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {(r["subpop_id"], r["finite"]) for r in rows} == {("good", "1"), ("bad", "0")}


@pytest.mark.parametrize("methods", ["mle,mle", "MLE,mle", "map, Map", "mle,foo", "kde,ols"])
@pytest.mark.parametrize("model_exists", [True, False])
def test_methods_checked_before_anything_is_read_or_created(model_and_csv, tmp_path, capsys,
                                                           methods, model_exists):
    model, new = model_and_csv
    out = tmp_path / "eval"
    model_arg = str(model) if model_exists else str(tmp_path / "missing.json")
    assert main(["evaluate", model_arg, str(new), "--out", str(out), "--loo",
                 "--methods", methods]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error") and "--methods" in err
    assert not out.exists()


def test_methods_are_stripped_and_lowercased(model_and_csv, tmp_path, capsys):
    model, new = model_and_csv
    out = tmp_path / "eval"
    assert main(["evaluate", str(model), str(new), "--out", str(out), "--loo", "--k", "1",
                 "--methods", " KDE , Mle ,"]) == 0
    capsys.readouterr()
    with open(out / "loo_per_sample.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["method"] for r in rows] == ["kde", "mle"] * 5
    summary = json.loads((out / "loo_summary.json").read_text())
    assert sum(b["methods"]["mle"]["n"] for b in summary["strata"]) == 5
