"""Leave-one-out refits solved as one batch per method: per-item errors and
agreement with a refit of each subset on its own, on both scales."""

import csv
import json

import numpy as np
import pytest

from repden.cli import main
from repden.logscale import ScaledModel, density_original_scale, fit_original_scale
from repden.metrics import loo_cross_entropy
from repden.modelio import load_model, write_samples_csv
from repden.presmooth import SubpopSample
from repden.simgen import default_spec, generate

HEALTHY = np.array([-1.2, -0.6, -0.1, 0.3, 0.8, 1.4])


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """A linear-scale model on [-3, 3] (k <= 3) and a log-scale one (k <= 2)."""
    root = tmp_path_factory.mktemp("loo_batch")
    spec = default_spec("trunc_normal", seed=7, n_train=8, train_size=60, n_test=1)
    train, _ = generate(spec, n_grid=128)
    write_samples_csv(root / "train.csv", train)
    assert main(["train", str(root / "train.csv"), "--out", str(root / "linear.json"),
                 "--domain=-3,3", "--grid", "128", "--k-max", "3"]) == 0
    rng = np.random.default_rng(21)
    sites = [SubpopSample(f"s{i}", np.exp(rng.normal(2.9, 0.3, size=60))) for i in range(8)]
    write_samples_csv(root / "sites.csv", sites)
    assert main(["train", str(root / "sites.csv"), "--out", str(root / "log.json"),
                 "--log-scale", "--grid", "128", "--k-max", "2"]) == 0
    return root


def _evaluate(model, groups, tmp_path, *flags):
    write_samples_csv(tmp_path / "new.csv", groups)
    out = tmp_path / "eval"
    assert main(["evaluate", str(model), str(tmp_path / "new.csv"), "--out", str(out),
                 "--loo", *flags]) == 0
    with open(out / "loo_per_sample.csv", newline="") as fh:
        rows = {(r["subpop_id"], r["method"]): r for r in csv.DictReader(fh)}
    errors = json.loads((out / "loo_summary.json").read_text())["errors"]
    return rows, {(e["id"], e["method"]): e["error"] for e in errors}


@pytest.mark.parametrize(
    "model, values, flags, error",
    [
        ("linear.json", [0.3], ["--methods", "mle,map,blup"],
         "leave-one-out refit failed at index 0: observation vector is empty"),
        ("linear.json", [2.9, 2.95], ["--methods", "mle", "--k", "3"],
         "leave-one-out refit failed at index 0: iterates diverging; "
         "target sits on the attainable boundary"),
        ("linear.json", [-0.5, 0.2, 0.9, 3.5], ["--methods", "mle,map,blup"],
         "leave-one-out refit failed at index 0: observations fall outside the model domain"),
        # the nonpositive value sorts first, so only the subset leaving it out maps
        ("log.json", [-1.0, 14.0, 17.0, 19.0, 22.0, 26.0], ["--methods", "mle,map,blup", "--k", "1"],
         "leave-one-out refit failed at index 1: responses must be positive"),
        ("log.json", [-2.0, 0.0, 14.0, 17.0, 19.0, 22.0], ["--methods", "mle,map,blup"],
         "leave-one-out refit failed at index 0: responses must be positive"),
    ],
)
def test_a_site_that_cannot_be_refitted_keeps_its_error(models, tmp_path, capsys, model, values,
                                                       flags, error):
    healthy = np.exp(3.0 + 0.1 * HEALTHY) if model == "log.json" else HEALTHY
    groups = [SubpopSample("bad", values), SubpopSample("good", healthy)]
    rows, errors = _evaluate(models / model, groups, tmp_path, *flags)
    capsys.readouterr()
    methods = flags[1].split(",")
    assert errors == {("bad", m): error for m in methods}
    for m in methods:
        assert rows["bad", m]["finite"] == "0"
        assert rows["good", m]["finite"] == "1"


def test_batched_log_scale_loo_matches_a_refit_of_each_subset(models, tmp_path, capsys):
    rng = np.random.default_rng(5)
    groups = [SubpopSample(f"n{n}", np.exp(rng.normal(2.9, 0.35, size=n))) for n in (4, 9, 15)]
    rows, errors = _evaluate(models / "log.json", groups, tmp_path,
                             "--methods", "mle,map,blup", "--k-max", "2")
    capsys.readouterr()
    assert errors == {}
    model = load_model(models / "log.json")
    scaled = ScaledModel(model, model.meta.delta)
    for g in groups:
        for method in ("mle", "map", "blup"):
            want = loo_cross_entropy(
                lambda s: density_original_scale(
                    scaled, fit_original_scale(scaled, s, method, k_max=2).theta),
                g.obs)
            got = float(rows[g.id, method]["loo_ce"])
            assert got == pytest.approx(want, rel=1e-12, abs=0)
