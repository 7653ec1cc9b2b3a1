"""A log-scale fit reduces each sample only up to the truncations it fits."""

import json

import numpy as np
import pytest

from repden import expfam
from repden.cli import main
from repden.modelio import write_samples_csv
from repden.presmooth import SubpopSample


@pytest.fixture(scope="module")
def log_scale(tmp_path_factory):
    root = tmp_path_factory.mktemp("log_reduction")
    rng = np.random.default_rng(17)
    train = [SubpopSample(f"s{i}", np.exp(rng.normal(2.9 + 0.1 * (i % 3), 0.3, size=60)))
             for i in range(10)]
    write_samples_csv(root / "train.csv", train)
    model = root / "model.json"
    assert main(["train", str(root / "train.csv"), "--out", str(model), "--log-scale",
                 "--grid", "128", "--k-max", "5"]) == 0
    write_samples_csv(root / "new.csv", [
        SubpopSample(f"g{n}", np.exp(rng.normal(3.0, 0.3, size=n))) for n in (6, 9, 12)])
    return model, root / "new.csv"


@pytest.mark.parametrize("k_flags, width", [(["--k-max", "2"], 2), (["--k", "3"], 3),
                                            (["--k", "1", "--k-max", "4"], 1), ([], 5)])
def test_fit_reduces_to_k_else_k_max(log_scale, tmp_path, monkeypatch, capsys, k_flags, width):
    model, new = log_scale
    widths = []
    values = expfam.suffstat_values

    def spy(model, obs, k):
        widths.append(k)
        return values(model, obs, k)

    monkeypatch.setattr(expfam, "suffstat_values", spy)
    assert main(["fit", str(model), str(new), "--out", str(tmp_path / "fit"),
                 "--method", "map", *k_flags]) == 0
    assert json.loads(capsys.readouterr().out)["n_fitted"] == 3
    assert widths == [width] * 3
