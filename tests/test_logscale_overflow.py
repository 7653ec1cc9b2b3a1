"""A log-scale family whose response grid ``[exp(lo), exp(hi)]`` would
overflow cannot be used: ``train`` rejects the responses (exit 1), and
``fit`` and ``evaluate`` reject such a model file (exit 2), each with a
reason instead of a traceback."""

import numpy as np
import pytest

from repden.cli import main
from repden.expfam import train_family
from repden.grid import Domain
from repden.modelio import save_model, write_samples_csv
from repden.presmooth import SubpopSample


def _groups(n=6, size=50):
    rng = np.random.default_rng(4)
    return [SubpopSample(f"g{i}", rng.uniform(700.0, 709.7, size)) for i in range(n)]


@pytest.fixture()
def overflowing_model(tmp_path):
    """The model ``train --log-scale`` would build from responses up to
    exp(709.7): the log-scale domain ends at 709.7 + delta, past the log of
    the largest float."""
    model = train_family(_groups(), Domain(0.0, 710.2), 3)
    model.meta.log_scale = True
    model.meta.delta = 0.5
    path = tmp_path / "model.json"
    save_model(model, path)
    new = tmp_path / "new.csv"
    write_samples_csv(new, [SubpopSample(s.id, np.exp(s.obs[:10])) for s in _groups(2)])
    return path, new


def test_train_rejects_responses_whose_grid_overflows(tmp_path, capsys):
    path = tmp_path / "train.csv"
    write_samples_csv(path, [SubpopSample(s.id, np.exp(s.obs)) for s in _groups()])
    assert main(["train", str(path), "--out", str(tmp_path / "m.json"), "--log-scale"]) == 1
    assert "overflows" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_fit_rejects_a_model_whose_grid_overflows(overflowing_model, tmp_path, capsys):
    model, new = overflowing_model
    assert main(["fit", str(model), str(new), "--out", str(tmp_path / "fit")]) == 2
    assert "overflows" in capsys.readouterr().err


def test_evaluate_rejects_a_model_whose_grid_overflows(overflowing_model, tmp_path, capsys):
    model, new = overflowing_model
    argv = ["evaluate", str(model), str(new), "--out", str(tmp_path / "ev"),
            "--loo", "--return-levels", "10", "--methods", "mle,kde"]
    assert main(argv) == 2
    assert "overflows" in capsys.readouterr().err
