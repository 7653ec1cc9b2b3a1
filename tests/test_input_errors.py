"""Inputs the commands cannot use end with their documented exit code and a
reason, never a traceback: non-finite sample values and invalid model files
(exit 2), training sets that cannot train a family (exit 1), and group ids
that cannot name a density file (exit 2, before anything is fitted)."""

import json

import numpy as np
import pytest

from repden.cli import main
from repden.modelio import (
    ModelFormatError,
    SampleFormatError,
    load_model,
    model_to_dict,
    read_samples_csv,
    save_model,
    write_samples_csv,
)
from repden.presmooth import SubpopSample


def _groups(rng, n, size, lo=-2.0, hi=2.0):
    return [SubpopSample(f"g{i}", rng.uniform(lo, hi, size)) for i in range(n)]


@pytest.fixture()
def model_file(tmp_path, trained_model):
    path = tmp_path / "model.json"
    save_model(trained_model, path)
    return path


@pytest.fixture()
def new_csv(tmp_path):
    path = tmp_path / "new.csv"
    write_samples_csv(path, _groups(np.random.default_rng(1), 3, 12))
    return path


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_sample_value_is_a_parse_error(tmp_path, capsys, model_file, raw):
    path = tmp_path / "s.csv"
    path.write_text(f"subpop_id,value\nx,0.5\nx,{raw}\nx,0.25\n")
    with pytest.raises(SampleFormatError, match=f"line 3: non-finite value '{raw}'"):
        read_samples_csv(path)
    assert main(["fit", str(model_file), str(path), "--out", str(tmp_path / "out")]) == 2
    assert "non-finite value" in capsys.readouterr().err


def _no_grid(payload):
    payload["domain"]["n_grid"] = 5


def _bent_eigenfunction(payload):
    payload["eigfns"][0][10] += 0.5


def _lost_training_density(payload):
    payload["train_densities"].pop()


@pytest.mark.parametrize("corrupt", [_no_grid, _bent_eigenfunction, _lost_training_density])
def test_invalid_model_values_are_a_format_error(tmp_path, capsys, trained_model, new_csv,
                                                 corrupt):
    payload = model_to_dict(trained_model)
    corrupt(payload)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError, match="malformed model file"):
        load_model(model)
    assert main(["fit", str(model), str(new_csv), "--out", str(tmp_path / "out")]) == 2
    assert "malformed model file" in capsys.readouterr().err


def test_nonpositive_log_scale_response_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "train.csv"
    groups = _groups(np.random.default_rng(2), 6, 40, 0.5, 9.0)
    write_samples_csv(path, [*groups, SubpopSample("bad", [1.0, 0.0, 2.0])])
    assert main(["train", str(path), "--out", str(tmp_path / "m.json"), "--log-scale"]) == 1
    assert "'bad' has nonpositive responses" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_training_set_without_spread_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "train.csv"
    write_samples_csv(path, [SubpopSample(f"c{i}", [0.1 * i] * 5) for i in range(6)])
    assert main(["train", str(path), "--out", str(tmp_path / "m.json"), "--domain=-3,3"]) == 1
    assert "no sample yields a valid bandwidth" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("bad_id", ["a/b", "a\0b"])
def test_fit_rejects_ids_that_cannot_name_a_file_before_fitting(tmp_path, capsys,
                                                                model_file, bad_id):
    rng = np.random.default_rng(3)
    path = tmp_path / "new.csv"
    write_samples_csv(path, [*_groups(rng, 3, 12), SubpopSample(bad_id, rng.uniform(-1, 1, 9))])
    out = tmp_path / "out"
    assert main(["fit", str(model_file), str(path), "--out", str(out)]) == 2
    assert f"{bad_id!r} cannot name a density file" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def _one_training_group(payload):
    payload["train_scores"] = payload["train_scores"][:1]
    payload["train_densities"] = payload["train_densities"][:1]
    payload["provenance"]["n"] = 1
    payload["provenance"]["sizes"] = payload["provenance"]["sizes"][:1]


@pytest.mark.parametrize("argv", [["fit", "--method", "mle"], ["fit", "--method", "map"],
                                  ["fit", "--method", "blup"], ["evaluate", "--loo"]])
def test_model_with_one_training_group_is_a_format_error(tmp_path, capsys, trained_model,
                                                         new_csv, argv):
    payload = model_to_dict(trained_model)
    _one_training_group(payload)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError, match="at least two training subpopulations"):
        load_model(model)
    command, *flags = argv
    assert main([command, str(model), str(new_csv), "--out", str(tmp_path / "out"), *flags]) == 2
    assert "malformed model file" in capsys.readouterr().err
