"""The model loader accepts only training densities that are densities: every
row strictly positive and integrating to one.  BLUP weights its
within-group covariance by them, so a file with a doubled or negative row
would otherwise fit to a different theta without a word; loading it is a
format error (exit 2) instead."""

import json

import numpy as np
import pytest

from repden.cli import main
from repden.modelio import (ModelFormatError, load_model, model_to_dict, save_model,
                            write_samples_csv)
from repden.presmooth import SubpopSample


def _negated(row):
    return [-v for v in row]


def _edge_zero(row):
    # the edge value of a smoothed density is tiny, so the row still
    # integrates to one within tolerance: only the positivity check sees it
    return [0.0, *row[1:]]


def _doubled(row):
    return [2.0 * v for v in row]


BAD = {"negative": _negated, "zero": _edge_zero, "doubled": _doubled}


@pytest.mark.parametrize("name", BAD)
def test_a_training_row_that_is_not_a_density_is_a_format_error(tmp_path, capsys,
                                                                trained_model, name):
    payload = model_to_dict(trained_model)
    payload["train_densities"][0] = BAD[name](payload["train_densities"][0])
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError, match="malformed model file: training density 0"):
        load_model(model)
    new = tmp_path / "new.csv"
    rng = np.random.default_rng(4)
    write_samples_csv(new, [SubpopSample("g0", rng.uniform(-2, 2, 12))])
    out = tmp_path / "out"
    code = main(["fit", str(model), str(new), "--out", str(out), "--method", "blup",
                 "--k", "2"])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("i/o error: malformed model file: ")
    assert not out.exists()


def test_a_trained_model_loads_and_round_trips_bit_exactly(tmp_path, trained_model):
    path = tmp_path / "model.json"
    save_model(trained_model, path)
    back = load_model(path)
    for a, b in zip(back.train_densities, trained_model.train_densities):
        assert a.values.tobytes() == b.values.tobytes()
    assert json.dumps(model_to_dict(back)) == json.dumps(model_to_dict(trained_model))
