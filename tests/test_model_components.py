"""A family needs at least one component: a model file with none is a
format error that says so, and an eigensystem cannot be built without one."""

import json

import numpy as np
import pytest

from repden.cli import main
from repden.fpca import EigenSystem
from repden.modelio import ModelFormatError, load_model, model_to_dict, write_samples_csv
from repden.presmooth import SubpopSample


def test_model_file_without_components_exits_2_with_the_reason(tmp_path, capsys,
                                                                trained_model):
    payload = model_to_dict(trained_model)
    payload["eigvals"] = []
    payload["eigfns"] = []
    payload["train_scores"] = [[] for _ in payload["train_scores"]]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    new = tmp_path / "new.csv"
    write_samples_csv(new, [SubpopSample("g0", np.linspace(-1.0, 1.0, 12))])

    with pytest.raises(ModelFormatError, match="need at least one component"):
        load_model(model)
    assert main(["fit", str(model), str(new), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == ("i/o error: malformed model file: need at least one component; "
                   "eigvals, eigfns and scores are empty\n")
    assert not (tmp_path / "out").exists()


def test_eigensystem_rejects_zero_components(trained_model):
    sys = trained_model.sys
    with pytest.raises(ValueError, match="need at least one component"):
        EigenSystem(mu=sys.mu, eigvals=np.empty(0), eigfns=(),
                    scores=np.empty((sys.n_train, 0)))
