"""The model loader reads each scalar as the JSON type the writer gives it:
a boolean ``log_scale``, an integer ``n_grid`` and numbers for ``lo``, ``hi``,
``bandwidth`` and ``delta``.  Any other type is a format error (exit 2), so a
string ``"false"`` is not read as a log-scale model and ``512.7`` grid points
are not truncated to 512."""

import json

import numpy as np
import pytest

from repden.cli import main
from repden.modelio import ModelFormatError, load_model, model_to_dict, write_samples_csv
from repden.presmooth import SubpopSample


def _set(*path):
    """A corruption that sets ``payload[path[0]]...[path[-2]]`` to ``path[-1]``."""
    *keys, last, value = path

    def corrupt(payload):
        obj = payload
        for key in keys:
            obj = obj[key]
        obj[last] = value
    return corrupt


BAD = {
    "log_scale string false": _set("log_scale", "false"),
    "log_scale integer": _set("log_scale", 0),
    "n_grid fraction": _set("domain", "n_grid", 256.7),
    "n_grid whole float": _set("domain", "n_grid", 256.0),
    "n_grid string": _set("domain", "n_grid", "256"),
    "n_grid boolean": _set("domain", "n_grid", True),
    "lo string": _set("domain", "lo", "-3.0"),
    "hi string": _set("domain", "hi", "3.0"),
    "bandwidth string": _set("bandwidth", "0.25"),
    "bandwidth boolean": _set("bandwidth", True),
    "delta string": _set("delta", "0.5"),
}


def _write(tmp_path, trained_model, corrupt=None):
    payload = model_to_dict(trained_model)
    if corrupt is not None:
        corrupt(payload)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("name", BAD)
def test_a_scalar_of_the_wrong_type_is_a_format_error(tmp_path, capsys, trained_model, name):
    model = _write(tmp_path, trained_model, BAD[name])
    with pytest.raises(ModelFormatError, match="malformed model file: .* must be a JSON"):
        load_model(model)
    new = tmp_path / "new.csv"
    rng = np.random.default_rng(3)
    write_samples_csv(new, [SubpopSample(f"g{i}", rng.uniform(-2, 2, 12)) for i in range(2)])
    assert main(["fit", str(model), str(new), "--out", str(tmp_path / "out")]) == 2
    assert "must be a JSON" in capsys.readouterr().err


def test_integral_endpoints_and_a_null_delta_load(tmp_path, trained_model):
    lo, hi = trained_model.domain.lo, trained_model.domain.hi
    assert lo == int(lo) and hi == int(hi)
    corrupt = _set("domain", "lo", int(lo))
    model = load_model(_write(tmp_path, trained_model, corrupt))
    assert model.domain == trained_model.domain
    assert model.meta.log_scale is False and model.meta.delta is None
