"""Input files the reader cannot decode or split end in an i/o error (exit 2,
one stderr line) that writes nothing, never a traceback."""

import pytest

from repden.cli import main
from repden.modelio import save_model


@pytest.mark.parametrize("case", ["sample_not_utf8", "model_not_utf8", "id_over_field_limit"])
def test_undecodable_or_oversized_input_is_an_io_error(tmp_path, capsys, trained_model, case):
    samples = tmp_path / "samples.csv"
    model = tmp_path / "model.json"
    out = tmp_path / "o"
    if case == "sample_not_utf8":
        samples.write_bytes(b"subpop_id,value\na,1\na,\xff2\n")
        argv = ["train", str(samples), "--out", str(out / "m.json"), "--domain=-3,3"]
    elif case == "model_not_utf8":
        save_model(trained_model, model)
        model.write_bytes(b"\xff" + model.read_bytes())
        samples.write_text("subpop_id,value\na,0.5\na,0.25\n")
        argv = ["fit", str(model), str(samples), "--out", str(out)]
    else:
        samples.write_text("subpop_id,value\n" + "b" * 200_000 + ",1\n")
        argv = ["train", str(samples), "--out", str(out / "m.json"), "--domain=-3,3"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("i/o error") and err.count("\n") == 1
    assert not out.exists()
