"""Byte format of the CSV files: one shared writer keeps the per-row layout."""

import numpy as np
import pytest

from repden.grid import Domain, GridFn
from repden.modelio import read_samples_csv, write_csv, write_density_csv, write_samples_csv
from repden.presmooth import SubpopSample

AWKWARD = [5e-324, 1e-5, 1e16, -0.0, 0.1, 1 / 3]


def test_density_csv_bytes_match_per_row_repr(tmp_path):
    dom = Domain(0.0, 1.0, 16)
    values = np.resize(AWKWARD, 16)
    path = tmp_path / "d.csv"
    write_density_csv(path, GridFn(dom, values))
    want = "t,density\n" + "".join(
        f"{float(t)!r},{float(v)!r}\n" for t, v in zip(dom.grid, values)
    )
    assert path.read_bytes() == want.encode("utf-8")


def test_samples_csv_bytes_match_per_row_repr(tmp_path):
    samples = [SubpopSample("a", AWKWARD), SubpopSample("b", [2.5, -1e-300])]
    path = tmp_path / "s.csv"
    write_samples_csv(path, samples)
    want = "subpop_id,value\n" + "".join(
        f"{s.id},{float(v)!r}\n" for s in samples for v in s.obs
    )
    assert path.read_bytes() == want.encode("utf-8")
    back = read_samples_csv(path)
    for a, b in zip(back, samples):
        assert a.id == b.id and np.array_equal(a.obs, b.obs)


def test_csv_cells_quote_separators_and_round_trip(tmp_path):
    samples = [SubpopSample('x,"y"', [1.0, 2.0]), SubpopSample("plain", [3.0, 4.0])]
    path = tmp_path / "s.csv"
    write_samples_csv(path, samples)
    assert path.read_text(encoding="utf-8").splitlines()[1] == '"x,""y""",1.0'
    assert [s.id for s in read_samples_csv(path)] == ['x,"y"', "plain"]


@pytest.mark.parametrize("blocks", [
    [(i, v) for i, v in enumerate(AWKWARD)],
    [(i, np.float64(v)) for i, v in enumerate(AWKWARD)],
    [(i, np.array([v])) for i, v in enumerate(AWKWARD)],
])
def test_write_csv_formats_floats_alike_in_any_block(tmp_path, blocks):
    path = tmp_path / "c.csv"
    write_csv(path, ("n", "v"), blocks)
    want = "n,v\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(AWKWARD))
    assert path.read_bytes() == want.encode("utf-8")


def test_write_csv_repeats_scalar_cells_along_array_cells(tmp_path):
    path = tmp_path / "b.csv"
    write_csv(path, ("id", "t", "v", "n"), [("a", np.array([0.5, 1.5]), np.array([0.1, 1e16]), 7),
                                            ("b", 2.5, -0.0, 8)])
    assert path.read_text(encoding="utf-8") == "id,t,v,n\na,0.5,0.1,7\na,1.5,1e+16,7\nb,2.5,-0.0,8\n"
