"""A Domain cell in a CSV block: the grid column formatted once, same bytes."""

import numpy as np
import pytest

from repden.grid import Domain
from repden.logscale import pushforward_values
from repden.modelio import _grid_strings, write_csv


@pytest.mark.parametrize("dom", [Domain(0, 1, 16), Domain(-3, 3, 512), Domain(1e-3, 7.5, 2048)])
def test_domain_cell_writes_the_bytes_of_its_grid(tmp_path, dom):
    values = np.random.default_rng(dom.n_grid).standard_normal(dom.n_grid)
    paths = []
    for name, grid in (("domain.csv", dom), ("array.csv", dom.grid)):
        paths.append(tmp_path / name)
        write_csv(paths[-1], ("id", "t", "v"), [("a", grid, values), ("b", grid, -values)])
    want = "id,t,v\n" + "".join(f"{g},{float(t)!r},{float(v)!r}\n" for g, s in (("a", 1), ("b", -1))
                                for t, v in zip(dom.grid, s * values))
    assert paths[0].read_bytes() == paths[1].read_bytes() == want.encode("utf-8")


def test_equal_domains_share_one_cache_entry(tmp_path):
    _grid_strings.cache_clear()
    first, second = Domain(-3.0, 3.0, 512), Domain(-3.0, 3.0, 512)
    assert first is not second and first == second
    for i, dom in enumerate((first, second)):
        write_csv(tmp_path / f"{i}.csv", ("t", "v"), [(dom, np.zeros(512))])
    info = _grid_strings.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)


def test_pushforward_domains_share_one_cache_entry(tmp_path):
    dom = Domain(-1.0, 2.0, 64)
    px = np.full((1, 64), 1 / 3)
    _grid_strings.cache_clear()
    for i in range(3):
        ydom, vals = pushforward_values(dom, px)
        write_csv(tmp_path / f"{i}.csv", ("t", "v"), [(ydom, vals[0])])
    assert _grid_strings.cache_info().currsize == 1


def test_signed_zero_endpoints_keep_their_own_strings(tmp_path):
    rows = []
    for hi in (-0.0, 0.0, -0.0):
        dom = Domain(-1.0, hi, 16)
        path = tmp_path / "z.csv"
        write_csv(path, ("t",), [(dom,)])
        rows.append(path.read_text(encoding="utf-8").splitlines()[-1])
    assert rows == ["-0.0", "0.0", "-0.0"]


def test_block_with_an_empty_array_cell_writes_no_row(tmp_path):
    path = tmp_path / "e.csv"
    dom = Domain(0.0, 1.0, 16)
    write_csv(path, ("id", "t", "v"), [("a", np.array([]), np.array([])),
                                       ("b", np.array([0.5]), np.array([2.0])),
                                       ("c", dom, np.array([])),
                                       ("d", 1.5, 3.0)])
    assert path.read_bytes() == b"id,t,v\nb,0.5,2.0\nd,1.5,3.0\n"
