"""README's library quick start runs as written, and its import line names
everything the top-level package exports."""

import inspect
import re
from pathlib import Path

import repden
from repden.grid import integrate

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_quick_start_runs_as_written():
    scope = {}
    exec(compile(_quick_start(), str(README), "exec"), scope)
    assert len(scope["results"]) == 2
    assert abs(integrate(scope["fitted_density"]) - 1.0) < 1e-9


def test_top_level_exports_exactly_the_quick_start_names():
    names = re.search(r"^from repden import (.+)$", _quick_start(), re.M).group(1)
    expected = sorted(n.strip() for n in names.split(","))
    public = sorted(n for n, v in vars(repden).items()
                    if not n.startswith("_") and not inspect.ismodule(v))
    assert sorted(repden.__all__) == expected
    assert public == expected
