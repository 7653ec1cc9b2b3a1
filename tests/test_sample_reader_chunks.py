"""The chunked sample-CSV reader against the per-row reader it replaced.

The oracle below is the row-at-a-time loop: one ``csv.reader`` row, one
``float`` and one check per row.  The chunked reader must return the same
ids in the same order and the same array bytes, or raise the same error
with the same text, including the line number of the first bad row.
"""

import csv
import tempfile
import tracemalloc
from math import isfinite
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repden import modelio
from repden.modelio import SAMPLE_HEADER, SampleFormatError, read_samples_csv, write_samples_csv
from repden.presmooth import SubpopSample


def _per_row_reader(path) -> list[SubpopSample]:
    groups: dict[str, list[float]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SAMPLE_HEADER:
            raise SampleFormatError(
                f"expected header {','.join(SAMPLE_HEADER)!r}, got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise SampleFormatError(f"line {lineno}: expected 2 fields, got {len(row)}")
            sid, raw = row
            try:
                value = float(raw)
            except ValueError as exc:
                raise SampleFormatError(f"line {lineno}: bad value {raw!r}") from exc
            if not isfinite(value):
                raise SampleFormatError(f"line {lineno}: non-finite value {raw!r}")
            groups.setdefault(sid, []).append(value)
    if not groups:
        raise SampleFormatError(f"no sample rows in {Path(path)}")
    return [SubpopSample(id=sid, obs=np.array(vals)) for sid, vals in groups.items()]


def _outcome(reader, path):
    try:
        return [(s.id, s.obs.tobytes()) for s in reader(path)]
    except (SampleFormatError, csv.Error) as exc:
        return type(exc), str(exc)


def _field(text: str, quote: bool) -> str:
    if quote or any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


IDS = st.sampled_from(["a", "b", "g10", "x,y", 'say "hi"', "two\nlines", " pad ", "cr\r\nlf"])
GOOD_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1_0", " 1.5", "1.5 ", "+2", "-0.0", "0", "1e-320", "\t3"]),
)
BAD_VALUES = st.sampled_from(["nan", "inf", "-Infinity", "1e400", "", "abc", "1__0", "0x10", "1,5"])
ENDINGS = st.sampled_from(["\n", "\r\n"])


@st.composite
def sample_csv(draw):
    """CSV text: valid rows in runs of equal ids, groups that reappear,
    blank lines, quoted fields, mixed line endings and a few bad rows."""
    rows = []
    for _ in range(draw(st.integers(0, 6))):  # runs of one id
        sid = draw(IDS)
        rows += [(sid, v) for v in draw(st.lists(GOOD_VALUES, min_size=1, max_size=6))]
    lines = [",".join(_field(f, draw(st.booleans())) for f in row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        bad = draw(st.one_of(
            st.just(""),  # a blank line
            st.tuples(IDS, BAD_VALUES).map(lambda r: ",".join(_field(f, False) for f in r)),
            IDS.map(lambda sid: _field(sid, False)),  # one field
            st.tuples(IDS, GOOD_VALUES, GOOD_VALUES).map(
                lambda r: ",".join(_field(f, False) for f in r)),  # three fields
        ))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return "subpop_id,value" + draw(ENDINGS) + "".join(line + draw(ENDINGS) for line in lines)


@settings(max_examples=300, deadline=None)
@given(text=sample_csv(), chunk_rows=st.integers(1, 8))
def test_chunked_reader_matches_the_per_row_reader(text, chunk_rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "samples.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = _outcome(_per_row_reader, path)
        with mock.patch.object(modelio, "CHUNK_ROWS", chunk_rows):
            assert _outcome(read_samples_csv, path) == expected


def test_errors_and_runs_across_the_default_chunk_boundary(tmp_path):
    # rows 2..1025 fill the first chunk; the second starts at line 1026
    n = modelio.CHUNK_ROWS
    rows = [f"g{i // 700},{i * 0.25!r}" for i in range(n + 300)]
    path = tmp_path / "samples.csv"
    for lineno, bad in [(n + 1, "g1,nan"), (n + 2, "g1"), (n + 2, "g1,1,2"), (n + 3, "g1,x")]:
        lines = list(rows)
        lines[lineno - 2] = bad
        path.write_text("subpop_id,value\n" + "\n".join(lines) + "\n")
        expected = _outcome(_per_row_reader, path)
        assert expected[1].startswith(f"line {lineno}: ")
        assert _outcome(read_samples_csv, path) == expected
    path.write_text("subpop_id,value\n" + "\n".join(rows) + "\n")
    samples = read_samples_csv(path)
    assert [s.id for s in samples] == ["g0", "g1"]
    assert _outcome(read_samples_csv, path) == _outcome(_per_row_reader, path)


def test_a_bad_row_is_reported_before_a_later_reader_error(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("subpop_id,value\na,1\na,x\n" + "b" * 80 + ",2\n")
    limit = csv.field_size_limit(50)
    try:
        expected = _outcome(_per_row_reader, path)
        assert expected == (SampleFormatError, "line 3: bad value 'x'")
        assert _outcome(read_samples_csv, path) == expected
        path.write_text("subpop_id,value\na,1\n" + "b" * 80 + ",2\n")
        assert _outcome(read_samples_csv, path) == _outcome(_per_row_reader, path)
        assert _outcome(read_samples_csv, path)[0] is csv.Error
    finally:
        csv.field_size_limit(limit)


def test_reader_keeps_values_as_float64_arrays(tmp_path):
    n_values = 200_000
    rng = np.random.default_rng(3)
    path = tmp_path / "samples.csv"
    write_samples_csv(path, [SubpopSample(f"g{g}", rng.normal(size=n_values // 20))
                             for g in range(20)])
    tracemalloc.start()
    try:
        samples = read_samples_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(s.size for s in samples) == n_values
    # the per-row reader held a Python float and a list slot per value,
    # about 42 bytes; the chunked reader holds the chunks' float64 arrays
    # and each group's sorted copy
    assert peak / n_values < 24
