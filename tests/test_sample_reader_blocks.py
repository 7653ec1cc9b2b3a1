"""The block reader of sample CSVs against the per-row reader.

After the header, ``read_samples_csv`` splits blocks of plain text with
``str.split`` and hands the rest of the file to ``csv.reader`` at the first
quote, CR, NUL or oversized block.  Small ``BLOCK_CHARS`` put block
boundaries, and the hand-over, inside lines and fields.
"""

import csv
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repden import modelio
from repden.modelio import read_samples_csv
from test_sample_reader_chunks import _outcome, _per_row_reader, sample_csv


def _plain(text: str) -> str:
    return text.replace('"', "").replace("\r", "")


@settings(max_examples=300, deadline=None)
@given(text=sample_csv(), strip=st.booleans(), block_chars=st.integers(1, 64))
def test_block_reader_matches_the_per_row_reader(text, strip, block_chars):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "samples.csv"
        path.write_bytes((_plain(text) if strip else text).encode("utf-8"))
        expected = _outcome(_per_row_reader, path)
        with mock.patch.object(modelio, "BLOCK_CHARS", block_chars):
            assert _outcome(read_samples_csv, path) == expected


def test_hand_over_to_csv_keeps_the_current_line_whole(tmp_path):
    # 3-character blocks hand over inside the quoted field; a hand-over that
    # started csv.reader mid-line could read "a" and ",0.0" as two rows
    path = tmp_path / "samples.csv"
    path.write_text('subpop_id,value\na,"0.0"\na,0.0\n')
    expected = [("a", np.zeros(2).tobytes())]
    assert _outcome(_per_row_reader, path) == expected
    with mock.patch.object(modelio, "BLOCK_CHARS", 3):
        assert _outcome(read_samples_csv, path) == expected


@pytest.mark.parametrize(
    "body",
    [
        'a,"0.0"\na,0.0\n',
        'a,0.0\na,"0.0"\n',  # a plain line, then a quote
        "a,1\rb,2\n",  # a lone CR ends a line
        "1\n2,3,4\n",  # as many commas as lines, but not one on each
        "a,1\n\na,2",  # a blank line, and no newline after the last line
    ],
)
def test_every_block_boundary_reads_as_the_per_row_reader(tmp_path, body):
    path = tmp_path / "samples.csv"
    path.write_text("subpop_id,value\n" + body, newline="")
    expected = _outcome(_per_row_reader, path)
    for block_chars in range(1, len(body) + 2):
        with mock.patch.object(modelio, "BLOCK_CHARS", block_chars):
            assert _outcome(read_samples_csv, path) == expected, block_chars


def test_nul_in_an_id_reads_as_the_per_row_reader_does(tmp_path):
    # csv.reader rejects a NUL before Python 3.11 and keeps it in the field after
    path = tmp_path / "samples.csv"
    path.write_text("subpop_id,value\na\0b,1\na\0b,2\nc,3\n")
    expected = _outcome(_per_row_reader, path)
    assert _outcome(read_samples_csv, path) == expected
    with mock.patch.object(modelio, "BLOCK_CHARS", 7):
        assert _outcome(read_samples_csv, path) == expected


def test_plain_file_is_split_without_csv_reader(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "samples.csv"
    path.write_text("subpop_id,value\n"
                    + "".join(f"g{i // 3000},{v!r}\n" for i, v in enumerate(rng.normal(size=10_000).tolist())))
    expected = _outcome(_per_row_reader, path)
    with mock.patch.object(csv, "reader", wraps=csv.reader) as spy:
        got = _outcome(read_samples_csv, path)
    assert got == expected and [sid for sid, _ in got] == ["g0", "g1", "g2", "g3"]
    assert spy.call_count == 1  # the header
