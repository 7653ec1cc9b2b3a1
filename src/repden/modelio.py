"""Model-file and sample-CSV formats.

Models persist as JSON; floats serialize through Python's shortest
round-trip repr, so parsing reproduces every numeric field bit-exactly.
Samples travel as a two-column CSV with the exact header
``subpop_id,value``.  Every file the package writes goes through
:func:`write_csv` or :func:`write_json`: UTF-8, LF line endings, floats as
the ``repr`` of Python floats.  Each writer makes its file's directory, so
a command that stops before its first write leaves no output path.
"""

from __future__ import annotations

import csv
import io
import json
from functools import lru_cache
from itertools import chain, compress, islice, pairwise, repeat
from math import isfinite
from operator import itemgetter, ne
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .expfam import FamilyModel, ModelMeta
from .fpca import EigenSystem
from .grid import Domain, GridFn
from .logmap import LogDensityFn
from .logscale import response_domain
from .presmooth import SubpopSample

FORMAT_VERSION = 1

SAMPLE_HEADER = ["subpop_id", "value"]

# Characters of a sample CSV read at a time after its header, and rows
# parsed at a time once csv.reader reads it.
BLOCK_CHARS = 1 << 16
CHUNK_ROWS = 1024

# Every byte but the field and line separators, deleted to check that each
# line of a block holds one comma.
_NOT_SEPARATORS = bytes(c for c in range(256) if c not in b",\n")


class SampleFormatError(ValueError):
    """The sample CSV violates the required layout."""


class ModelFormatError(ValueError):
    """The model file violates the required layout."""


def model_to_dict(model: FamilyModel) -> dict:
    sys = model.sys
    meta = model.meta
    return {
        "format_version": FORMAT_VERSION,
        "domain": {
            "lo": model.domain.lo,
            "hi": model.domain.hi,
            "n_grid": model.domain.n_grid,
        },
        "mu": sys.mu.values.tolist(),
        "eigvals": sys.eigvals.tolist(),
        "eigfns": [f.values.tolist() for f in sys.eigfns],
        "train_scores": sys.scores.tolist(),
        "train_densities": [d.values.tolist() for d in model.train_densities],
        "bandwidth": meta.bandwidth,
        "log_scale": meta.log_scale,
        "delta": meta.delta,
        "provenance": {
            "n": meta.n_train,
            "sizes": list(meta.train_sizes),
            "seed": meta.seed,
            "timestamp": meta.timestamp,
        },
    }


# Python types of the JSON scalar kinds; a JSON boolean is the only ``bool``,
# which Python also counts as an ``int``.
_JSON_SCALARS = {"boolean": bool, "integer": int, "number": (int, float)}


def _scalar(obj: dict, key: str, kind: str):
    """``obj[key]``, which must be a JSON ``kind`` ("boolean", "integer" or
    "number"); anything else is a ``ValueError``."""
    value = obj[key]
    is_bool = isinstance(value, bool)
    if is_bool != (kind == "boolean") or not isinstance(value, _JSON_SCALARS[kind]):
        raise ValueError(f"{key} must be a JSON {kind}, got {value!r}")
    return value


def model_from_dict(payload: dict) -> FamilyModel:
    try:
        version = payload["format_version"]
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported format version {version}")
        dom = payload["domain"]
        domain = Domain(float(_scalar(dom, "lo", "number")), float(_scalar(dom, "hi", "number")),
                        _scalar(dom, "n_grid", "integer"))
        mu = LogDensityFn(GridFn(domain, np.array(payload["mu"], dtype=float)))
        eigvals = np.array(payload["eigvals"], dtype=float)
        eigfns = tuple(
            GridFn(domain, np.array(vals, dtype=float)) for vals in payload["eigfns"]
        )
        scores = np.array(payload["train_scores"], dtype=float)
        sys = EigenSystem(mu=mu, eigvals=eigvals, eigfns=eigfns, scores=scores)
        densities = tuple(
            GridFn(domain, np.array(vals, dtype=float))
            for vals in payload["train_densities"]
        )
        prov = payload["provenance"]
        meta = ModelMeta(
            n_train=int(prov["n"]),
            train_sizes=tuple(int(s) for s in prov["sizes"]),
            bandwidth=float(_scalar(payload, "bandwidth", "number")),
            log_scale=_scalar(payload, "log_scale", "boolean"),
            delta=None if payload["delta"] is None else float(_scalar(payload, "delta", "number")),
            seed=prov.get("seed"),
            timestamp=prov.get("timestamp"),
        )
        if meta.log_scale:
            response_domain(domain)
        return FamilyModel(sys=sys, domain=domain, train_densities=densities, meta=meta)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model file: {exc}") from exc


def save_model(model: FamilyModel, path) -> None:
    write_json(path, model_to_dict(model))


def load_model(path) -> FamilyModel:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
    return model_from_dict(payload)


def read_samples_csv(path) -> list[SubpopSample]:
    """Parse a sample CSV, grouping rows by subpopulation in first-seen order.

    After the header the text is read ``BLOCK_CHARS`` characters at a time
    and cut at its last newline; the partial line is carried into the next
    block.  A block of lines that each hold one comma is split with one
    ``str.split`` and its values parsed into one float64 array; a block
    with blank or malformed lines goes through ``csv.reader`` line by line.
    From the first block that holds a quote, a carriage return, a NUL or
    more characters than ``csv.field_size_limit()``, ``csv.reader`` reads
    the rest of the file ``CHUNK_ROWS`` rows at a time, since only it parses
    quoted fields and CR line endings.  Both paths parse values with
    ``float``, so they read the same ids and value bits.  Each run of equal
    ids is appended to its group's ``bytearray`` of float64 values, so a
    group's values cost 8 bytes each in place of a Python float and a list
    pointer, and no block's array outlives its block.  A block or
    chunk that fails a check is checked again row by row, which reports the
    first bad row of the file as its line number, ahead of a later
    ``csv.Error``; a byte that is not UTF-8 raises ``UnicodeDecodeError``
    when the block holding it is decoded.
    """
    runs: dict[str, bytearray] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
        if header != SAMPLE_HEADER:
            raise SampleFormatError(
                f"expected header {','.join(SAMPLE_HEADER)!r}, got {header}"
            )
        for sids, values in _row_blocks(fh):
            if not sids:  # only blank rows
                continue
            cuts = [0, *compress(range(1, len(sids)), map(ne, sids[1:], sids[:-1])), len(sids)]
            for a, b in pairwise(cuts):
                runs.setdefault(sids[a], bytearray()).extend(values[a:b].data)
    if not runs:
        raise SampleFormatError(f"no sample rows in {Path(path)}")
    # popping each group's bytes lets them go once its sorted copy is made
    return [SubpopSample(id=sid, obs=np.frombuffer(runs.pop(sid))) for sid in list(runs)]


def _row_blocks(fh) -> Iterator[tuple[list[str], np.ndarray]]:
    """The ids and values of the non-blank rows after the header, a block
    of text or a chunk of ``csv.reader`` rows at a time."""
    lineno = 2  # the line number of the next row
    tail = ""
    while data := fh.read(BLOCK_CHARS):
        text = tail + data
        if '"' in text or "\r" in text or "\0" in text or len(text) > csv.field_size_limit():
            # complete the current line, so that csv.reader sees the file's lines
            text += fh.readline()
            break
        cut = text.rfind("\n") + 1
        if cut:
            n = text.count("\n", 0, cut)
            yield _split_block(text[:cut], n, lineno)
            lineno += n
        tail = text[cut:]
    else:
        if tail:  # the last line has no newline
            yield _split_block(tail + "\n", 1, lineno)
        return
    reader = csv.reader(chain(io.StringIO(text, newline=""), fh))
    while True:
        rows: list[list[str]] = []
        try:
            rows.extend(islice(reader, CHUNK_ROWS))
        except (csv.Error, ValueError):
            # a reader or decoding error comes after the rows before it
            _check_rows(rows, lineno)
            raise
        if not rows:
            return
        yield _parse_chunk(rows, lineno)
        lineno += len(rows)


def _split_block(block: str, n: int, lineno: int) -> tuple[list[str], np.ndarray]:
    """The ids and values of a block of ``n`` whole lines free of quotes, CRs
    and NULs; the block's first line is line ``lineno``."""
    if block.encode().translate(None, _NOT_SEPARATORS) == b",\n" * n:
        parts = block.replace("\n", ",").split(",")
        try:
            values = np.fromiter(map(float, parts[1::2]), float, count=n)
            if np.isfinite(values).all():
                return parts[:-1:2], values
        except ValueError:
            pass
    return _parse_chunk(list(csv.reader(block.split("\n")[:-1])), lineno)


def _parse_chunk(rows: list[list[str]], lineno: int) -> tuple[list[str], np.ndarray]:
    """The ids and values of a chunk's non-blank rows, checked all at once."""
    lengths = set(map(len, rows))
    if lengths - {0, 2}:
        _check_rows(rows, lineno)
    pairs = list(filter(None, rows)) if 0 in lengths else rows
    try:
        values = np.fromiter(map(float, map(itemgetter(1), pairs)), float, count=len(pairs))
    except ValueError:
        _check_rows(rows, lineno)
        raise
    if not np.isfinite(values).all():
        _check_rows(rows, lineno)
    return list(map(itemgetter(0), pairs)), values


def _check_rows(rows: list[list[str]], first: int) -> None:
    """Raise for the first row, line ``first`` onward, that is neither blank
    nor an id and a finite value."""
    for lineno, row in enumerate(rows, start=first):
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


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


@lru_cache(maxsize=8)
def _grid_strings(domain: Domain, key: str) -> tuple[str, ...]:
    # ``key`` is repr(domain): Domain(-1, -0.0) == Domain(-1, 0.0), but their
    # last grid points print differently
    return tuple(map(repr, domain.grid.tolist()))


def write_csv(path, header: Iterable[str], blocks: Iterable[tuple]) -> None:
    """Rows under a header, one comma-joined line each, given in blocks.

    A block is a tuple of cells.  A float array cell spans as many rows as
    it has values, and the block's other cells repeat on each of them; all
    array cells of a block have the same length, and a block without one
    is a single row.  A :class:`Domain` cell is its grid, an array cell
    whose strings are formatted once and reused by every block and file
    on that domain.  A float, numpy ``float64`` included, is
    written as its shortest round-trip ``repr``; any other value as
    ``str``, quoted when it holds a comma, a quote or a line break.  Blocks
    may come from an iterator; each is formatted as it is written.
    """
    # A block formats each column once and joins its rows in C; a per-row
    # generator, and a repr of the grid in every group, made truths.csv cost
    # simulate a third of its time.
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            columns = [_grid_strings(c, repr(c)) if isinstance(c, Domain)
                       else list(map(repr, c.tolist())) if isinstance(c, np.ndarray) else None
                       for c in block]
            n = min((len(c) for c in columns if c is not None), default=1)
            if n:
                cells = [repeat(_cell(b), n) if c is None else c for b, c in zip(block, columns)]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_json(path, payload) -> None:
    """``payload`` as JSON indented by one space, with a trailing newline."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def write_samples_csv(path, samples: list[SubpopSample]) -> None:
    write_csv(path, SAMPLE_HEADER, ((s.id, s.obs) for s in samples))


def write_density_csv(path, fn: GridFn) -> None:
    write_csv(path, ("t", "density"), [(fn.domain, fn.values)])
