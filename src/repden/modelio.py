"""Model-file and sample-CSV formats.

Models persist as JSON; floats serialize through Python's shortest
round-trip repr, so parsing reproduces every numeric field bit-exactly.
Samples travel as a two-column CSV with the exact header
``subpop_id,value``.  Every file the package writes goes through
:func:`write_csv` or :func:`write_json`: UTF-8, LF line endings, floats as
the ``repr`` of Python floats.
"""

from __future__ import annotations

import csv
import json
from itertools import repeat
from math import isfinite
from pathlib import Path
from typing import Iterable

import numpy as np

from .expfam import FamilyModel, ModelMeta
from .fpca import EigenSystem
from .grid import Domain, GridFn
from .logmap import LogDensityFn
from .presmooth import SubpopSample

FORMAT_VERSION = 1

SAMPLE_HEADER = ["subpop_id", "value"]


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


def model_from_dict(payload: dict) -> FamilyModel:
    try:
        version = payload["format_version"]
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported format version {version}")
        dom = payload["domain"]
        domain = Domain(float(dom["lo"]), float(dom["hi"]), int(dom["n_grid"]))
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
            bandwidth=float(payload["bandwidth"]),
            log_scale=bool(payload["log_scale"]),
            delta=None if payload["delta"] is None else float(payload["delta"]),
            seed=prov.get("seed"),
            timestamp=prov.get("timestamp"),
        )
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
    """Parse a sample CSV, grouping rows by subpopulation in first-seen order."""
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


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, header: Iterable[str], blocks: Iterable[tuple]) -> None:
    """Rows under a header, one comma-joined line each, given in blocks.

    A block is a tuple of cells.  A float array cell spans as many rows as
    it has values, and the block's other cells repeat on each of them; all
    array cells of a block have the same length, and a block without one
    is a single row.  A float, numpy ``float64`` included, is written as
    its shortest round-trip ``repr``; any other value as ``str``, quoted
    when it holds a comma, a quote or a line break.  Blocks may come from
    an iterator; each is formatted as it is written.
    """
    # Blocks format a group's repeated cells once and its values through one
    # tolist; with a type test per cell, simulate's 153,600-row truths.csv
    # made the whole command a fifth slower.
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            n = max((c.size for c in block if isinstance(c, np.ndarray)), default=1)
            cells = [map(repr, c.tolist()) if isinstance(c, np.ndarray) else repeat(_cell(c), n)
                     for c in block]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def write_json(path, payload) -> None:
    """``payload`` as JSON indented by one space, with a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def write_samples_csv(path, samples: list[SubpopSample]) -> None:
    write_csv(path, SAMPLE_HEADER, ((s.id, s.obs) for s in samples))


def write_density_csv(path, fn: GridFn) -> None:
    write_csv(path, ("t", "density"), [(fn.domain.grid, fn.values)])
