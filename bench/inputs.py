"""Seeded input generators for the benchmark workloads.

Inputs are drawn with numpy alone, never with ``repden.simgen``, so they do
not change when the code under measurement changes.  The same seed always
gives byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

SAMPLE_HEADER = "subpop_id,value\n"


def rng_for(seed: int, salt: str) -> np.random.Generator:
    """An independent stream per (seed, purpose)."""
    return np.random.default_rng([int(seed), *salt.encode()])


def write_samples(path: Path, groups: list[tuple[str, np.ndarray]]) -> int:
    """Write groups as the CLI's ``subpop_id,value`` CSV; returns the row count."""
    rows = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SAMPLE_HEADER)
        for gid, vals in groups:
            # numpy's shortest round-trip strings: the digits of repr(float)
            fh.write(f"{gid}," + f"\n{gid},".join(vals.astype(str).tolist()) + "\n")
            rows += vals.size
    return rows


def spread_sizes(rng, n: int, lo: int, hi: int) -> np.ndarray:
    """``n`` group sizes evenly covering ``[lo, hi]`` in a seeded order, so the
    total work is the same for every seed."""
    return rng.permutation(np.round(np.linspace(lo, hi, n)).astype(int))


def truncated_normal_groups(rng, prefix: str, sizes, lo: float, hi: float):
    """Groups drawn from normals with random location and scale, kept on [lo, hi]
    by rejection, so no mass piles up at the endpoints."""
    groups = []
    for i, n in enumerate(sizes):
        mean = rng.uniform(-1.0, 1.0)
        sd = rng.uniform(0.6, 1.4)
        kept = np.empty(0)
        while kept.size < n:
            draw = rng.normal(mean, sd, size=2 * n)
            kept = np.concatenate([kept, draw[(draw > lo) & (draw < hi)]])
        groups.append((f"{prefix}{i:05d}", kept[:n]))
    return groups


def gumbel_site_groups(rng, prefix: str, sizes, locs=(30.0, 60.0), scales=(5.0, 12.0)):
    """Annual-maximum-like positive values: one Gumbel law per site, with
    location and scale drawn uniformly from the given ranges."""
    groups = []
    for i, n in enumerate(sizes):
        loc = rng.uniform(*locs)
        scale = rng.uniform(*scales)
        kept = np.empty(0)
        while kept.size < n:
            draw = rng.gumbel(loc, scale, size=2 * n)
            kept = np.concatenate([kept, draw[draw > 1.0]])
        groups.append((f"{prefix}{i:04d}", kept[:n]))
    return groups
