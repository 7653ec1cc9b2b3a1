"""Per-layer metrics of a traced run, computed from the spans ``tracer.py`` wrote.

A metric name is ``<module>.<function>.<stat>``:

- ``calls``: number of calls; ``fail``: calls that raised;
- ``total_s``: summed span durations;
- ``self_s``: summed durations minus the part of each span's interval its
  child spans cover (children in pool threads count once, as a union);
- ``p50_ms``, ``p99_ms``: percentiles of the per-call duration;
- ``obs``, ``rows``, ``bytes``, ``refits``: summed counted sizes.

A function that no longer exists reports ``None``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import numpy as np

# (name, unit, better) for every per-layer metric the traced run reports
LAYER_METRICS = [
    ("expfam.newton_minimize.calls", "count", "lower"),
    ("expfam.newton_minimize.self_s", "s", "lower"),
    ("expfam.newton_minimize.fail", "count", "lower"),
    ("expfam.natural_from_moment.calls", "count", "lower"),
    ("expfam.suffstat_average.calls", "count", "lower"),
    ("expfam.suffstat_average.self_s", "s", "lower"),
    ("expfam.density.calls", "count", "lower"),
    ("expfam.density.self_s", "s", "lower"),
    ("estimators.select_k_aic.calls", "count", "lower"),
    ("estimators.select_k_aic.total_s", "s", "lower"),
    ("estimators.select_k_aic.p50_ms", "ms", "lower"),
    ("estimators.select_k_aic.p99_ms", "ms", "lower"),
    ("estimators.fit_mle.calls", "count", "lower"),
    ("estimators.fit_mle.fail", "count", "lower"),
    ("estimators.fit_map.calls", "count", "lower"),
    ("estimators.fit_map.fail", "count", "lower"),
    ("estimators.fit_blup.calls", "count", "lower"),
    ("estimators.fit_blup.fail", "count", "lower"),
    ("estimators.k_fit_ok_ratio", "ratio", "higher"),
    ("estimators.shrinkage_stats.calls", "count", "lower"),
    ("estimators.shrinkage_stats.self_s", "s", "lower"),
    ("presmooth.weighted_kde.calls", "count", "lower"),
    ("presmooth.weighted_kde.self_s", "s", "lower"),
    ("presmooth.weighted_kde.obs", "obs", "lower"),
    ("fpca.fit_fpca.self_s", "s", "lower"),
    ("logmap.clog_transform.self_s", "s", "lower"),
    ("expfam.train_family.total_s", "s", "lower"),
    ("modelio.read_samples_csv.self_s", "s", "lower"),
    ("modelio.read_samples_csv.rows", "rows", "lower"),
    ("modelio.write_density_csv.calls", "count", "lower"),
    ("modelio.write_density_csv.self_s", "s", "lower"),
    ("modelio.write_density_csv.bytes", "bytes", "lower"),
    ("modelio.load_model.self_s", "s", "lower"),
    ("modelio.save_model.self_s", "s", "lower"),
    ("modelio.save_model.bytes", "bytes", "lower"),
    ("modelio.write_samples_csv.self_s", "s", "lower"),
    ("logscale.fit_original_scale.calls", "count", "lower"),
    ("logscale.clamp_log_obs.calls", "count", "lower"),
    ("logscale.density_original_scale.calls", "count", "lower"),
    ("logscale.density_original_scale.self_s", "s", "lower"),
    ("metrics.loo_cross_entropy.calls", "count", "lower"),
    ("metrics.loo_cross_entropy.total_s", "s", "lower"),
    ("metrics.loo_cross_entropy.refits", "refits", "lower"),
    ("metrics.return_level.calls", "count", "lower"),
    ("metrics.kl_div.calls", "count", "lower"),
    ("metrics.kl_div.self_s", "s", "lower"),
    ("simgen.generate.self_s", "s", "lower"),
    ("simulate.run_replication.calls", "count", "lower"),
    ("simulate.run_replication.total_s", "s", "lower"),
    ("cli.cmd_train.total_s", "s", "lower"),
    ("cli.cmd_train.self_s", "s", "lower"),
    ("cli.cmd_fit.total_s", "s", "lower"),
    ("cli.cmd_fit.self_s", "s", "lower"),
    ("cli.cmd_evaluate.total_s", "s", "lower"),
    ("cli.cmd_evaluate.self_s", "s", "lower"),
    ("cli.cmd_simulate.total_s", "s", "lower"),
    ("cli.cmd_simulate.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

FIT_LAYERS = ("estimators.fit_mle", "estimators.fit_map", "estimators.fit_blup")

# Layers the timed command must call on each workload; a traced run that
# records zero calls for one of them fails.
EXPECT_CALLS = {
    "fit_sparse": (
        "cli.cmd_fit", "modelio.load_model", "modelio.read_samples_csv",
        "modelio.write_density_csv", "estimators.select_k_aic", "estimators.fit_blup",
        "estimators.shrinkage_stats", "expfam.newton_minimize",
        "expfam.natural_from_moment", "expfam.suffstat_average", "expfam.density",
    ),
    "loo_logscale": (
        "cli.cmd_evaluate", "modelio.load_model", "modelio.read_samples_csv",
        "estimators.select_k_aic", "estimators.fit_map", "estimators.fit_blup",
        "estimators.shrinkage_stats", "expfam.newton_minimize", "expfam.natural_from_moment",
        "expfam.suffstat_average", "presmooth.weighted_kde", "logscale.fit_original_scale",
        "logscale.clamp_log_obs", "logscale.density_original_scale",
        "metrics.loo_cross_entropy", "metrics.return_level",
    ),
    "train_large": (
        "cli.cmd_train", "modelio.read_samples_csv", "modelio.save_model",
        "presmooth.weighted_kde", "logmap.clog_transform", "fpca.fit_fpca",
        "expfam.train_family",
    ),
    "simulate_rep": (
        "cli.cmd_simulate", "simulate.run_replication", "simgen.generate",
        "expfam.train_family", "fpca.fit_fpca", "logmap.clog_transform",
        "presmooth.weighted_kde", "estimators.select_k_aic", *FIT_LAYERS,
        "estimators.shrinkage_stats", "expfam.newton_minimize",
        "expfam.natural_from_moment", "expfam.suffstat_average", "expfam.density",
        "metrics.kl_div", "modelio.write_samples_csv",
    ),
}

# Layers the timed command must not call: fitting inside a trained family
# never pre-smooths.
EXPECT_NO_CALLS = {
    "fit_sparse": ("presmooth.weighted_kde",),
}


def _no_calls() -> dict:
    return {"calls": 0, "fail": 0, "total_s": 0.0, "self_s": 0.0, "count": 0, "durations": []}


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def aggregate(spans_path: Path) -> tuple[dict[str, dict], list[str]]:
    """Per-layer totals of one traced command, and the layer names it lacked."""
    data = json.loads(spans_path.read_text(encoding="utf-8"))
    fields = {name: i for i, name in enumerate(data["fields"])}
    sid, name, parent = fields["id"], fields["name"], fields["parent"]
    start, end, failed, count = fields["start"], fields["end"], fields["failed"], fields["count"]
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in data["spans"]:
        if s[parent] is not None:
            children[s[parent]].append((s[start], s[end]))
    stats: dict[str, dict] = defaultdict(_no_calls)
    for s in data["spans"]:
        st = stats[s[name]]
        dur = s[end] - s[start]
        st["calls"] += 1
        st["fail"] += s[failed]
        st["total_s"] += dur
        st["self_s"] += dur - _covered(children.get(s[sid], []), s[start], s[end])
        st["count"] += s[count] or 0
        st["durations"].append(dur)
    return dict(stats), data["missing"]


def layer_values(stats: dict[str, dict], missing: list[str], overhead_s: float) -> dict:
    """Every metric of ``LAYER_METRICS``; ``None`` where the function is gone."""
    empty = _no_calls()
    values = {}
    for metric, _, _ in LAYER_METRICS:
        if metric == "trace.overhead_s":
            values[metric] = overhead_s
            continue
        if metric == "estimators.k_fit_ok_ratio":
            # share of per-truncation fits that succeeded; 1 when none ran
            if any(f in missing for f in FIT_LAYERS):
                values[metric] = None
                continue
            calls = sum(stats.get(f, empty)["calls"] for f in FIT_LAYERS)
            fails = sum(stats.get(f, empty)["fail"] for f in FIT_LAYERS)
            values[metric] = (calls - fails) / calls if calls else 1.0
            continue
        layer, stat = metric.rsplit(".", 1)
        if layer in missing:
            values[metric] = None
            continue
        st = stats.get(layer, empty)
        if stat in ("calls", "fail", "total_s", "self_s"):
            values[metric] = st[stat]
        elif stat in ("p50_ms", "p99_ms"):
            q = 50 if stat == "p50_ms" else 99
            values[metric] = float(np.percentile(st["durations"], q)) * 1e3 if st["durations"] else 0.0
        else:
            values[metric] = st["count"]
    return values


def expectation_problems(workload: str, stats: dict[str, dict], missing: list[str]) -> list[str]:
    problems = []
    for layer in EXPECT_CALLS.get(workload, ()):
        if layer not in missing and stats.get(layer, {"calls": 0})["calls"] == 0:
            problems.append(f"{layer} recorded no calls")
    for layer in EXPECT_NO_CALLS.get(workload, ()):
        if stats.get(layer, {"calls": 0})["calls"] != 0:
            problems.append(f"{layer} was called but should not be")
    return problems
