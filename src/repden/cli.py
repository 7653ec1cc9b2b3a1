"""Batch command-line entry points: train, fit, simulate, evaluate.

Exit codes: 0 success (possibly with per-item errors), 1 usage error,
2 I/O or parse error, 3 total numerical failure.  Every command is
deterministic given its inputs, flags, and seed.  ``fit`` and ``evaluate``
run their fits as one batch in one thread and accept ``--threads`` only for
compatibility; ``--threads`` (or ``REPDEN_THREADS``) sizes ``simulate``'s
process pool, which changes scheduling, never output content or order.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import namedtuple
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .estimators import BATCH_SIZE, FAMILY_METHODS, FIT_ERRORS, FitResult, fit, loo_subsets
from .expfam import FamilyModel, density, density_values, train_family
from .grid import Domain, GridFn
from .logscale import (
    ScaledModel,
    clamp_log_obs,
    density_original_scale,
    fit_original_scale,
    fit_scaled,
    pushforward_values,
)
from .metrics import EvalReport, LooRefitError, loo_cross_entropy, loo_score, return_level
from .modelio import (
    ModelFormatError,
    SampleFormatError,
    load_model,
    read_samples_csv,
    save_model,
    write_csv,
    write_density_csv,
    write_json,
    write_samples_csv,
)
from .presmooth import KdeConfig, SubpopSample, silverman_bandwidth, weighted_kde
from .simgen import SCENARIO_KINDS, default_spec

THREADS_ENV = "REPDEN_THREADS"


class UsageError(Exception):
    pass


class TotalNumericalFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# Flag value types: argparse turns a ValueError raised here into a usage error.


def domain_bounds(text: str) -> tuple[float, float]:
    lo, hi = map(float, text.split(","))
    if not hi > lo:
        raise ValueError(text)
    return lo, hi


def _int_at_least(least: int, name: str):
    def parse(text: str) -> int:
        n = int(text)
        if n < least:
            raise ValueError(text)
        return n

    parse.__name__ = name
    return parse


positive_int = _int_at_least(1, "positive_int")
group_count = _int_at_least(2, "group_count")
grid_size = _int_at_least(16, "grid_size")


def size_or_range(text: str) -> int | tuple[int, int]:
    """A group size, or an inclusive ``lo:hi`` range of them; a KDE needs two points."""
    lo, sep, hi = text.partition(":")
    if not sep:
        return group_count(text)
    lo, hi = group_count(lo), group_count(hi)
    if lo > hi:
        raise ValueError(text)
    return lo, hi


def number_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


def return_periods(text: str) -> list[float]:
    periods = number_list(text)
    if not all(1 < t < math.inf for t in periods):
        raise ValueError(text)
    return periods


def size_strata(text: str) -> list[tuple[float, float, str]]:
    """Breaks ``b0 < ... < bn`` as the labelled intervals
    ``(-inf,b0], (b0,b1], ..., (bn,inf]``."""
    edges = [-math.inf, *number_list(text), math.inf]
    if len(edges) < 3 or not all(a < b for a, b in zip(edges[:-1], edges[1:])):
        raise ValueError(text)
    return [(lo, hi, f"({lo:g},{hi:g}]") for lo, hi in zip(edges[:-1], edges[1:])]


def method_list(text: str) -> list[str]:
    """Comma-separated method names, case-insensitive, each a known one given once."""
    methods = [m.strip().lower() for m in text.split(",") if m.strip()]
    if len(set(methods)) < len(methods) or not set(methods) <= {*FAMILY_METHODS, "kde"}:
        raise ValueError(text)
    return methods


def bandwidth(text: str) -> float | None:
    if text == "auto":
        return None
    return positive_float(text)


def positive_float(text: str) -> float:
    x = float(text)
    if not 0 < x < math.inf:
        raise ValueError(text)
    return x


def _truncation(args, model: FamilyModel) -> tuple[int | None, int]:
    """``(k, k_max)`` from ``--k`` and ``--k-max``; ``k`` is None for the AIC sweep."""
    n = model.n_components
    if args.k != "aic" and not (args.k.isdecimal() and 1 <= int(args.k) <= n):
        raise UsageError(f"--k must be 'aic' or an integer in [1, {n}], got {args.k!r}")
    return (None if args.k == "aic" else int(args.k)), min(args.k_max or n, n)


def _resolve_threads(value: int | None) -> int:
    if value is not None:
        return max(1, value)
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise UsageError(f"{THREADS_ENV} must be an integer, got {env!r}")
    return os.cpu_count() or 1


def _finite(x) -> bool:
    return x is not None and math.isfinite(x)


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=1)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    samples = read_samples_csv(args.input)
    min_size = max(args.min_train_size, 2)
    usable = [s for s in samples if s.size >= min_size]
    excluded = len(samples) - len(usable)
    if len(usable) < 2:
        raise UsageError(
            f"need at least 2 usable subpopulations, got {len(usable)} "
            f"(threshold {min_size})"
        )

    if not (args.log_scale or args.domain):
        raise UsageError("--domain lo,hi is required unless --log-scale is set")
    # the input cannot train a family: nonpositive log-scale responses, groups
    # outside the domain, no spread to choose a bandwidth from, ...
    try:
        if args.log_scale:
            model = fit_scaled(usable, k_max=args.k_max, delta=args.delta,
                               bandwidth=args.bandwidth, n_grid=args.grid).inner
        else:
            model = train_family(usable, Domain(*args.domain, args.grid), args.k_max,
                                 bandwidth=args.bandwidth)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    model.meta.timestamp = datetime.now(timezone.utc).isoformat()
    save_model(model, args.out)
    _emit(
        {
            "command": "train",
            "n_used": len(usable),
            "n_excluded": excluded,
            "n_components": model.n_components,
            "eigenvalues": model.sys.eigvals.tolist(),
            "bandwidth": model.meta.bandwidth,
            "log_scale": model.meta.log_scale,
            "model": str(args.out),
        }
    )
    return 0


# ---------------------------------------------------------------------------
# fit


# A loaded model and its maps between the data's scale and the model's: a
# batch fit, a fit's density, the observations in, and densities out (a
# domain and rows of values on it, to a domain and rows of values).
_Loaded = namedtuple("_Loaded", "model fit density obs carry")


def _load(path) -> _Loaded:
    model = load_model(path)
    if not model.meta.log_scale:
        return _Loaded(model, partial(fit, model), lambda r: density(model, r.theta),
                       lambda y: y, lambda dom, values: (dom, values))
    scaled = ScaledModel(model, model.meta.delta)
    return _Loaded(model, partial(fit_original_scale, scaled),
                   lambda r: density_original_scale(scaled, r.theta),
                   partial(clamp_log_obs, scaled), pushforward_values)


def _result_payload(sample: SubpopSample, result: FitResult) -> dict:
    return {
        "id": sample.id,
        "status": "ok",
        "method": result.method,
        "n_obs": result.n_obs,
        "k": result.k,
        "theta": result.theta.tolist(),
        "xi": result.xi.tolist(),
        "log_normalizer": result.log_normalizer,
        "loglik": result.loglik,
        "aic": result.aic,
        "aic_trace": [[k, a] for k, a in result.aic_trace],
    }


def cmd_fit(args) -> int:
    loaded = _load(args.model)
    samples = read_samples_csv(args.input)
    for s in samples:
        if any(c and c in s.id for c in (os.sep, os.altsep, "\0")):
            raise SampleFormatError(f"subpopulation id {s.id!r} cannot name a density file")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    k, k_max = _truncation(args, loaded.model)

    results = []
    fits = loaded.fit([s.obs for s in samples], args.method, k=k, k_max=k_max)
    for sample, result in zip(samples, fits):
        if isinstance(result, FIT_ERRORS):
            results.append({"id": sample.id, "status": "error", "error": str(result)})
            continue
        write_density_csv(out_dir / f"density_{sample.id}.csv", loaded.density(result))
        results.append(_result_payload(sample, result))

    n_failed = sum(1 for r in results if r["status"] == "error")
    payload = {
        "command": "fit",
        "method": args.method,
        "k": args.k,
        "n_fitted": len(results) - n_failed,
        "n_failed": n_failed,
        "results": results,
    }
    write_json(out_dir / "fits.json", payload)
    _emit({k: v for k, v in payload.items() if k != "results"} | {"out": str(out_dir)})
    if results and n_failed == len(results):
        raise TotalNumericalFailure("every subpopulation failed to fit")
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    # imported here: its process pool loads multiprocessing, which the other
    # commands never use
    from .simulate import run_scenario

    overrides = {
        key: getattr(args, key)
        for key in ("n_train", "train_size", "n_test", "test_size")
        if getattr(args, key) is not None
    }
    spec = default_spec(args.scenario, args.seed, **overrides)
    threads = _resolve_threads(args.threads)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    outcomes = run_scenario(
        spec,
        reps=args.reps,
        k_max=args.k_max,
        n_grid=args.grid,
        bandwidth=args.bandwidth,
        threads=threads,
        keep_data=True,
    )

    methods = list(outcomes[0].mkl)
    for out in outcomes:
        rep_dir = out_dir / "reps" / f"rep_{out.rep:04d}"
        rep_dir.mkdir(parents=True, exist_ok=True)
        write_samples_csv(rep_dir / "train.csv", out.train)
        write_samples_csv(rep_dir / "test.csv", [s for s, _ in out.test])
        write_csv(rep_dir / "truths.csv", ("subpop_id", "t", "density"),
                  ((s.id, truth.domain, truth.values) for s, truth in out.test))

    table = [(out.rep, m, out.mkl[m]) for out in outcomes for m in methods]
    write_csv(out_dir / "mkl_per_rep.csv", ("rep", "method", "mkl"), table)
    reports = [(m, EvalReport.from_pairs((out.rep, out.mkl[m]) for out in outcomes))
               for m in methods]
    table = [(m, r.mean, r.median, r.sd) for m, r in reports]
    write_csv(out_dir / "mkl_summary.csv", ("method", "mean", "median", "sd"), table)
    summary = {m: {"mean": mean, "median": median, "sd": sd} for m, mean, median, sd in table}

    _emit(
        {
            "command": "simulate",
            "scenario": args.scenario,
            "seed": args.seed,
            "reps": args.reps,
            "mkl": summary,
            "out": str(out_dir),
        }
    )
    return 0


# ---------------------------------------------------------------------------
# evaluate


def _kde_refit(loaded: _Loaded, full_sample: SubpopSample):
    """KDE refit callback for one subpopulation; evaluates in the data's scale.

    The sample is taken to the model's scale once, for the bandwidth and for
    every refit, which looks its subset up in the mapped values; a refit
    reaches the data's scale through the same carry as the family fits.
    """
    y = full_sample.obs
    x = loaded.obs(y)
    cfg = KdeConfig(bandwidth=silverman_bandwidth(SubpopSample(id=full_sample.id, obs=x)))

    def fit_kde(subset: np.ndarray) -> GridFn:
        sample = SubpopSample(id="loo", obs=x[np.searchsorted(y, subset)])
        kde = weighted_kde(sample, cfg, loaded.model.domain)
        dom, values = loaded.carry(kde.domain, kde.values[None])
        return GridFn(dom, values[0])

    return fit_kde


def _loo_kde(loaded: _Loaded, sample: SubpopSample) -> dict:
    """The KDE leave-one-out cross-entropy of one sample, or the fit error
    that stopped it; any other error propagates."""
    try:
        return {"loo_ce": loo_cross_entropy(_kde_refit(loaded, sample), sample.obs)}
    except (LooRefitError, *FIT_ERRORS) as exc:
        if isinstance(exc, LooRefitError) and not isinstance(exc.__cause__, FIT_ERRORS):
            raise
        return {"loo_ce": None, "error": str(exc)}


def _held_out(loaded: _Loaded, refits: list[FitResult], obs: np.ndarray) -> np.ndarray:
    """Each refit's density in the data's scale at its held-out value.

    Refits of one truncation share their densities' computation, in blocks
    of ``BATCH_SIZE``, by the arithmetic of ``density`` and the carry.
    """
    ks = np.array([r.k for r in refits])
    held = np.empty(len(refits))
    for k in np.unique(ks):
        rows = np.flatnonzero(ks == k)
        for block in (rows[i:i + BATCH_SIZE] for i in range(0, rows.size, BATCH_SIZE)):
            thetas = np.array([refits[j].theta for j in block])
            dom, values = loaded.carry(loaded.model.domain, density_values(loaded.model, thetas))
            held[block] = [np.interp(obs[j], dom.grid, v) for j, v in zip(block, values)]
    return held


def _loo_family(loaded: _Loaded, samples: list[SubpopSample], method: str, k, k_max) -> list:
    """The leave-one-out entry of every sample under one family method: its
    cross-entropy, or the error of its first refit that failed.

    The refits of all samples are solved as one batch, reduced from one
    interpolation pass per sample (``loo_subsets``).
    """
    batch = loo_subsets(loaded.model, [s.obs for s in samples], k or k_max, loaded.obs)
    fits = iter(fit(loaded.model, batch, method, k=k, k_max=k_max))
    refits = [[next(fits) for _ in range(s.size)] for s in samples]
    entries = []
    for s, rs in zip(samples, refits):
        failed = next((j for j, r in enumerate(rs) if isinstance(r, FIT_ERRORS)), None)
        if failed is None:
            entries.append({"loo_ce": loo_score(_held_out(loaded, rs, s.obs), s.size)})
        else:
            entries.append({"loo_ce": None,
                            "error": str(LooRefitError(failed, str(rs[failed])))})
    return entries


def cmd_evaluate(args) -> int:
    loaded = _load(args.model)
    samples = read_samples_csv(args.input)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    k, k_max = _truncation(args, loaded.model)
    levels = args.return_levels

    entries = {}
    for method in args.methods:
        fits, loo = [], []
        if levels and method != "kde":
            fits = loaded.fit([s.obs for s in samples], method, k=k, k_max=k_max)
        if args.loo and method == "kde":
            loo = [_loo_kde(loaded, s) for s in samples]
        elif args.loo:
            loo = _loo_family(loaded, samples, method, k, k_max)
        for i, sample in enumerate(samples):
            entry = {"id": sample.id, "size": sample.size, "method": method,
                     "stratum": next(lab for lo, hi, lab in args.strata if lo < sample.size <= hi)}
            if args.loo:
                entry |= loo[i]
            if fits and isinstance(fits[i], FIT_ERRORS):
                entry["return_levels"] = None
                entry.setdefault("error", str(fits[i]))
            elif fits:
                dens = loaded.density(fits[i])
                entry["return_levels"] = {f"{t:g}": return_level(dens, t) for t in levels}
            entries[i, method] = entry
    rows = [entries[i, method] for i in range(len(samples)) for method in args.methods]

    if args.loo:
        table = [(r["id"], r["size"], r["stratum"], r["method"],
                  r["loo_ce"] if _finite(r["loo_ce"]) else "", int(_finite(r["loo_ce"])))
                 for r in rows]
        write_csv(out_dir / "loo_per_sample.csv",
                  ("subpop_id", "size", "stratum", "method", "loo_ce", "finite"), table)
    if levels:
        table = [(r["id"], r["method"], t, level)
                 for r in rows for t, level in (r.get("return_levels") or {}).items()]
        write_csv(out_dir / "return_levels.csv", ("subpop_id", "method", "t_years", "level"),
                  table)

    summary = {"command": "evaluate", "strata": []}
    for _, _, label in args.strata:
        block = {}
        for method in args.methods:
            cell = [r for r in rows if r["stratum"] == label and r["method"] == method
                    and "loo_ce" in r]
            if not cell:
                continue
            finite = [(r["id"], r["loo_ce"]) for r in cell if _finite(r["loo_ce"])]
            stats = dict.fromkeys(("mean", "median", "sd"))
            if finite:
                report = EvalReport.from_pairs(finite)
                stats = {"mean": report.mean, "median": report.median, "sd": report.sd}
            block[method] = {"n": len(cell), "n_finite": len(finite), **stats}
        if block:
            summary["strata"].append({"stratum": label, "methods": block})
    summary["errors"] = [{"id": r["id"], "method": r["method"], "error": r["error"]}
                         for r in rows if "error" in r]
    write_json(out_dir / "loo_summary.json", summary)
    _emit(summary | {"out": str(out_dir)})
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="repden", description=__doc__)
    parser.add_argument("--version", action="version", version=f"repden {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a family from a sample CSV")
    p.add_argument("input", help="sample CSV (header: subpop_id,value)")
    p.add_argument("--out", required=True, help="model file to write (JSON)")
    p.add_argument("--domain", type=domain_bounds, help="comma-separated lo,hi of the support")
    p.add_argument("--grid", type=grid_size, default=512,
                   help="grid size, at least 16 (default 512)")
    p.add_argument("--k-max", type=positive_int, default=10,
                   help="components to retain (default 10)")
    p.add_argument("--bandwidth", type=bandwidth, default="auto",
                   help="KDE bandwidth or 'auto' (median rule)")
    p.add_argument("--min-train-size", type=int, default=2,
                   help="exclude subpopulations smaller than this (default 2)")
    p.add_argument("--log-scale", action="store_true",
                   help="train on log responses (positive data only)")
    p.add_argument("--delta", type=positive_float, default=0.5,
                   help="domain pad for --log-scale (default 0.5)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("fit", help="fit new subpopulations within a trained model")
    p.add_argument("model", help="model file from 'train'")
    p.add_argument("input", help="sample CSV to fit")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--method", type=str.lower, choices=FAMILY_METHODS, default="mle",
                   help="mle, map, or blup (default mle)")
    p.add_argument("--k", default="aic", help="fixed component count or 'aic' (default)")
    p.add_argument("--k-max", type=positive_int, default=None, help="cap for the AIC sweep")
    p.add_argument("--threads", type=int, default=None,
                   help="ignored: all groups are fitted as one batch")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="run a seeded benchmark scenario")
    p.add_argument("--scenario", required=True, choices=SCENARIO_KINDS)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=positive_int, default=50)
    p.add_argument("--n-train", type=group_count, default=None)
    p.add_argument("--train-size", type=size_or_range, default=None,
                   help="integer of at least 2 or inclusive lo:hi range")
    p.add_argument("--n-test", type=positive_int, default=None)
    p.add_argument("--test-size", type=size_or_range, default=None,
                   help="integer of at least 2 or inclusive lo:hi range")
    p.add_argument("--k-max", type=positive_int, default=10)
    p.add_argument("--grid", type=grid_size, default=512)
    p.add_argument("--bandwidth", type=bandwidth, default="auto")
    p.add_argument("--threads", type=int, default=None,
                   help=f"worker processes (default: {THREADS_ENV} or all cores)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="score fits without knowing the truths")
    p.add_argument("model", help="model file from 'train'")
    p.add_argument("input", help="sample CSV to evaluate")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--loo", action="store_true", help="leave-one-out cross-entropy")
    p.add_argument("--return-levels", type=return_periods, default=[],
                   help="comma-separated return periods in years, e.g. 5,10,20,30")
    p.add_argument("--strata", type=size_strata, default="0,10,35,75",
                   help="comma-separated increasing size breaks b0,...,bn: strata "
                        "(-inf,b0], (b0,b1], ..., (bn,inf] (default 0,10,35,75)")
    p.add_argument("--methods", type=method_list, default="mle,map,blup,kde",
                   help="comma-separated methods, each once (default mle,map,blup,kde)")
    p.add_argument("--k", default="aic")
    p.add_argument("--k-max", type=positive_int, default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="ignored: each method's fits run as batches")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, SampleFormatError, ModelFormatError, json.JSONDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except TotalNumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
