"""Replicated benchmark runs: generate, train, fit, and score.

One replication draws fresh training and testing populations, trains the
family on the training samples, fits every testing sample with the
requested methods plus a per-sample KDE baseline, and scores each fit by KL
divergence against the known truth.  Each method's fits are scored in
blocks: one stacked density call per block of rows of one truncation, and
one kernel sum per stack of equal-size samples for the KDE baseline, each
sample with its own bandwidth; the divergences are taken row by row.
Replications run in order in the calling process, each seeded from the
master seed and its index.  The CLI writes each replication's files as soon
as it is scored and keeps only its MKL, so its memory does not grow with the
replication count.  Under the CLI the scores repeat bit for bit whatever
``OPENBLAS_NUM_THREADS`` says; a program that imported numpy before repden
keeps its BLAS thread count, which training's FPCA depends on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .estimators import FAMILY_METHODS, fit, prepare
from .expfam import density, train_family
from .grid import GridFn
from .metrics import kl_div
from .presmooth import SubpopSample, silverman_kdes
from .simgen import ScenarioSpec, generate, scenario_domain, smallest_size


@dataclass(frozen=True)
class RepOutcome:
    """One replication: per-method MKL and selected truncations, with the
    training samples and the testing samples and truths they came from."""

    mkl: dict[str, float]
    selected_k: dict[str, tuple[int, ...]]
    train: list[SubpopSample]
    test: list[tuple[SubpopSample, GridFn]]


def rep_seed(master_seed: int, rep: int) -> int:
    """A stable per-replication seed derived from the master seed."""
    ss = np.random.SeedSequence([int(master_seed), int(rep)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _mean_kl(truths: list[GridFn], blocks) -> float:
    """The mean KL divergence from each truth to its fit, with the fits as
    ``(rows, domain, values)`` blocks in any order; one :func:`kl_div` per
    row, and the first row in order whose divergence fails raises its error."""
    kl = np.empty(len(truths))
    failed = {}
    for rows, dom, values in blocks:
        for i, v in zip(rows.tolist(), values):
            try:
                kl[i] = kl_div(truths[i], GridFn(dom, v))
            except ValueError as exc:
                failed[i] = exc
    if failed:
        raise failed[min(failed)]
    return float(kl.mean())


def run_replication(
    spec: ScenarioSpec,
    rep: int,
    k_max: int,
    n_grid: int = 512,
    methods: tuple[str, ...] = FAMILY_METHODS,
    kde_baseline: bool = True,
    bandwidth: float | None = None,
) -> RepOutcome:
    # a one-observation sample has no rule-of-thumb bandwidth; fail here,
    # not after generating and training
    needs_two = [("train_size", spec.train_size)]
    if kde_baseline:
        needs_two.append(("test_size", spec.test_size))
    for name, size in needs_two:
        if smallest_size(size) < 2:
            raise ValueError(f"{name} must be at least 2 to fit, got {size}")
    seeded = replace(spec, seed=rep_seed(spec.seed, rep))
    train, test = generate(seeded, n_grid=n_grid)
    domain = scenario_domain(spec.kind, n_grid)
    model = train_family(train, domain, k_max, bandwidth=bandwidth)
    sweep_k = min(k_max, model.n_components)

    truths = [truth for _, truth in test]
    batch = prepare(model, [sample.obs for sample, _ in test], sweep_k)[0]  # once for all methods
    mkl: dict[str, float] = {}
    ks: dict[str, tuple[int, ...]] = {}
    for method in methods:
        fits = fit(model, batch, method, k_max=sweep_k)
        if not fits.k.all():
            raise next(filter(None, fits.errors))
        mkl[method] = _mean_kl(truths, ((rows, *density(model, theta))
                                        for rows, theta in fits.blocks()))
        ks[method] = tuple(fits.k.tolist())
    if kde_baseline:
        mkl["kde"] = _mean_kl(truths, silverman_kdes([sample for sample, _ in test], domain))
        ks["kde"] = (0,) * len(test)

    return RepOutcome(
        mkl=mkl,
        selected_k=ks,
        train=train,
        test=test,
    )


def run_scenario(
    spec: ScenarioSpec,
    reps: int,
    k_max: int,
    n_grid: int = 512,
    methods: tuple[str, ...] = FAMILY_METHODS,
    kde_baseline: bool = True,
    bandwidth: float | None = None,
    threads: int = 1,
) -> list[RepOutcome]:
    """All replications, in order of their index, each with its data.

    The list holds every replication's samples; a caller that keeps only
    scores loops over :func:`run_replication` instead, as the CLI does.
    ``threads`` is accepted for compatibility and ignored.
    """
    return [run_replication(spec, rep, k_max, n_grid=n_grid, methods=methods,
                            kde_baseline=kde_baseline, bandwidth=bandwidth)
            for rep in range(reps)]
