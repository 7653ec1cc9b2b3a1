"""Density estimation for many related subpopulations.

Trains a low-dimensional exponential family from the principal modes of
variation of log-densities across amply sampled subpopulations, then fits
new, possibly tiny samples inside that family by maximum likelihood or by
shrinkage toward the population (posterior mode or best linear unbiased
prediction in moment coordinates).
"""

__version__ = "0.1.0"

from .estimators import (
    FitResult,
    ShrinkageStats,
    fit,
    fit_blup,
    fit_map,
    fit_mle,
    select_k_aic,
    shrinkage_stats,
)
from .expfam import (
    FamilyModel,
    ModelMeta,
    density,
    fisher_info,
    log_normalizer,
    moment_map,
    natural_from_moment,
    suffstat_average,
    train_family,
)
from .fpca import EigenSystem, fit_fpca, project_scores
from .grid import Domain, GridFn, inner, integrate, quantile_of_density
from .logmap import LogDensityFn, clog_inverse, clog_transform
from .logscale import (
    ScaledModel,
    density_original_scale,
    fit_original_scale,
    fit_scaled,
)
from .metrics import EvalReport, kl_div, loo_cross_entropy, mean_kl, return_level
from .modelio import load_model, read_samples_csv, save_model, write_samples_csv
from .presmooth import (
    KdeConfig,
    SubpopSample,
    median_bandwidth,
    silverman_bandwidth,
    weighted_kde,
)
from .simgen import ScenarioSpec, default_spec, generate, sample_from_density

__all__ = [
    "Domain",
    "EigenSystem",
    "EvalReport",
    "FamilyModel",
    "FitResult",
    "GridFn",
    "KdeConfig",
    "LogDensityFn",
    "ModelMeta",
    "ScaledModel",
    "ScenarioSpec",
    "ShrinkageStats",
    "SubpopSample",
    "clog_inverse",
    "clog_transform",
    "default_spec",
    "density",
    "density_original_scale",
    "fisher_info",
    "fit",
    "fit_blup",
    "fit_fpca",
    "fit_map",
    "fit_mle",
    "fit_original_scale",
    "fit_scaled",
    "generate",
    "inner",
    "integrate",
    "kl_div",
    "load_model",
    "log_normalizer",
    "loo_cross_entropy",
    "mean_kl",
    "median_bandwidth",
    "moment_map",
    "natural_from_moment",
    "project_scores",
    "quantile_of_density",
    "read_samples_csv",
    "return_level",
    "sample_from_density",
    "save_model",
    "select_k_aic",
    "shrinkage_stats",
    "silverman_bandwidth",
    "suffstat_average",
    "train_family",
    "weighted_kde",
    "write_samples_csv",
]
