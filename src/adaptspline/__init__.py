"""Locally adaptive smoothing splines driven by multiscale residual tests.

The estimator minimizes a per-observation weighted squared error plus the
integrated squared second derivative.  Weights start tiny (the fit is the
least squares line) and grow multiplicatively on the intervals where a
multiscale residual statistic rejects the fit, until the fit enters the
noise confidence region; a companion run with a single shared weight
provides the classic one-parameter smoothing family as a fallback, and
the smoother accepted fit wins.  Robust (running-median cleaned) and
heteroscedastic-scale variants reuse the same machinery.
"""

from .adapt import AdaptConfig, FitReport, TraceEntry, fit, fit_global, fit_local
from .bench import (
    SIGMA_PRESETS,
    StudyConfig,
    TestFunction,
    bumps,
    custom_function,
    make_dataset,
    mrise_study,
    rise,
    rupcar,
    sine,
    study_preset,
    study_rows_to_csv,
    study_rows_to_json,
)
from .multiscale import (
    IntervalFamily,
    RegionReport,
    RegionSpec,
    all_w_stats,
    calibrate_tau,
    dyadic_family,
    in_region,
    min_detectable_delta,
    sigma_hat,
    w_stat,
)
from .splines import (
    PenaltyMatrix,
    Sample,
    SplineFit,
    SplineSystem,
    affine_fit,
    build_penalty,
    check_weights,
    evaluate,
    prepare_system,
    roughness_of,
    solve_weighted,
)
from .variants import (
    ScaleFit,
    ScaleRegionSpec,
    chisq_quantile,
    clean_outliers,
    scale_fit,
    v_stat,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptConfig",
    "FitReport",
    "IntervalFamily",
    "PenaltyMatrix",
    "RegionReport",
    "RegionSpec",
    "Sample",
    "ScaleFit",
    "ScaleRegionSpec",
    "SplineFit",
    "SplineSystem",
    "StudyConfig",
    "TestFunction",
    "TraceEntry",
    "SIGMA_PRESETS",
    "affine_fit",
    "all_w_stats",
    "build_penalty",
    "bumps",
    "calibrate_tau",
    "check_weights",
    "chisq_quantile",
    "clean_outliers",
    "custom_function",
    "dyadic_family",
    "evaluate",
    "fit",
    "fit_global",
    "fit_local",
    "in_region",
    "make_dataset",
    "min_detectable_delta",
    "mrise_study",
    "prepare_system",
    "rise",
    "roughness_of",
    "rupcar",
    "scale_fit",
    "sigma_hat",
    "sine",
    "solve_weighted",
    "study_preset",
    "study_rows_to_csv",
    "study_rows_to_json",
    "v_stat",
    "w_stat",
]
