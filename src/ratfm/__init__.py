"""Retrieval-augmented forecast-based time-series anomaly detection.

The pipeline: retrieve a similar same-domain example window by
normalized cross-correlation, condition a forecaster on
[example input, example future, target input], score each test point by
its absolute forecast deviation, smooth the scores with a trailing
moving average sized by the series' estimated period, and evaluate with
point-wise F1 plus threshold-free VUS-ROC / VUS-PR.
"""

from .dataset import (
    LabeledSeries,
    StandardizationParams,
    Window,
    load_dataset,
    make_windows,
    parse_ucr_file,
    standardize,
)
from .forecast import (
    Budget,
    ContextWindow,
    ExampleCopyForecaster,
    Forecaster,
    LinearForecaster,
    SeasonalNaiveForecaster,
    assemble_context,
    forecast,
    train_linear,
    zero_shot_context,
)
from .harness import (
    SETTINGS,
    ExperimentConfig,
    SimilarityDiagnostics,
    emit_reports,
    prepare_run,
    run_setting,
    similarity_diagnostics,
    sweep_pool_fraction,
)
from .metrics import (
    EvalReport,
    GroundTruth,
    auc_weighted,
    bootstrap,
    continuous_labels,
    pointwise_prf,
    vus,
)
from .retrieval import (
    CandidatePool,
    SimilarityResult,
    ncc_max,
    retrieve_best,
    subsample_pool,
)
from .scoring import (
    PeriodEstimate,
    anomaly_scores,
    estimate_period,
    sma_smooth,
    threshold_labels,
)
from .synth import DomainTemplate, SynthSpec, generate_synthetic, write_synthetic

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "CandidatePool",
    "ContextWindow",
    "DomainTemplate",
    "EvalReport",
    "ExampleCopyForecaster",
    "ExperimentConfig",
    "Forecaster",
    "GroundTruth",
    "LabeledSeries",
    "LinearForecaster",
    "PeriodEstimate",
    "SeasonalNaiveForecaster",
    "SETTINGS",
    "SimilarityDiagnostics",
    "SimilarityResult",
    "StandardizationParams",
    "SynthSpec",
    "Window",
    "anomaly_scores",
    "assemble_context",
    "auc_weighted",
    "bootstrap",
    "continuous_labels",
    "emit_reports",
    "estimate_period",
    "forecast",
    "generate_synthetic",
    "load_dataset",
    "make_windows",
    "ncc_max",
    "parse_ucr_file",
    "pointwise_prf",
    "prepare_run",
    "retrieve_best",
    "run_setting",
    "similarity_diagnostics",
    "sma_smooth",
    "standardize",
    "subsample_pool",
    "sweep_pool_fraction",
    "threshold_labels",
    "train_linear",
    "vus",
    "write_synthetic",
    "zero_shot_context",
]
