"""Evaluation of accuracy metrics under human rating uncertainty.

Repeated user feedback scatters; this package models that scatter as
per-pair Gaussians, derives the resulting noise floor of RMSE, tests
whether two metric scores are statistically distinguishable under it, and
reproduces the standard uncertainty-handling strategies (de-noising,
predictor noise, deviation omission) on synthetic data.
"""

__version__ = "0.1.0"

from .barrier import (
    RELATION_ALPHA,
    Z_TWO_SIDED_95,
    DistinguishabilityResult,
    GaussianDistribution,
    RelationResult,
    barrier_distribution,
    confidence_interval,
    distinguishability_report,
    distinguishability_test,
    relation_test,
)
from .errors import InputError, UnavailableError
from .feedback import (
    FeedbackDataset,
    FeedbackKey,
    KeyTable,
    ObservationSet,
    PredictionSet,
    SigmaFallback,
    SigmaFallbackPolicy,
    UncertainFeedback,
    fit_uncertainty,
    pooled_sigma,
)
from .metrics import (
    CHUNK_SIZE,
    McConfig,
    MetricScoreDistribution,
    resolve_thread_count,
    rmse,
    rmse_distribution,
    variance_match_check,
)
from .simulate import (
    GroundTruth,
    PopulationSpec,
    RatingScale,
    draw_trials,
    fit_roundtrip_check,
    generate_population,
    histogram,
)
from .strategies import (
    DenoiseConfig,
    DenoiseResult,
    OmissionConfig,
    OmissionResult,
    Resampler,
    StrategyReport,
    denoise_preprocess,
    omit_insignificant,
    predictor_noise_deviation,
    run_strategy_comparison,
)

__all__ = [
    "__version__",
    "InputError",
    "UnavailableError",
    "RatingScale",
    "FeedbackKey",
    "KeyTable",
    "ObservationSet",
    "UncertainFeedback",
    "FeedbackDataset",
    "PredictionSet",
    "SigmaFallback",
    "SigmaFallbackPolicy",
    "fit_uncertainty",
    "pooled_sigma",
    "GaussianDistribution",
    "DistinguishabilityResult",
    "RelationResult",
    "barrier_distribution",
    "confidence_interval",
    "distinguishability_test",
    "distinguishability_report",
    "relation_test",
    "Z_TWO_SIDED_95",
    "RELATION_ALPHA",
    "McConfig",
    "MetricScoreDistribution",
    "CHUNK_SIZE",
    "rmse",
    "rmse_distribution",
    "variance_match_check",
    "resolve_thread_count",
    "DenoiseConfig",
    "DenoiseResult",
    "OmissionConfig",
    "OmissionResult",
    "Resampler",
    "StrategyReport",
    "denoise_preprocess",
    "predictor_noise_deviation",
    "omit_insignificant",
    "run_strategy_comparison",
    "PopulationSpec",
    "GroundTruth",
    "generate_population",
    "draw_trials",
    "histogram",
    "fit_roundtrip_check",
]
