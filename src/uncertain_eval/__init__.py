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
    GaussianDistribution,
    barrier_distribution,
    confidence_interval,
    distinguishability_test,
    relation_test,
)
from .errors import InputError
from .feedback import (
    FeedbackDataset,
    KeyTable,
    ObservationSet,
    PredictionSet,
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
)
from .simulate import (
    PopulationSpec,
    RatingScale,
    draw_trials,
    generate_population,
)
from .strategies import (
    DenoiseResult,
    OmissionResult,
    denoise_preprocess,
    omit_insignificant,
    run_strategy_comparison,
)

__all__ = [
    "__version__",
    "InputError",
    "RatingScale",
    "KeyTable",
    "ObservationSet",
    "UncertainFeedback",
    "FeedbackDataset",
    "PredictionSet",
    "fit_uncertainty",
    "pooled_sigma",
    "GaussianDistribution",
    "barrier_distribution",
    "confidence_interval",
    "distinguishability_test",
    "relation_test",
    "Z_TWO_SIDED_95",
    "RELATION_ALPHA",
    "McConfig",
    "MetricScoreDistribution",
    "CHUNK_SIZE",
    "rmse",
    "rmse_distribution",
    "resolve_thread_count",
    "DenoiseResult",
    "OmissionResult",
    "denoise_preprocess",
    "omit_insignificant",
    "run_strategy_comparison",
    "PopulationSpec",
    "generate_population",
    "draw_trials",
]
