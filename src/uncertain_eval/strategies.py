"""Strategies for coping with noisy feedback, and a comparison harness.

Three families are implemented:

* re-rating de-noising: recursively replace repeated ratings that scatter
  more than a threshold apart,
* predictor noise: attach artificial Gaussian uncertainty to predictions so
  the rating-vs-prediction comparison averages the human part out,
* deviation omission: keep only pairs whose deviation a z-test refuses to
  attribute to the pair's rating spread, and score those.

Each strategy reports a before/after score pair and the verdict of the
shifted-floor test under the untreated dataset's floor. The omission
strategy changes the metric's denominator, so its filtered score is
reported but never compared across strategies.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .barrier import (
    DistinguishabilityResult,
    GaussianDistribution,
    barrier_distribution,
    distinguishability_test,
)
from .errors import InputError
from .feedback import (
    FeedbackDataset,
    ObservationSet,
    PredictionSet,
    check_feedback,
    check_prediction,
    fit_uncertainty,
)
from .metrics import check_tau, rmse
from .rng import child_rng, validate_seed

# Elementwise complementary error function (numpy has none): the two-sided
# normal p-value of z is erfc(z / sqrt(2)).
_erfc = np.frompyfunc(math.erfc, 1, 1)


class Resampler(enum.Enum):
    REPLACE_WITH_MEDIAN = "median"
    REDRAW_FROM_MODEL = "redraw"


@dataclass(frozen=True, slots=True)
class DenoiseConfig:
    """Threshold-based re-rating replacement.

    A group is treated while its max pairwise distance exceeds
    ``threshold``; each pass removes the value farthest from the group
    median (ties to the lowest trial index) and replaces it per
    ``resampler``. ``seed`` feeds the redraw policy's per-group generators.
    """

    threshold: float
    max_iterations: int = 25
    resampler: Resampler = Resampler.REPLACE_WITH_MEDIAN
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.threshold > 0:
            raise InputError(f"denoise threshold must be > 0, got {self.threshold}")
        if self.max_iterations < 1:
            raise InputError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        validate_seed(self.seed)


@dataclass(frozen=True, slots=True)
class DenoiseResult:
    """Denoised observations plus the groups that could not be tamed.

    ``unconverged_keys`` holds, sorted, the position in the observations'
    key table of each pair whose redraw policy exhausted its attempts (the
    median fallback was used for that slot) or whose group still exceeds
    the threshold after the final pass.
    """

    observations: ObservationSet
    unconverged_keys: np.ndarray


@dataclass(frozen=True, slots=True)
class OmissionResult:
    """``retained_keys`` holds, sorted, the position of each retained pair in
    the point ratings' key table."""

    retained_keys: np.ndarray
    filtered_rmse: float | None
    retained_fraction: float


@dataclass(frozen=True, slots=True)
class StrategyReport:
    """Before/after scores of one strategy plus the floor-test verdict.

    ``retained_fraction`` is set only for the omission strategy and
    ``mean_deviation_variance`` only for predictor noise; ``verdict`` is
    None when the after-score is unavailable.
    """

    strategy: str
    score_before: float
    score_after: float | None
    retained_fraction: float | None
    verdict: DistinguishabilityResult | None
    mean_deviation_variance: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "score_before": self.score_before,
            "score_after": self.score_after,
            "retained_fraction": self.retained_fraction,
            "distinguishable": (
                self.verdict.distinguishable if self.verdict is not None else None
            ),
            "z_gap": self.verdict.z_gap if self.verdict is not None else None,
            "mean_deviation_variance": self.mean_deviation_variance,
        }


def _spread(block: np.ndarray) -> np.ndarray:
    return block.max(axis=1) - block.min(axis=1)


def _median(block: np.ndarray) -> np.ndarray:
    """Row medians as ``statistics.median`` takes them, down to the sign of a zero."""
    ordered = np.sort(block, axis=1, kind="stable")
    mid = block.shape[1] // 2
    return ordered[:, mid] if block.shape[1] % 2 else (ordered[:, mid - 1] + ordered[:, mid]) / 2


def denoise_preprocess(
    obs: ObservationSet,
    truth: FeedbackDataset | None,
    cfg: DenoiseConfig,
) -> DenoiseResult:
    """Recursively replace repeated ratings that scatter beyond a threshold.

    Group sizes, keys and trial indices never change, only values. Groups
    of k trials are treated together as the rows of one (groups x k)
    matrix, each pass touching only the rows still beyond the threshold.
    The redraw policy resamples the removed slot from the pair's generating
    model N(mu, sigma^2) until the draw sits within ``cfg.threshold`` of
    every retained value; when its attempts run out the slot falls back to
    the median and the group is flagged.
    """
    redraw = cfg.resampler is Resampler.REDRAW_FROM_MODEL
    if redraw:
        if truth is None:
            raise InputError("redraw-from-model resampling needs the generating model")
        model = obs.keys.locate(truth.keys, "no generating model")

    values = obs.value.copy()
    unconverged = np.zeros(len(obs.keys), dtype=bool)
    rngs: dict[int, np.random.Generator] = {}
    for groups, rows in obs.blocks():
        block = values[rows]
        active = np.arange(len(groups))
        for _ in range(cfg.max_iterations):
            active = active[_spread(block[active]) > cfg.threshold]
            if not active.size:
                break
            treated = block[active]
            med = _median(treated)
            far = np.argmax(np.abs(treated - med[:, None]), axis=1)
            if redraw:
                for j, g in enumerate(groups[active].tolist()):
                    if g not in rngs:
                        rngs[g] = child_rng(cfg.seed, g)
                    retained = np.delete(treated[j], far[j])
                    m = model[g]
                    draw = _redraw(rngs[g], truth.mu[m], truth.sigma[m], retained, cfg)
                    if draw is None:
                        unconverged[g] = True
                    else:
                        med[j] = draw
            block[active, far] = med
        else:
            active = active[_spread(block[active]) > cfg.threshold]
        unconverged[groups[active]] = True
        values[rows] = block

    return DenoiseResult(
        observations=ObservationSet.from_columns(obs.keys, obs.pair, obs.trial, values),
        unconverged_keys=np.flatnonzero(unconverged),
    )


def _redraw(rng, mu: float, sigma: float, retained: np.ndarray, cfg: DenoiseConfig):
    """A draw from N(mu, sigma^2) within the threshold of every retained value."""
    for _ in range(cfg.max_iterations):
        draw = float(rng.normal(mu, sigma))
        if np.all(np.abs(draw - retained) <= cfg.threshold):
            return draw
    return None


def predictor_noise_deviation(
    mu: float, sigma: float, prediction: float, tau: float
) -> GaussianDistribution:
    """Law of the rating-minus-prediction deviation with prediction noise.

    A rating N(mu, sigma^2) compared against an independent noisy
    prediction N(pi, tau^2) deviates as N(mu - pi, sigma^2 + tau^2).
    """
    check_feedback(mu, sigma)
    check_prediction(prediction)
    check_tau(tau)
    return GaussianDistribution(mean=mu - prediction, variance=sigma**2 + tau**2)


def check_alpha(alpha: float) -> None:
    """Reject an omission level outside (0, 1)."""
    if not (0.0 < alpha < 1.0):
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")


def omit_insignificant(
    data: FeedbackDataset,
    predictions: PredictionSet,
    point_ratings: FeedbackDataset,
    alpha: float = 0.05,
) -> OmissionResult:
    """Keep only deviations the pair's spread cannot explain.

    Per pair of ``point_ratings``, whose ``mu`` holds the ratings,
    d = rating - prediction is z-tested two-sided against N(0, sigma^2)
    with the pair's sigma from ``data``; pairs with p < alpha are retained
    and scored. Pairs with sigma = 0 are retained for any nonzero deviation
    (p = 0). With nothing retained the filtered score is None, never 0.
    """
    check_alpha(alpha)
    keys = point_ratings.keys
    sigma = data.sigma[keys.locate(data.keys, "no feedback entry")]
    d = point_ratings.mu - predictions.aligned(keys)

    p = np.ones(len(keys), dtype=float)
    positive = sigma > 0
    p[positive] = _erfc(np.abs(d[positive]) / sigma[positive] * math.sqrt(0.5))
    p[~positive] = np.where(d[~positive] != 0.0, 0.0, 1.0)

    retained = p < alpha
    if retained.any():
        filtered = float(np.sqrt(np.mean(d[retained] ** 2)))
    else:
        filtered = None
    return OmissionResult(
        retained_keys=np.flatnonzero(retained),
        filtered_rmse=filtered,
        retained_fraction=float(np.mean(retained)),
    )


def check_strategy_request(
    denoise: DenoiseConfig | None,
    predictor_tau: float | None,
    omit_alpha: float | None,
) -> None:
    """Reject a comparison with no strategy, a bad alpha or a bad tau, before any data is read."""
    if omit_alpha is not None:
        check_alpha(omit_alpha)
    if predictor_tau is not None:
        check_tau(predictor_tau)
    if denoise is None and predictor_tau is None and omit_alpha is None:
        raise InputError("no strategy requested")


def _expected_rmse(d: np.ndarray, sigma: np.ndarray, tau: float) -> float:
    # sqrt of the expected squared metric; exact for the Gaussian deviation law
    return float(np.sqrt(np.mean(d * d + sigma * sigma) + tau * tau))


def run_strategy_comparison(
    predictions: PredictionSet,
    *,
    observations: ObservationSet | None = None,
    data: FeedbackDataset | None = None,
    denoise: DenoiseConfig | None = None,
    predictor_tau: float | None = None,
    omit_alpha: float | None = None,
) -> list[StrategyReport]:
    """Run the requested strategies and score each against the floor test.

    ``data`` defaults to a fit of ``observations``. It is the scored dataset
    and, for the de-noising strategy's redraw policy, the generating model
    the removed ratings are drawn from; de-noising also needs the raw
    observations. Both fits, of ``observations`` and of the de-noised
    observations, use the pooled sigma fallback. Before-scores are point
    RMSE over the dataset's central tendencies, except for predictor noise
    where before/after are the expected metric at tau = 0 and tau, so that
    the tau = 0 limit is an exact identity.
    """
    check_strategy_request(denoise, predictor_tau, omit_alpha)
    if data is None:
        if observations is None:
            raise InputError("need observations or a fitted dataset")
        data = fit_uncertainty(observations)

    floor = barrier_distribution(data)
    score_point = rmse(predictions, data)

    reports: list[StrategyReport] = []

    if denoise is not None:
        if observations is None:
            raise InputError("de-noising needs raw repeated-trial observations")
        result = denoise_preprocess(observations, data, denoise)
        refit = fit_uncertainty(result.observations)
        score_after = rmse(predictions, refit)
        reports.append(
            StrategyReport(
                strategy="denoise",
                score_before=score_point,
                score_after=score_after,
                retained_fraction=None,
                verdict=distinguishability_test(score_point, score_after, floor),
            )
        )

    if predictor_tau is not None:
        d = data.mu - predictions.aligned(data.keys)
        sigma = data.sigma
        before = _expected_rmse(d, sigma, 0.0)
        after = _expected_rmse(d, sigma, predictor_tau)
        reports.append(
            StrategyReport(
                strategy="predictor_noise",
                score_before=before,
                score_after=after,
                retained_fraction=None,
                verdict=distinguishability_test(before, after, floor),
                mean_deviation_variance=float(
                    np.mean(sigma * sigma) + predictor_tau**2
                ),
            )
        )

    if omit_alpha is not None:
        result = omit_insignificant(data, predictions, data, omit_alpha)
        verdict = (
            distinguishability_test(score_point, result.filtered_rmse, floor)
            if result.filtered_rmse is not None
            else None
        )
        reports.append(
            StrategyReport(
                strategy="omission",
                score_before=score_point,
                score_after=result.filtered_rmse,
                retained_fraction=result.retained_fraction,
                verdict=verdict,
            )
        )

    return reports
