"""Strategies for coping with noisy feedback, and a comparison harness.

Three families are implemented:

* re-rating de-noising: recursively replace repeated ratings that scatter
  more than a threshold apart,
* predictor noise: attach artificial Gaussian uncertainty to predictions so
  the rating-vs-prediction comparison averages the human part out,
* deviation omission: keep only pairs whose deviation a z-test refuses to
  attribute to the pair's rating spread, and score those.

De-noising takes its settings as plain arguments: the threshold, the
maximum number of passes, the resampler (``"median"`` or ``"redraw"``) and
the seed of the redraw policy. ``check_strategy_request`` is the one rule of
every strategy setting, and each strategy and the comparison run it. Each
strategy reports a before/after score pair and the verdict of the
shifted-floor test under the untreated dataset's floor, as the dict the
``strategies`` command prints. The omission strategy changes the metric's
denominator, so its filtered score is reported but never compared across
strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barrier import GaussianDistribution, barrier_distribution, distinguishability_test
from .errors import InputError
from .feedback import FeedbackDataset, ObservationSet, PredictionSet, fit_uncertainty
from .metrics import check_tau, rmse
from .rng import check_count, check_real, child_rng, validate_seed

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
    the scored dataset's key table."""

    retained_keys: np.ndarray
    filtered_rmse: float | None
    retained_fraction: float


def _spread(block: np.ndarray) -> np.ndarray:
    """Row ranges."""
    return block.max(axis=1) - block.min(axis=1)


def _median(block: np.ndarray) -> np.ndarray:
    """Row medians as ``statistics.median`` takes them, down to the sign of a zero.

    The mean of the two middle values is their halved sum.
    """
    ordered = np.sort(block, axis=1, kind="stable")
    mid = block.shape[1] // 2
    if block.shape[1] % 2:
        return ordered[:, mid]
    return (ordered[:, mid - 1] + ordered[:, mid]) / 2


def _farthest(block: np.ndarray, med: np.ndarray) -> np.ndarray:
    """Per row, the trial farthest from the row's median, the lowest on ties."""
    return np.abs(block - med[:, None]).argmax(axis=1)


def check_strategy_request(
    *,
    denoise_threshold: float | None = None,
    denoise_max_iterations: int = 25,
    denoise_resampler: str = "median",
    denoise_seed: int = 0,
    predictor_tau: float | None = None,
    omit_alpha: float | None = None,
) -> tuple[float | None, float | None, float | None]:
    """The one rule of every strategy setting; returns the threshold, tau and alpha.

    Each of the three is a float, or None for a strategy not requested; the
    other settings are checked all the same, before any data is read.
    """
    if denoise_threshold is not None:
        denoise_threshold = check_real(denoise_threshold, "denoise threshold", "be > 0")
    check_count(denoise_max_iterations, "max_iterations", 1)
    if denoise_resampler not in ("median", "redraw"):
        raise InputError(f"unknown resampler {denoise_resampler!r}; expected median or redraw")
    validate_seed(denoise_seed)
    if omit_alpha is not None:
        omit_alpha = check_real(omit_alpha, "alpha", "lie in (0, 1)")
    if predictor_tau is not None:
        predictor_tau = check_tau(predictor_tau)
    if denoise_threshold is None and predictor_tau is None and omit_alpha is None:
        raise InputError("no strategy requested")
    return denoise_threshold, predictor_tau, omit_alpha


def denoise_preprocess(
    obs: ObservationSet,
    truth: FeedbackDataset | None,
    threshold: float,
    *,
    max_iterations: int = 25,
    resampler: str = "median",
    seed: int = 0,
) -> DenoiseResult:
    """Recursively replace repeated ratings that scatter beyond ``threshold``.

    A group is treated while its max pairwise distance exceeds
    ``threshold``, for at most ``max_iterations`` passes; each pass removes
    the value farthest from the group median (ties to the lowest trial
    index) and replaces it per ``resampler``. Group sizes, keys and trial
    indices never change, only values. Groups of k trials are treated
    together as the rows of one (groups x k) matrix, each pass touching
    only the rows still beyond the threshold. ``"median"`` puts the group
    median in the removed slot. ``"redraw"`` resamples it from the pair's
    generating model N(mu, sigma^2) in ``truth``, with a generator per
    group derived from ``seed``, until the draw sits within ``threshold``
    of every retained value; when its attempts run out the slot falls back
    to the median and the group is flagged.
    """
    threshold, _, _ = check_strategy_request(
        denoise_threshold=threshold,
        denoise_max_iterations=max_iterations,
        denoise_resampler=resampler,
        denoise_seed=seed,
    )
    redraw = resampler == "redraw"
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
        for _ in range(max_iterations):
            active = active[_spread(block[active]) > threshold]
            if not active.size:
                break
            treated = block[active]
            med = _median(treated)
            far = _farthest(treated, med)
            if redraw:
                for j, g in enumerate(groups[active].tolist()):
                    if g not in rngs:
                        rngs[g] = child_rng(seed, g)
                    retained = treated[j].tolist()
                    del retained[far[j]]
                    m = model[g]
                    draw = _redraw(
                        rngs[g], truth.mu[m], truth.sigma[m], retained, threshold, max_iterations
                    )
                    if draw is None:
                        unconverged[g] = True
                    else:
                        med[j] = draw
            block[active, far] = med
        else:
            active = active[_spread(block[active]) > threshold]
        unconverged[groups[active]] = True
        values[rows] = block

    return DenoiseResult(
        observations=ObservationSet.from_columns(obs.keys, obs.pair, obs.trial, values),
        unconverged_keys=np.flatnonzero(unconverged),
    )


def _redraw(rng, mu: float, sigma: float, retained: list[float], threshold: float, attempts: int):
    """A draw from N(mu, sigma^2) within ``threshold`` of every retained value."""
    for _ in range(attempts):
        draw = float(rng.normal(mu, sigma))
        if all(abs(draw - r) <= threshold for r in retained):
            return draw
    return None


def omit_insignificant(
    data: FeedbackDataset, predictions: PredictionSet, alpha: float = 0.05
) -> OmissionResult:
    """Keep only deviations the pair's spread cannot explain.

    Per pair of ``data``, whose ``mu`` holds the point ratings,
    d = rating - prediction is z-tested two-sided against N(0, sigma^2)
    with the pair's own sigma; pairs with p < alpha are retained and
    scored. Pairs with sigma = 0 are retained for any nonzero deviation
    (p = 0). With nothing retained the filtered score is None, never 0.
    """
    _, _, alpha = check_strategy_request(omit_alpha=alpha)
    sigma = data.sigma
    d = data.mu - predictions.aligned(data.keys)

    p = np.ones(data.N, dtype=float)
    positive = sigma > 0
    # the two-sided normal p-value of z is erfc(z / sqrt(2)); numpy has no erfc.
    # Over a spread near 0, z is beyond float64, and p is 0.
    with np.errstate(over="ignore"):
        z = np.abs(d[positive]) / sigma[positive] * math.sqrt(0.5)
    p[positive] = np.fromiter(map(math.erfc, z.tolist()), float, count=len(z))
    p[~positive] = np.where(d[~positive] != 0.0, 0.0, 1.0)

    retained = p < alpha
    filtered = float(np.sqrt(np.mean(d[retained] ** 2))) if retained.any() else None
    return OmissionResult(
        retained_keys=np.flatnonzero(retained),
        filtered_rmse=filtered,
        retained_fraction=float(np.mean(retained)),
    )


def _expected_rmse(d: np.ndarray, sigma: np.ndarray, tau: float) -> float:
    """Root of the expected squared RMSE under the deviation law with prediction noise.

    A rating N(mu, sigma^2) compared against an independent noisy
    prediction N(pi, tau^2) deviates as N(d, sigma^2 + tau^2), d = mu - pi.
    """
    return float(np.sqrt(np.mean(d * d + sigma * sigma) + tau * tau))


def _report(
    strategy: str,
    before: float,
    after: float | None,
    floor: GaussianDistribution,
    retained_fraction: float | None = None,
    mean_deviation_variance: float | None = None,
) -> dict:
    """One row of the comparison; the verdict is None when the after-score is."""
    verdict = None if after is None else distinguishability_test(before, after, floor)
    return {
        "strategy": strategy,
        "score_before": before,
        "score_after": after,
        "retained_fraction": retained_fraction,
        "distinguishable": None if verdict is None else verdict["distinguishable"],
        "z_gap": None if verdict is None else verdict["z_gap"],
        "mean_deviation_variance": mean_deviation_variance,
    }


def run_strategy_comparison(
    predictions: PredictionSet,
    *,
    observations: ObservationSet | None = None,
    data: FeedbackDataset | None = None,
    denoise_threshold: float | None = None,
    denoise_max_iterations: int = 25,
    denoise_resampler: str = "median",
    denoise_seed: int = 0,
    predictor_tau: float | None = None,
    omit_alpha: float | None = None,
) -> list[dict]:
    """Run the requested strategies and score each against the floor test.

    ``data`` defaults to a fit of ``observations``. It is the scored dataset
    and, for the de-noising strategy's redraw policy, the generating model
    the removed ratings are drawn from; de-noising, requested by a
    ``denoise_threshold`` and run by ``denoise_preprocess`` with the other
    ``denoise_`` settings, also needs the raw observations (checked before
    any fit). Both fits, of ``observations`` and of the de-noised
    observations, use the pooled sigma fallback. Before-scores are point
    RMSE over the dataset's central tendencies, except for predictor noise
    where before/after are the expected metric at tau = 0 and tau, so that
    the tau = 0 limit is an exact identity.

    Each strategy run gives one dict, in the order denoise, predictor
    noise, omission, with the keys ``strategy``, ``score_before``,
    ``score_after``, ``retained_fraction`` (omission only),
    ``distinguishable``, ``z_gap`` (both None without an after-score) and
    ``mean_deviation_variance`` (predictor noise only).
    """
    denoise_threshold, predictor_tau, omit_alpha = check_strategy_request(
        denoise_threshold=denoise_threshold,
        denoise_max_iterations=denoise_max_iterations,
        denoise_resampler=denoise_resampler,
        denoise_seed=denoise_seed,
        predictor_tau=predictor_tau,
        omit_alpha=omit_alpha,
    )
    if observations is None:
        if data is None:
            raise InputError("need observations or a fitted dataset")
        if denoise_threshold is not None:
            raise InputError("de-noising needs raw repeated-trial observations")
    if data is None:
        data = fit_uncertainty(observations)

    floor = barrier_distribution(data)
    score_point = rmse(predictions, data)

    reports: list[dict] = []

    if denoise_threshold is not None:
        result = denoise_preprocess(
            observations,
            data,
            denoise_threshold,
            max_iterations=denoise_max_iterations,
            resampler=denoise_resampler,
            seed=denoise_seed,
        )
        refit = fit_uncertainty(result.observations)
        reports.append(_report("denoise", score_point, rmse(predictions, refit), floor))

    if predictor_tau is not None:
        d = data.mu - predictions.aligned(data.keys)
        sigma = data.sigma
        before = _expected_rmse(d, sigma, 0.0)
        after = _expected_rmse(d, sigma, predictor_tau)
        variance = float(np.mean(sigma * sigma) + predictor_tau**2)
        reports.append(
            _report("predictor_noise", before, after, floor, mean_deviation_variance=variance)
        )

    if omit_alpha is not None:
        result = omit_insignificant(data, predictions, omit_alpha)
        reports.append(
            _report(
                "omission", score_point, result.filtered_rmse, floor,
                retained_fraction=result.retained_fraction,
            )
        )

    return reports
