"""Oracles the tests check the package against; no command runs them.

Each one computes, by a route independent of the instrument it checks, a
quantity the instrument must reproduce: the Monte Carlo metric variance
against the closed-form floor, the fitted spreads against the generating
ones, and the per-pair deviation law against the predictor-noise row.
"""

import math

import numpy as np

from uncertain_eval import (
    FeedbackDataset,
    GaussianDistribution,
    InputError,
    McConfig,
    PopulationSpec,
    PredictionSet,
    barrier_distribution,
    draw_trials,
    fit_uncertainty,
    generate_population,
    rmse_distribution,
)
from uncertain_eval.metrics import check_tau
from uncertain_eval.rng import check_count, check_real


def variance_match_check(data: FeedbackDataset, cfg: McConfig) -> float:
    """Relative gap between the Monte Carlo metric variance and the floor.

    Predictions are pinned to mu internally, so the sampled deviations are
    pure rating noise. Returns |Var_MC - Var_floor| / Var_floor; the match
    only becomes tight for large datasets, small ones simply report a large
    value.
    """
    floor = barrier_distribution(data).variance
    if floor == 0.0:
        raise InputError("variance match is undefined for an all-zero-sigma dataset")
    predictions = PredictionSet.from_columns(data.keys, np.arange(data.N), data.mu)
    mc = rmse_distribution(data, predictions, cfg)
    return abs(mc.variance - floor) / floor


def fit_roundtrip_check(spec: PopulationSpec, k: int) -> float:
    """Generate, draw continuous trials, re-fit: the worst relative sigma error.

    Only pairs with a true sigma of at least 0.1 enter the comparison; with
    nothing above that floor the error is defined as 0. Small k gives large
    errors, which are reported, not asserted.
    """
    k = check_count(k, "trials per pair", 2)
    truth, _ = generate_population(spec)
    obs = draw_trials(truth, k=k, seed=spec.seed)
    fitted = fit_uncertainty(obs)

    sigma_true = truth.sigma[fitted.keys.locate(truth.keys, "no generating model")]
    compared = sigma_true >= 0.1
    errors = np.abs(fitted.sigma[compared] - sigma_true[compared]) / sigma_true[compared]
    return float(errors.max()) if errors.size else 0.0


def predictor_noise_deviation(
    mu: float, sigma: float, prediction: float, tau: float
) -> GaussianDistribution:
    """Law of the rating-minus-prediction deviation with prediction noise.

    A rating N(mu, sigma^2) compared against an independent noisy
    prediction N(pi, tau^2) deviates as N(mu - pi, sigma^2 + tau^2).
    """
    mu = check_real(mu, "mu")
    sigma = check_real(sigma, "sigma", "be finite and >= 0")
    prediction = check_real(prediction, "prediction")
    tau = check_tau(tau)
    if not math.isfinite(sigma * sigma):
        raise InputError(f"sigma squared must be finite, got sigma = {sigma}")
    mean, variance = mu - prediction, sigma**2 + tau**2
    if not math.isfinite(mean):
        raise InputError(f"mu - prediction overflows float64: mu = {mu}, prediction = {prediction}")
    if not math.isfinite(variance):
        raise InputError(f"sigma^2 + tau^2 overflows float64: sigma = {sigma}, tau = {tau}")
    return GaussianDistribution(mean=mean, variance=variance)
