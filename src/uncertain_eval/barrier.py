"""Noise floor of accuracy metrics and score-distinguishability tests.

Per-pair rating spread puts a non-vanishing floor under accuracy metrics:
even a perfect predictor scores worse than zero RMSE because the ratings it
is judged against are themselves random. For a dataset of N pairs with
spreads sigma_i the floor is approximately Gaussian with

    mean     = sqrt(sum(sigma_i^2) / N)
    variance = sum(sigma_i^4) / (2 * N * sum(sigma_i^2))

``barrier_distribution`` returns this floor as a ``GaussianDistribution``,
the same type ``relation_test`` compares. Two instruments compare metric
scores under this uncertainty, and each returns its verdict as a dict:

* ``distinguishability_test`` recentres the floor distribution at the
  midpoint of two observed scores and asks whether both fall inside its 95%
  interval. If they do, a single metric distribution explains both outcomes
  and the difference is not significant. Its dict is the one the
  ``distinguish`` command prints.
* ``relation_test`` treats the two scores as independent Gaussian random
  variables and accepts "first below second" only when the opposite
  ordering has probability below 5%: ``{"p_opposite": p, "holds": p < 0.05}``.

The instruments differ in stringency: with equal variances the
distinguishability threshold on |s1 - s2| is 2 * 1.959964 * std, while the
relation test flips at 1.644854 * sqrt(2) * std, a factor of about 1.68
lower. Every distinguishable pair therefore also satisfies the relation
test in the ordered direction, but not vice versa.

The standard normal cdf is ``0.5 * math.erfc(-z / sqrt(2))``, which keeps
its relative accuracy in the far left tail. The one quantile, the
two-sided 95% one, is pinned to the correctly rounded double (scipy's
``norm.ppf(0.975)``): a quantile one ulp lower would move the interval
bounds that ``distinguish`` reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .feedback import FeedbackDataset
from .rng import check_real

# Exact two-sided 95% normal quantile (1.959964 to six decimals, not 1.96),
# pinned; see the module docstring.
Z_TWO_SIDED_95 = 1.959963984540054

RELATION_ALPHA = 0.05


@dataclass(frozen=True, slots=True)
class GaussianDistribution:
    mean: float
    variance: float

    def __post_init__(self) -> None:
        for name, rule in (("mean", "be finite"), ("variance", "be finite and >= 0")):
            object.__setattr__(self, name, check_real(getattr(self, name), name, rule))

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


def barrier_distribution(data: FeedbackDataset) -> GaussianDistribution:
    """Gaussian noise floor of RMSE for the dataset's per-pair spreads.

    All-zero spreads yield the degenerate Gaussian (0, 0), which downstream
    tests treat as classical point comparison.
    """
    sigmas = data.sigma
    n = data.N
    sum_sq = float(np.sum(sigmas**2))
    sum_fourth = float(np.sum(sigmas**4))
    mean = math.sqrt(sum_sq / n)
    variance = (sum_fourth / sum_sq) / (2.0 * n) if sum_sq > 0 else 0.0
    return GaussianDistribution(mean=mean, variance=variance)


def confidence_interval(g: GaussianDistribution) -> tuple[float, float]:
    """Two-sided 95% interval ``mean +- Z_TWO_SIDED_95 * std``.

    Its quantile is the one the distinguishability verdict uses, so
    interval and verdict agree.
    """
    margin = Z_TWO_SIDED_95 * g.std
    return (g.mean - margin, g.mean + margin)


def distinguishability_test(s1: float, s2: float, floor: GaussianDistribution) -> dict:
    """Shift the noise floor to the score midpoint and test 95% coverage.

    The verdict is computed from the single closed form
    |s1 - s2| > 2 * z * std, with ``z_gap`` = |s1 - s2| / (2 * std); the
    interval ``ci_low``, ``ci_high`` is ``confidence_interval`` of the shifted
    floor, with the same z and std, so verdict and coverage cannot disagree
    at boundaries. Midpoint and gap are taken in halves, so any two finite
    scores have both. A degenerate floor (std = 0)
    distinguishes any two unequal scores, with an infinite z_gap. The
    dict's keys, in order: ``s1``, ``s2``, ``barrier_mean``,
    ``barrier_variance``, ``shift_mean``, ``ci_low``, ``ci_high``,
    ``distinguishable``, ``z_gap``.
    """
    s1 = check_real(s1, "s1")
    s2 = check_real(s2, "s2")
    shift = s1 / 2 + s2 / 2
    std = floor.std
    ci_low, ci_high = confidence_interval(GaussianDistribution(shift, floor.variance))
    if std == 0.0:
        z_gap = 0.0 if s1 == s2 else math.inf
    else:
        z_gap = abs(s1 / 2 - s2 / 2) / std
    return {
        "s1": s1,
        "s2": s2,
        "barrier_mean": floor.mean,
        "barrier_variance": floor.variance,
        "shift_mean": shift,
        "ci_low": ci_low,
        "ci_high": ci_high,
        "distinguishable": z_gap > Z_TWO_SIDED_95,
        "z_gap": z_gap,
    }


def relation_test(S1: GaussianDistribution, S2: GaussianDistribution) -> dict:
    """Accept S1 < S2 when P(S1 >= S2) < 5% for independent Gaussians.

    Independence is assumed; no joint law of the two scores is available.
    Two point masses at the same value give p = 0.5 and a negative verdict.
    Gap and variance sum are taken in halves, so any two laws have both.
    """
    if S1.variance + S2.variance == 0.0:
        if S1.mean == S2.mean:
            p_opposite = 0.5
        else:
            p_opposite = 0.0 if S1.mean < S2.mean else 1.0
    else:
        std = 2.0 * math.sqrt(S1.variance / 4 + S2.variance / 4)
        z = (S1.mean / 2 - S2.mean / 2) / (std / 2)
        p_opposite = 0.5 * math.erfc(-z * math.sqrt(0.5))
    return {"p_opposite": p_opposite, "holds": p_opposite < RELATION_ALPHA}

