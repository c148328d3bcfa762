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

The standard normal law comes from the standard library: the cdf is
``0.5 * math.erfc(-z / sqrt(2))``, which keeps its relative accuracy in
the far left tail where ``NormalDist().cdf`` cancels, and quantiles come
from ``statistics.NormalDist().inv_cdf``. The 95% quantile is pinned to
the correctly rounded double (scipy's ``norm.ppf(0.975)``) because
``inv_cdf(0.975)`` lands one ulp lower and would move the interval bounds
that ``distinguish`` reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .feedback import FeedbackDataset

# Exact two-sided 95% normal quantile (1.959964 to six decimals, not 1.96),
# pinned; see the module docstring.
Z_TWO_SIDED_95 = 1.959963984540054

RELATION_ALPHA = 0.05


@dataclass(frozen=True, slots=True)
class GaussianDistribution:
    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise InputError(f"mean must be finite, got {self.mean}")
        if not (math.isfinite(self.variance) and self.variance >= 0):
            raise InputError(f"variance must be finite and >= 0, got {self.variance}")

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
    with np.errstate(over="ignore"):
        sum_sq = float(np.sum(sigmas**2))
        sum_fourth = float(np.sum(sigmas**4))
    # a finite sum of fourth powers bounds the sum of squares and the result
    if not math.isfinite(sum_fourth):
        raise InputError(
            f"sigma {float(sigmas.max())} is too large: the noise floor overflows float64"
        )
    mean = math.sqrt(sum_sq / n)
    variance = (sum_fourth / sum_sq) / (2.0 * n) if sum_sq > 0 else 0.0
    return GaussianDistribution(mean=mean, variance=variance)


def confidence_interval(
    g: GaussianDistribution, level: float = 0.95
) -> tuple[float, float]:
    """Two-sided interval ``mean +- z * std`` at the given coverage level.

    At level 0.95 ``z`` is ``Z_TWO_SIDED_95``, the quantile the
    distinguishability verdict uses, so interval and verdict agree.
    """
    if not (0.0 < level < 1.0):
        raise InputError(f"confidence level must lie in (0, 1), got {level}")
    if level == 0.95:
        z = Z_TWO_SIDED_95
    else:
        from statistics import NormalDist  # imported on use: most runs never need it

        z = NormalDist().inv_cdf(0.5 + level / 2.0)
    margin = z * g.std
    return (g.mean - margin, g.mean + margin)


def distinguishability_test(s1: float, s2: float, floor: GaussianDistribution) -> dict:
    """Shift the noise floor to the score midpoint and test 95% coverage.

    The verdict is computed from the single closed form
    |s1 - s2| > 2 * z * std, with ``z_gap`` = |s1 - s2| / (2 * std); the
    interval bounds ``ci_low`` and ``ci_high`` are derived from the same
    shift and std, so verdict and coverage cannot disagree at boundaries. A
    degenerate floor (std = 0) distinguishes any two unequal scores, with
    an infinite z_gap. The dict's keys, in order: ``s1``, ``s2``,
    ``barrier_mean``, ``barrier_variance``, ``shift_mean``, ``ci_low``,
    ``ci_high``, ``distinguishable``, ``z_gap``.
    """
    if not (math.isfinite(s1) and math.isfinite(s2)):
        raise InputError(f"scores must be finite, got s1={s1}, s2={s2}")
    std = floor.std
    shift = 0.5 * (s1 + s2)
    gap = abs(s1 - s2)
    if std == 0.0:
        z_gap = 0.0 if gap == 0.0 else math.inf
    else:
        z_gap = gap / (2.0 * std)
    margin = Z_TWO_SIDED_95 * std
    return {
        "s1": s1,
        "s2": s2,
        "barrier_mean": floor.mean,
        "barrier_variance": floor.variance,
        "shift_mean": shift,
        "ci_low": shift - margin,
        "ci_high": shift + margin,
        "distinguishable": z_gap > Z_TWO_SIDED_95,
        "z_gap": z_gap,
    }


def relation_test(S1: GaussianDistribution, S2: GaussianDistribution) -> dict:
    """Accept S1 < S2 when P(S1 >= S2) < 5% for independent Gaussians.

    Independence is assumed; no joint law of the two scores is available.
    Two point masses at the same value give p = 0.5 and a negative verdict.
    """
    variance = S1.variance + S2.variance
    diff = S1.mean - S2.mean
    if variance == 0.0:
        if diff == 0.0:
            p_opposite = 0.5
        else:
            p_opposite = 0.0 if diff < 0 else 1.0
    else:
        p_opposite = 0.5 * math.erfc(-diff / math.sqrt(variance) * math.sqrt(0.5))
    return {"p_opposite": p_opposite, "holds": p_opposite < RELATION_ALPHA}

