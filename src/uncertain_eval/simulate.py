"""Synthetic populations of uncertain users for desk-scale experiments.

Ground truth (per-pair mu, sigma) is known here by construction, which
enables oracle checks that are impossible on real data: drawn trials can be
re-fitted and compared against the generating parameters.

All outputs are pure functions of (spec, seed); population parameters and
trial draws use distinct child streams of the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InputError
from .feedback import (
    FeedbackDataset,
    KeyTable,
    ObservationSet,
    PredictionSet,
    fit_uncertainty,
)
from .rng import child_rng, validate_seed

# Stream keys so population parameters and trial draws never share bits.
_POPULATION_STREAM = 0
_TRIAL_STREAM = 1

# Largest histogram a call may allocate.
MAX_HISTOGRAM_BINS = 1_000_000

# Largest population (n_users * n_items) and trial draw (pairs * trials) a
# call may allocate: a few numpy columns per pair or row, two ids per pair.
MAX_POPULATION_PAIRS = 10_000_000
MAX_OBSERVATION_ROWS = 50_000_000


@dataclass(frozen=True, slots=True)
class RatingScale:
    """Bounded rating axis; ``discrete_step`` absent means continuous."""

    min_value: float
    max_value: float
    discrete_step: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.min_value) and math.isfinite(self.max_value)):
            raise InputError("rating scale bounds must be finite")
        if not self.min_value < self.max_value:
            raise InputError(
                f"rating scale needs min_value < max_value, got "
                f"[{self.min_value}, {self.max_value}]"
            )
        if self.discrete_step is not None:
            if not (math.isfinite(self.discrete_step) and self.discrete_step > 0):
                raise InputError("discrete_step must be positive")
            steps = (self.max_value - self.min_value) / self.discrete_step
            if abs(steps - round(steps)) > 1e-9:
                raise InputError(
                    "scale span must be an integer multiple of discrete_step"
                )

    @property
    def span(self) -> float:
        return self.max_value - self.min_value


@dataclass(frozen=True, slots=True)
class PopulationSpec:
    """Parameters of a synthetic population.

    Central tendencies are uniform over the rating scale and spreads
    uniform over [sigma_lo, sigma_hi]. Predictions are derived from the
    truth as mu plus a uniform bias from [bias_lo, bias_hi] (zero by
    default, i.e. perfect predictions).
    """

    n_users: int
    n_items: int
    scale: RatingScale
    sigma_lo: float
    sigma_hi: float
    density: float = 1.0
    seed: int = 0
    bias_lo: float = 0.0
    bias_hi: float = 0.0

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise InputError(f"n_users must be >= 1, got {self.n_users}")
        if self.n_items < 1:
            raise InputError(f"n_items must be >= 1, got {self.n_items}")
        if self.n_users * self.n_items > MAX_POPULATION_PAIRS:
            raise InputError(
                f"n_users * n_items must be <= {MAX_POPULATION_PAIRS}, got "
                f"{self.n_users} * {self.n_items}"
            )
        if not 0 <= self.sigma_lo <= self.sigma_hi < math.inf:
            raise InputError(
                f"sigma prior needs 0 <= sigma_lo <= sigma_hi, got "
                f"[{self.sigma_lo}, {self.sigma_hi}]"
            )
        if not 0 < self.density <= 1:
            raise InputError(f"density must lie in (0, 1], got {self.density}")
        if not -math.inf < self.bias_lo <= self.bias_hi < math.inf:
            raise InputError(
                f"bias prior needs bias_lo <= bias_hi, got "
                f"[{self.bias_lo}, {self.bias_hi}]"
            )
        validate_seed(self.seed)


def _pair_ids(n: int, prefix: str) -> list[str]:
    width = len(str(n))
    return [f"{prefix}{i + 1:0{width}d}" for i in range(n)]


def generate_population(spec: PopulationSpec) -> tuple[FeedbackDataset, PredictionSet]:
    """Draw a population of ceil(density * n_users * n_items) pairs, and its predictions."""
    total = spec.n_users * spec.n_items
    n_pairs = math.ceil(spec.density * total)

    rng = child_rng(spec.seed, _POPULATION_STREAM)
    if n_pairs == total:
        chosen = np.arange(total)
    else:
        chosen = np.sort(rng.choice(total, size=n_pairs, replace=False))
    mu = rng.uniform(spec.scale.min_value, spec.scale.max_value, n_pairs)
    sigma = rng.uniform(spec.sigma_lo, spec.sigma_hi, n_pairs)
    bias = rng.uniform(spec.bias_lo, spec.bias_hi, n_pairs)

    # zero-padded ids sort like their numbers, so sorted cells are already
    # in key order and the table needs no interning
    users = np.array(_pair_ids(spec.n_users, "u"), dtype=object)
    items = np.array(_pair_ids(spec.n_items, "i"), dtype=object)
    keys = KeyTable(users[chosen // spec.n_items], items[chosen % spec.n_items])
    pair = np.arange(n_pairs)
    return (
        FeedbackDataset.from_columns(keys, pair, mu, sigma),
        PredictionSet.from_columns(keys, pair, mu + bias),
    )


def draw_trials(
    data: FeedbackDataset, k: int, *, seed: int = 0, scale: RatingScale | None = None
) -> ObservationSet:
    """Draw k trials per pair from each pair's N(mu, sigma^2).

    Given a ``scale``, the draws are rounded to its nearest step and clamped
    into it; this biases moments near the scale edges and is therefore
    opt-in. Continuous draws are left untouched, including the occasional
    value outside the nominal range. The returned set carries no scale.
    """
    if k < 1:
        raise InputError(f"trials per pair must be >= 1, got {k}")
    if data.N * k > MAX_OBSERVATION_ROWS:
        raise InputError(
            f"{data.N} pairs x {k} trials exceed {MAX_OBSERVATION_ROWS} observation rows"
        )
    validate_seed(seed)
    if scale is not None and scale.discrete_step is None:
        raise InputError("discretise requires a scale with a discrete_step")

    rng = child_rng(seed, _TRIAL_STREAM)
    values = data.mu[:, None] + data.sigma[:, None] * rng.standard_normal((data.N, k))
    if scale is not None:
        step = scale.discrete_step
        values = scale.min_value + np.round((values - scale.min_value) / step) * step
        values = np.clip(values, scale.min_value, scale.max_value)

    pair = np.repeat(np.arange(data.N), k)
    trial = np.tile(np.arange(k), data.N)
    return ObservationSet.from_columns(data.keys, pair, trial, values.ravel())


def histogram(values: Iterable[float], bin_width: float) -> tuple[np.ndarray, ...]:
    """Contiguous fixed-width bins covering the observed range, as columns.

    Returns ``(bin_lo, bin_hi, count)``, one entry per bin. Bins are
    [lo, lo + width) anchored at the minimum; the bin count is
    floor(span / width) + 1 so the maximum always falls inside the last
    bin, and counts sum to the number of values.
    """
    if not (math.isfinite(bin_width) and bin_width > 0):
        raise InputError(f"bin width must be positive, got {bin_width}")
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise InputError("cannot build a histogram from zero observations")
    if not np.all(np.isfinite(arr)):
        raise InputError("histogram values must be finite")

    lo = float(np.min(arr))
    hi = float(np.max(arr))
    # compared before flooring, so an infinite bin count is caught too
    if not (hi - lo) / bin_width < MAX_HISTOGRAM_BINS:
        raise InputError(f"histogram would need more than {MAX_HISTOGRAM_BINS} bins")
    n_bins = int(math.floor((hi - lo) / bin_width)) + 1
    idx = np.floor((arr - lo) / bin_width).astype(int)
    idx = np.clip(idx, 0, n_bins - 1)
    edges = lo + np.arange(n_bins + 1) * bin_width
    return edges[:-1], edges[1:], np.bincount(idx, minlength=n_bins)


def fit_roundtrip_check(spec: PopulationSpec, k: int) -> float:
    """Generate, draw continuous trials, re-fit: the worst relative sigma error.

    Only pairs with a true sigma of at least 0.1 enter the comparison; with
    nothing above that floor the error is defined as 0. Small k gives large
    errors, which are reported, not asserted.
    """
    if k < 2:
        raise InputError(f"roundtrip check needs k >= 2 trials, got {k}")
    truth, _ = generate_population(spec)
    obs = draw_trials(truth, k=k, seed=spec.seed)
    fitted = fit_uncertainty(obs)

    sigma_true = truth.sigma[fitted.keys.locate(truth.keys, "no generating model")]
    compared = sigma_true >= 0.1
    errors = np.abs(fitted.sigma[compared] - sigma_true[compared]) / sigma_true[compared]
    return float(errors.max()) if errors.size else 0.0
