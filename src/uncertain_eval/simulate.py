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

import numpy as np

from .errors import InputError
from .feedback import FeedbackDataset, KeyTable, ObservationSet, PredictionSet, _group
from .rng import check_count, check_real, child_rng, validate_seed

# Stream keys so population parameters and trial draws never share bits.
_POPULATION_STREAM = 0
_TRIAL_STREAM = 1

# Largest population (n_users * n_items) and trial draw (pairs * trials) a
# call may allocate: a few numpy columns per pair or row, two ids per pair.
MAX_POPULATION_PAIRS = 10_000_000
MAX_OBSERVATION_ROWS = 50_000_000


def _check_interval(spec, what: str, lo: str, order: str, hi: str, rule: str) -> None:
    """The one rule of a bound pair of ``spec``: each bound keeps ``rule``, then ``lo order hi``."""
    low, high = (check_real(getattr(spec, name), name, rule) for name in (lo, hi))
    if not (low < high if order == "<" else low <= high):
        raise InputError(f"{what} needs {lo} {order} {hi}, got [{low}, {high}]")
    object.__setattr__(spec, lo, low)
    object.__setattr__(spec, hi, high)


@dataclass(frozen=True, slots=True)
class RatingScale:
    """Bounded rating axis; ``discrete_step`` absent means continuous."""

    min_value: float
    max_value: float
    discrete_step: float | None = None

    def __post_init__(self) -> None:
        _check_interval(self, "rating scale", "min_value", "<", "max_value", "lie in [-1e+50, 1e+50]")
        if self.discrete_step is not None:
            step = check_real(self.discrete_step, "discrete_step", "lie in (0, 1e+50]")
            object.__setattr__(self, "discrete_step", step)
            steps = self.span / step
            if not math.isfinite(steps):
                raise InputError(f"rating scale step count overflows float64: {self.span} / {step}")
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
        for name in ("n_users", "n_items"):
            object.__setattr__(self, name, check_count(getattr(self, name), name, 1))
        if self.n_users * self.n_items > MAX_POPULATION_PAIRS:
            raise InputError(
                f"n_users * n_items must be <= {MAX_POPULATION_PAIRS}, got "
                f"{self.n_users} * {self.n_items}"
            )
        _check_interval(self, "sigma prior", "sigma_lo", "<=", "sigma_hi", "lie in [0, 1e+50]")
        object.__setattr__(self, "density", check_real(self.density, "density", "lie in (0, 1]"))
        _check_interval(self, "bias prior", "bias_lo", "<=", "bias_hi", "lie in [-1e+50, 1e+50]")
        validate_seed(self.seed)

    @property
    def n_pairs(self) -> int:
        """The number of pairs drawn: ceil(density * n_users * n_items)."""
        return math.ceil(self.density * (self.n_users * self.n_items))


def check_draw_size(pairs: int, k: int) -> int:
    """The one rule of a draw's size: k >= 1 trials, pairs x k <= MAX_OBSERVATION_ROWS rows."""
    k = check_count(k, "trials per pair", 1)
    if pairs * k > MAX_OBSERVATION_ROWS:
        raise InputError(f"{pairs} pairs x {k} trials exceed {MAX_OBSERVATION_ROWS} observation rows")
    return k


def _ranked_ids(rows: np.ndarray, n: int, prefix: str) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` among ``n`` as ``from_codes`` takes them: the ids of the distinct rows, and codes."""
    drawn, codes = _group(rows, n)
    width = len(str(n))
    return np.array([f"{prefix}{i + 1:0{width}d}" for i in drawn.tolist()], dtype=object), codes


def generate_population(spec: PopulationSpec) -> tuple[FeedbackDataset, PredictionSet]:
    """Draw a population of ceil(density * n_users * n_items) pairs, and its predictions."""
    total = spec.n_users * spec.n_items
    n_pairs = spec.n_pairs

    rng = child_rng(spec.seed, _POPULATION_STREAM)
    if n_pairs == total:
        chosen = np.arange(total)
    else:
        chosen = np.sort(rng.choice(total, size=n_pairs, replace=False))
    mu = rng.uniform(spec.scale.min_value, spec.scale.max_value, n_pairs)
    sigma = rng.uniform(spec.sigma_lo, spec.sigma_hi, n_pairs)
    bias = rng.uniform(spec.bias_lo, spec.bias_hi, n_pairs)

    # ids are made only for the drawn users and items; zero-padded, they sort like their numbers
    users = _ranked_ids(chosen // spec.n_items, spec.n_users, "u")
    items = _ranked_ids(chosen % spec.n_items, spec.n_items, "i")
    keys, pair = KeyTable.from_codes(users, items)
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
    value outside the nominal range; one outside [-1e50, 1e50] fails the
    rating value rule. The returned set carries no scale.
    """
    k = check_draw_size(data.N, k)
    validate_seed(seed)
    if scale is not None and scale.discrete_step is None:
        raise InputError("discretise requires a scale with a discrete_step")

    rng = child_rng(seed, _TRIAL_STREAM)
    values = data.mu[:, None] + data.sigma[:, None] * rng.standard_normal((data.N, k))
    if scale is not None:
        step = scale.discrete_step
        # a step count beyond float64 is infinite, and the clip takes it to the bound
        with np.errstate(over="ignore"):
            values = scale.min_value + np.round((values - scale.min_value) / step) * step
        values = np.clip(values, scale.min_value, scale.max_value)

    pair = np.repeat(np.arange(data.N), k)
    trial = np.tile(np.arange(k), data.N)
    return ObservationSet.from_columns(data.keys, pair, trial, values.ravel())
