"""RMSE as a point score and as a Monte Carlo random variable.

Monte Carlo sampling is partitioned into fixed chunks of 1024 samples;
chunk i draws from a child generator derived from (seed, i) and chunks are
assembled in index order. Results are therefore bit-identical for a given
seed regardless of how many worker threads run the chunks. The environment
variable ``UNCERTAIN_EVAL_THREADS`` caps the worker count (0 or unset =
auto: the CPUs this process may run on; at most ``MAX_THREADS``).

A sample draws one standard normal per pair, scaled by sigma, or by
hypot(sigma, tau) with prediction noise tau: a rating N(mu, sigma^2) minus
an independent prediction N(pi, tau^2) is N(mu - pi, sigma^2 + tau^2). The
draws of a chunk land in one buffer that is reused block after block.

Sampled ratings are deliberately not clamped to the rating scale here:
the noise-floor algebra assumes unbounded Gaussians, and clamping would
bias the variance comparison. Clamping exists only in the simulation
module's discretised output.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .barrier import barrier_distribution
from .errors import InputError
from .feedback import FeedbackDataset, PredictionSet
from .rng import child_rng, validate_seed

CHUNK_SIZE = 1024

# Bound on elements per draw block: one reused 2 MiB buffer per thread.
_MAX_BLOCK_ELEMENTS = 262_144

MIN_SAMPLE_COUNT = 100

# Largest Monte Carlo run a call may allocate: the samples alone take
# 8 bytes each, plus one array per chunk.
MAX_SAMPLE_COUNT = 10_000_000

# Largest worker cap ``UNCERTAIN_EVAL_THREADS`` may set; each worker is an
# OS thread.
MAX_THREADS = 256


def check_tau(tau: float) -> None:
    """Reject a prediction noise deviation that is negative or not finite, or whose square is not."""
    if not (math.isfinite(tau) and tau >= 0):
        raise InputError(f"tau must be finite and >= 0, got {tau}")
    if not math.isfinite(tau * tau):
        raise InputError(f"tau squared must be finite, got tau = {tau}")


@dataclass(frozen=True, slots=True)
class McConfig:
    """Monte Carlo settings; ``predictor_tau`` adds Gaussian prediction noise."""

    sample_count: int
    seed: int
    predictor_tau: float | None = None

    def __post_init__(self) -> None:
        if self.sample_count < MIN_SAMPLE_COUNT:
            raise InputError(
                f"sample_count must be >= {MIN_SAMPLE_COUNT}, got {self.sample_count}"
            )
        if self.sample_count > MAX_SAMPLE_COUNT:
            raise InputError(
                f"sample_count must be <= {MAX_SAMPLE_COUNT}, got {self.sample_count}"
            )
        validate_seed(self.seed)
        if self.predictor_tau is not None:
            check_tau(self.predictor_tau)


@dataclass(frozen=True)
class MetricScoreDistribution:
    """Empirical distribution of a metric score from Monte Carlo."""

    samples: np.ndarray
    mean: float
    variance: float
    sample_count: int
    seed: int

    @classmethod
    def from_samples(cls, samples: np.ndarray, seed: int) -> "MetricScoreDistribution":
        if samples.size < 2:
            raise InputError("a score distribution needs at least 2 samples")
        samples = np.asarray(samples, dtype=float)
        samples.flags.writeable = False
        return cls(
            samples=samples,
            mean=float(np.mean(samples)),
            variance=float(np.var(samples, ddof=1)),
            sample_count=int(samples.size),
            seed=seed,
        )


def resolve_thread_count() -> int:
    """Worker cap from ``UNCERTAIN_EVAL_THREADS``; 0 or unset means auto.

    Auto counts the CPUs the process may run on where the platform tells,
    else every CPU. Values below 0 or above ``MAX_THREADS`` raise
    ``InputError``.
    """
    raw = os.environ.get("UNCERTAIN_EVAL_THREADS", "").strip() or "0"
    try:
        value = int(raw)
    except ValueError:
        raise InputError(
            f"UNCERTAIN_EVAL_THREADS must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise InputError(f"UNCERTAIN_EVAL_THREADS must be >= 0, got {value}")
    if value > MAX_THREADS:
        raise InputError(
            f"UNCERTAIN_EVAL_THREADS must be <= {MAX_THREADS}, got {value}"
        )
    if value > 0:
        return value
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def square_overflow(d: np.ndarray, scale: np.ndarray | None = None) -> InputError:
    """The error of squared deviations ``d``, of std up to ``scale``, that overflow float64."""
    message = f"squared deviations overflow float64: |mu - prediction| up to {float(np.abs(d).max())}"
    if scale is not None:
        message += f", deviation std up to {float(scale.max())}"
    return InputError(message)


def rmse(predictions: PredictionSet, ratings: FeedbackDataset) -> float:
    """Root mean squared deviation between ratings and their predictions.

    The point ratings are the dataset's ``mu``. Squared deviations are
    summed left to right in key order; a sum beyond float64 raises
    ``InputError``.
    """
    with np.errstate(over="ignore"):
        d = ratings.mu - predictions.aligned(ratings.keys)
        total = float(np.cumsum(d * d)[-1])
    if not math.isfinite(total):
        raise square_overflow(d)
    return math.sqrt(total / ratings.N)


def _sample_chunk(
    chunk_index: int,
    n_samples: int,
    base: np.ndarray,
    scale: np.ndarray,
    seed: int,
) -> np.ndarray:
    rng = child_rng(seed, chunk_index)
    n_pairs = base.size
    out = np.empty(n_samples, dtype=float)
    max_rows = max(1, min(n_samples, _MAX_BLOCK_ELEMENTS // max(n_pairs, 1)))
    buf = np.empty((max_rows, n_pairs), dtype=float)
    pos = 0
    while pos < n_samples:
        rows = min(max_rows, n_samples - pos)
        dev = buf[:rows]
        rng.standard_normal(out=dev)
        dev *= scale
        dev += base
        np.multiply(dev, dev, out=dev)
        out[pos : pos + rows] = np.sqrt(np.mean(dev, axis=1))
        pos += rows
    return out


def rmse_distribution(
    data: FeedbackDataset, predictions: PredictionSet, cfg: McConfig
) -> MetricScoreDistribution:
    """Distribution of RMSE under per-pair rating spread.

    Each Monte Carlo sample draws one rating per pair from N(mu, sigma^2)
    (and, with ``predictor_tau`` set, one prediction per pair from
    N(pi, tau^2)), then scores the rating-minus-prediction deviations.
    The deviation of a pair is N(mu - pi, sigma^2 + tau^2), so it is drawn
    as one standard normal scaled by hypot(sigma, tau).
    """
    with np.errstate(over="ignore"):  # an infinite deviation is rejected below
        base = data.mu - predictions.aligned(data.keys)
    tau = cfg.predictor_tau
    scale = data.sigma if tau is None else np.hypot(data.sigma, tau)

    n_chunks = -(-cfg.sample_count // CHUNK_SIZE)
    sizes = [
        min(CHUNK_SIZE, cfg.sample_count - i * CHUNK_SIZE) for i in range(n_chunks)
    ]

    def run(i: int) -> np.ndarray:
        # a deviation too large to square gives an infinite sample, rejected below
        with np.errstate(over="ignore"):
            return _sample_chunk(i, sizes[i], base, scale, cfg.seed)

    workers = min(resolve_thread_count(), n_chunks)
    if workers > 1:
        # imported on use: most runs never need it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run, range(n_chunks)))
    else:
        chunks = [run(i) for i in range(n_chunks)]

    with np.errstate(over="ignore", invalid="ignore"):
        dist = MetricScoreDistribution.from_samples(np.concatenate(chunks), cfg.seed)
    if not (math.isfinite(dist.mean) and math.isfinite(dist.variance)):
        raise square_overflow(base, scale)
    return dist


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
