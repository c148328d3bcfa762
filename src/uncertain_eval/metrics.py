"""RMSE as a point score and as a Monte Carlo random variable.

Monte Carlo sampling is partitioned into fixed chunks of 1024 samples;
chunk i draws from a child generator derived from (seed, i) and fills its
own slice of one sample array. Results are therefore bit-identical for a
given seed regardless of how many worker threads run the chunks. The
chunks always run on a pool of min(threads, chunks) worker threads, where
the environment variable ``UNCERTAIN_EVAL_THREADS`` caps the threads (0 or
unset = auto: the CPUs this process may run on; at most ``MAX_THREADS``).

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

from .errors import InputError
from .feedback import FeedbackDataset, PredictionSet
from .rng import check_count, check_real, child_rng, validate_seed

CHUNK_SIZE = 1024

# Bound on elements per draw block: one reused 2 MiB buffer per thread.
_MAX_BLOCK_ELEMENTS = 262_144

MIN_SAMPLE_COUNT = 100

# Largest Monte Carlo run a call may allocate: the samples take 8 bytes
# each, in one array.
MAX_SAMPLE_COUNT = 10_000_000

# Largest worker cap ``UNCERTAIN_EVAL_THREADS`` may set; each worker is an
# OS thread.
MAX_THREADS = 256


def check_tau(tau: float) -> float:
    """Tau as a float, unless it lies outside [0, 1e50]."""
    return check_real(tau, "tau", "lie in [0, 1e+50]")


@dataclass(frozen=True, slots=True)
class McConfig:
    """Monte Carlo settings; ``predictor_tau`` adds Gaussian prediction noise."""

    sample_count: int
    seed: int
    predictor_tau: float | None = None

    def __post_init__(self) -> None:
        count = check_count(self.sample_count, "sample_count", MIN_SAMPLE_COUNT, MAX_SAMPLE_COUNT)
        object.__setattr__(self, "sample_count", count)
        validate_seed(self.seed)
        if self.predictor_tau is not None:
            object.__setattr__(self, "predictor_tau", check_tau(self.predictor_tau))


@dataclass(frozen=True)
class MetricScoreDistribution:
    """Empirical distribution of a metric score from Monte Carlo."""

    samples: np.ndarray
    mean: float
    variance: float
    sample_count: int


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
    check_count(value, "UNCERTAIN_EVAL_THREADS", 0, MAX_THREADS)
    if value > 0:
        return value
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def rmse(predictions: PredictionSet, ratings: FeedbackDataset) -> float:
    """Root mean squared deviation between ratings and their predictions.

    The point ratings are the dataset's ``mu``. Squared deviations are
    summed left to right in key order.
    """
    d = ratings.mu - predictions.aligned(ratings.keys)
    return math.sqrt(float(np.cumsum(d * d)[-1]) / ratings.N)


def _sample_chunk(
    chunk_index: int,
    out: np.ndarray,
    base: np.ndarray,
    scale: np.ndarray,
    seed: int,
) -> None:
    """Fill chunk ``chunk_index``'s slice of the samples ``out`` in place."""
    rng = child_rng(seed, chunk_index)
    out = out[chunk_index * CHUNK_SIZE : (chunk_index + 1) * CHUNK_SIZE]
    n_pairs = base.size
    max_rows = max(1, min(out.size, _MAX_BLOCK_ELEMENTS // max(n_pairs, 1)))
    buf = np.empty((max_rows, n_pairs), dtype=float)
    for pos in range(0, out.size, max_rows):
        dev = buf[: min(max_rows, out.size - pos)]
        rng.standard_normal(out=dev)
        dev *= scale
        dev += base
        np.multiply(dev, dev, out=dev)
        out[pos : pos + len(dev)] = np.sqrt(np.mean(dev, axis=1))


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
    base = data.mu - predictions.aligned(data.keys)
    tau = cfg.predictor_tau
    scale = data.sigma if tau is None else np.hypot(data.sigma, tau)

    samples = np.empty(cfg.sample_count, dtype=float)
    n_chunks = -(-cfg.sample_count // CHUNK_SIZE)
    # imported on use: most runs never need it
    from concurrent.futures import ThreadPoolExecutor

    def fill(i: int) -> None:
        _sample_chunk(i, samples, base, scale, cfg.seed)

    with ThreadPoolExecutor(max_workers=min(resolve_thread_count(), n_chunks)) as pool:
        # list() waits for every chunk and raises the first chunk's error
        list(pool.map(fill, range(n_chunks)))

    samples.flags.writeable = False
    mean, variance = float(np.mean(samples)), float(np.var(samples, ddof=1))
    return MetricScoreDistribution(samples, mean, variance, cfg.sample_count)
