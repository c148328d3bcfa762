import hashlib
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

from uncertain_eval import (
    FeedbackDataset,
    InputError,
    McConfig,
    PredictionSet,
    rmse,
    rmse_distribution,
)
from uncertain_eval import metrics
from uncertain_eval.metrics import MAX_SAMPLE_COUNT, MAX_THREADS, resolve_thread_count

from oracles import variance_match_check


def make_dataset(rows) -> FeedbackDataset:
    """rows: (user, mu, sigma)"""
    users, mu, sigma = zip(*rows)
    return FeedbackDataset.from_ids(users, ["i1"] * len(users), mu, sigma)


def point_ratings(rows) -> FeedbackDataset:
    """rows: (user, item, rating); the dataset's mu holds the ratings."""
    users, items, ratings = zip(*rows) if rows else ((), (), ())
    return FeedbackDataset.from_ids(users, items, ratings, [0.0] * len(ratings))


def predictions_of(rows) -> PredictionSet:
    """rows: (user, item, prediction)"""
    users, items, values = zip(*rows) if rows else ((), (), ())
    return PredictionSet.from_ids(users, items, values)


def perfect_predictions(data: FeedbackDataset, offset: float = 0.0) -> PredictionSet:
    return PredictionSet.from_columns(data.keys, np.arange(data.N), data.mu + offset)


def biased_pairs(n: int, seed: int = 2024):
    """``n`` pairs with spread sigma and predictions off mu by a bias b."""
    rng = np.random.default_rng(seed)
    mu = rng.uniform(1.0, 5.0, n)
    sigma = rng.uniform(0.1, 1.5, n)
    bias = rng.normal(0.0, 0.8, n)
    data = make_dataset(
        [(f"u{i:05d}", float(mu[i]), float(sigma[i])) for i in range(n)]
    )
    predictions = predictions_of([(f"u{i:05d}", "i1", float(mu[i] + bias[i])) for i in range(n)])
    return data, predictions


class TestPointRmse:
    def test_perfect_fit(self):
        assert rmse(predictions_of([("u", "i", 4.0)]), point_ratings([("u", "i", 4.0)])) == 0.0

    def test_single_pair(self):
        assert rmse(predictions_of([("u", "i", 3.0)]), point_ratings([("u", "i", 4.0)])) == 1.0

    def test_two_pairs(self):
        score = rmse(
            predictions_of([("u", "i1", 3.0), ("u", "i2", 4.0)]),
            point_ratings([("u", "i1", 4.0), ("u", "i2", 2.0)]),
        )
        assert score == pytest.approx(1.5811388300841898, abs=1e-12)

    def test_overflowing_sum_rejected(self):
        # a deviation whose square would overflow float64 lies outside the domain
        with pytest.raises(InputError) as info:
            predictions_of([("u", "i1", 3.0), ("u", "i2", -1e200)])
        assert str(info.value) == "prediction must lie in [-1e+50, 1e+50], got -1e+200"

    def test_deviations_across_the_domain(self):
        score = rmse(
            predictions_of([("u", "i1", 1e50), ("u", "i2", -1e50)]),
            point_ratings([("u", "i1", -1e50), ("u", "i2", 1e50)]),
        )
        assert score == 2e50

    def test_empty_ratings_rejected(self):
        with pytest.raises(InputError):
            rmse(predictions_of([]), point_ratings([]))

    def test_missing_prediction_rejected(self):
        with pytest.raises(InputError, match="missing prediction"):
            rmse(predictions_of([]), point_ratings([("u", "i", 4.0)]))


class TestMcConfig:
    def test_rejects_small_sample_count(self):
        with pytest.raises(InputError):
            McConfig(sample_count=10, seed=1)

    @pytest.mark.parametrize("count", [MAX_SAMPLE_COUNT + 1, 10**13])
    def test_rejects_sample_count_above_maximum(self, count):
        # raised in the constructor, before any sample is allocated
        with pytest.raises(InputError, match="sample_count"):
            McConfig(sample_count=count, seed=1)

    def test_rejects_negative_tau(self):
        with pytest.raises(InputError):
            McConfig(sample_count=100, seed=1, predictor_tau=-0.1)

    def test_rejects_bad_seed(self):
        with pytest.raises(InputError):
            McConfig(sample_count=100, seed=-1)
        with pytest.raises(InputError):
            McConfig(sample_count=100, seed=2**64)


class TestResolveThreadCount:
    @pytest.mark.parametrize(
        "raw, expected", [("1", 1), ("8", 8), (str(MAX_THREADS), MAX_THREADS)]
    )
    def test_accepts_explicit_cap(self, monkeypatch, raw, expected):
        monkeypatch.setenv("UNCERTAIN_EVAL_THREADS", raw)
        assert resolve_thread_count() == expected

    @pytest.mark.parametrize("raw", ["-1", str(MAX_THREADS + 1), "100000", "many"])
    def test_rejects_invalid_or_out_of_range(self, monkeypatch, raw):
        monkeypatch.setenv("UNCERTAIN_EVAL_THREADS", raw)
        with pytest.raises(InputError, match="UNCERTAIN_EVAL_THREADS"):
            resolve_thread_count()

    @pytest.mark.parametrize("raw", [None, "0"])
    def test_auto_counts_the_cpus_the_process_may_run_on(self, monkeypatch, raw):
        if raw is None:
            monkeypatch.delenv("UNCERTAIN_EVAL_THREADS", raising=False)
        else:
            monkeypatch.setenv("UNCERTAIN_EVAL_THREADS", raw)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert resolve_thread_count() == 3

    def test_auto_counts_every_cpu_without_affinity(self, monkeypatch):
        monkeypatch.delenv("UNCERTAIN_EVAL_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert resolve_thread_count() == 64


class TestRmseDistribution:
    def test_degenerate_sigma_zero(self):
        data = make_dataset([("u1", 3.0, 0.0), ("u2", 4.0, 0.0)])
        predictions = predictions_of([("u1", "i1", 3.5), ("u2", "i1", 4.5)])
        dist = rmse_distribution(data, predictions, McConfig(2000, seed=5))
        point = rmse(predictions, data)
        assert np.all(dist.samples == point)
        assert dist.variance == 0.0

    def test_matches_floor_for_perfect_predictions(self):
        data = make_dataset([(f"u{i:05d}", 3.0, 1.0) for i in range(1000)])
        dist = rmse_distribution(
            data, perfect_predictions(data), McConfig(20000, seed=11)
        )
        assert dist.mean == pytest.approx(1.0, rel=0.01)
        assert dist.variance == pytest.approx(1.0 / 2000.0, rel=0.10)

    def test_matches_floor_at_full_size(self):
        # uniform sigma 1 over 2000 pairs: floor mean 1, variance 0.00025
        data = make_dataset([(f"u{i:05d}", 3.0, 1.0) for i in range(2000)])
        dist = rmse_distribution(
            data, perfect_predictions(data), McConfig(100000, seed=13)
        )
        assert dist.mean == pytest.approx(1.0, rel=0.01)
        assert dist.variance == pytest.approx(0.00025, rel=0.05)

    def test_half_normal_single_pair_with_tau(self):
        data = make_dataset([("u", 3.0, 0.0)])
        dist = rmse_distribution(
            data,
            perfect_predictions(data),
            McConfig(100000, seed=21, predictor_tau=1.0),
        )
        assert dist.mean == pytest.approx(math.sqrt(2 / math.pi), rel=0.02)

    def test_predictor_noise_inflates_deviation_variance(self):
        data = make_dataset([("u", 3.0, 0.8)])
        dist = rmse_distribution(
            data,
            perfect_predictions(data),
            McConfig(100000, seed=31, predictor_tau=1.0),
        )
        # single pair, mu = pi: samples are |deviation|, so the second
        # moment of the samples is the deviation variance
        assert float(np.mean(dist.samples**2)) == pytest.approx(1.64, rel=0.03)

    def test_scale_equivariance(self):
        rows = [("u1", 2.0, 0.4), ("u2", 4.0, 0.9), ("u3", 3.0, 0.1)]
        data = make_dataset(rows)
        scaled = make_dataset([(u, 3 * mu, 3 * s) for u, mu, s in rows])
        predictions = perfect_predictions(data, 0.2)
        scaled_predictions = perfect_predictions(scaled, 0.6)
        cfg = McConfig(1000, seed=17, predictor_tau=0.5)
        scaled_cfg = McConfig(1000, seed=17, predictor_tau=1.5)
        base = rmse_distribution(data, predictions, cfg)
        big = rmse_distribution(scaled, scaled_predictions, scaled_cfg)
        np.testing.assert_allclose(big.samples, 3 * base.samples, rtol=1e-12)

    def test_mean_and_variance_non_negative(self):
        data = make_dataset([("u1", 2.0, 0.3), ("u2", 4.5, 1.2)])
        dist = rmse_distribution(data, perfect_predictions(data), McConfig(500, seed=3))
        assert dist.mean >= 0.0
        assert dist.variance >= 0.0

    @staticmethod
    def _assert_thread_count_independent(monkeypatch, tau):
        data = make_dataset([(f"u{i}", 3.0, 0.7) for i in range(50)])
        cfg = McConfig(4096, seed=123, predictor_tau=tau)
        monkeypatch.setenv("UNCERTAIN_EVAL_THREADS", "1")
        serial = rmse_distribution(data, perfect_predictions(data), cfg)
        monkeypatch.setenv("UNCERTAIN_EVAL_THREADS", "4")
        threaded = rmse_distribution(data, perfect_predictions(data), cfg)
        assert np.array_equal(serial.samples, threaded.samples)
        assert serial.mean == threaded.mean
        assert serial.variance == threaded.variance

    def test_deterministic_across_thread_counts(self, monkeypatch):
        self._assert_thread_count_independent(monkeypatch, None)

    def test_deterministic_across_thread_counts_with_tau(self, monkeypatch):
        self._assert_thread_count_independent(monkeypatch, 1.0)

    def test_missing_prediction_key(self):
        data = make_dataset([("u1", 3.0, 0.5), ("u2", 3.0, 0.5)])
        predictions = predictions_of([("u1", "i1", 3.0)])
        with pytest.raises(InputError, match="u2"):
            rmse_distribution(data, predictions, McConfig(200, seed=1))


class TestSampler:
    """The bytes and the law of the Monte Carlo samples."""

    def test_samples_without_tau_are_pinned(self):
        data, predictions = biased_pairs(50)
        dist = rmse_distribution(data, predictions, McConfig(3000, seed=77))
        assert hashlib.sha256(dist.samples.tobytes()).hexdigest() == (
            "5eef4fa2e74d07d2df76195c0844aa590a79b94b8da8f99cada14ba8fa9d38b3"
        )

    # at tau = 0 the widened dataset is the dataset itself: tau 0 is no tau
    @pytest.mark.parametrize("tau", [1.0, 0.35, 0.0])
    def test_tau_is_one_draw_of_scale_hypot_sigma_tau(self, tau):
        data, predictions = biased_pairs(50)
        widened = FeedbackDataset.from_columns(
            data.keys, np.arange(data.N), data.mu,
            np.hypot(data.sigma, tau), data.n_trials,
        )
        noisy = rmse_distribution(
            data, predictions, McConfig(3000, seed=77, predictor_tau=tau)
        )
        plain = rmse_distribution(widened, predictions, McConfig(3000, seed=77))
        assert noisy.samples.tobytes() == plain.samples.tobytes()

    @pytest.mark.parametrize("tau", [None, 1.0])
    def test_bytes_do_not_depend_on_block_size(self, monkeypatch, tau):
        data, predictions = biased_pairs(50)
        cfg = McConfig(3000, seed=77, predictor_tau=tau)
        reference = rmse_distribution(data, predictions, cfg).samples.tobytes()
        for block in (1, data.N, 7 * data.N + 3):
            monkeypatch.setattr(metrics, "_MAX_BLOCK_ELEMENTS", block)
            samples = rmse_distribution(data, predictions, cfg).samples
            assert samples.tobytes() == reference, block

    def test_delta_law_oracle_with_tau(self):
        data, predictions = biased_pairs(500)
        tau = 1.0
        n = 20000
        dist = rmse_distribution(
            data, predictions, McConfig(n, seed=2017, predictor_tau=tau)
        )
        b2 = (data.mu - predictions.aligned(data.keys)) ** 2
        s2 = data.sigma**2 + tau**2
        total = float(np.sum(b2 + s2))
        mean = math.sqrt(total / data.N)
        variance = float(np.sum(2 * s2**2 + 4 * b2 * s2)) / (4 * data.N * total)

        centred = dist.samples - dist.mean
        mean_se = math.sqrt(dist.variance / n)
        variance_se = math.sqrt(
            (float(np.mean(centred**4)) - dist.variance**2) / n
        )
        assert abs(dist.mean - mean) < 6 * mean_se
        assert abs(dist.variance - variance) < 6 * variance_se

    def test_peak_memory_is_bounded_with_tau(self, monkeypatch):
        # 20k pairs x 2048 samples: all draws at once would take 312 MiB
        monkeypatch.setenv("UNCERTAIN_EVAL_THREADS", "1")
        n = 20000
        data = make_dataset([(f"u{i:05d}", 3.0, 0.8) for i in range(n)])
        predictions = PredictionSet.from_columns(data.keys, np.arange(n), np.full(n, 3.5))
        cfg = McConfig(2048, seed=5, predictor_tau=1.0)
        tracemalloc.start()
        try:
            rmse_distribution(data, predictions, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_many_workers_fill_their_slices_of_one_array(self, monkeypatch):
        # more workers than cores, switching threads as often as they can,
        # and a last chunk shorter than the others
        data, predictions = biased_pairs(20)
        cfg = McConfig(40 * metrics.CHUNK_SIZE + 7, seed=9)
        monkeypatch.setenv("UNCERTAIN_EVAL_THREADS", "1")
        alone = rmse_distribution(data, predictions, cfg).samples
        monkeypatch.setenv("UNCERTAIN_EVAL_THREADS", "16")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = rmse_distribution(data, predictions, cfg).samples
        finally:
            sys.setswitchinterval(interval)
        assert pooled.tobytes() == alone.tobytes()

    def test_peak_memory_is_about_one_copy_of_the_samples(self):
        # the chunks fill one sample array in place, and the variance takes
        # one temporary of the same size; chunk arrays joined afterwards
        # would hold the samples a third time
        data, predictions = biased_pairs(10)
        tracemalloc.start()
        try:
            dist = rmse_distribution(data, predictions, McConfig(1_000_000, seed=5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * dist.samples.nbytes


class TestVarianceMatch:
    def test_uniform_sigma_matches(self):
        data = make_dataset([(f"u{i:05d}", 3.0, 1.0) for i in range(2000)])
        deviation = variance_match_check(data, McConfig(20000, seed=41))
        assert deviation < 0.05

    def test_small_n_reports_without_asserting(self):
        rng = np.random.default_rng(7)
        data = make_dataset(
            [(f"u{i}", 3.0, s) for i, s in enumerate(rng.uniform(0.2, 1.5, 10))]
        )
        deviation = variance_match_check(data, McConfig(5000, seed=43))
        assert math.isfinite(deviation) and deviation >= 0.0

    def test_zero_floor_rejected(self):
        data = make_dataset([("u1", 3.0, 0.0)])
        with pytest.raises(InputError):
            variance_match_check(data, McConfig(200, seed=1))
