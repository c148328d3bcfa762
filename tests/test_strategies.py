import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncertain_eval import (
    FeedbackDataset,
    InputError,
    KeyTable,
    ObservationSet,
    PredictionSet,
    denoise_preprocess,
    omit_insignificant,
    predictor_noise_deviation,
    run_strategy_comparison,
)


def obs_from_groups(groups: dict[str, list[float]]) -> ObservationSet:
    users = [name for name, values in groups.items() for _ in values]
    trials = [t for values in groups.values() for t in range(len(values))]
    values = [float(v) for values in groups.values() for v in values]
    return ObservationSet.from_ids(users, ["i1"] * len(users), trials, values)


def dataset(rows) -> FeedbackDataset:
    """rows: (user, mu, sigma), all of item i1"""
    users, mu, sigma = zip(*rows)
    return FeedbackDataset.from_ids(users, ["i1"] * len(users), mu, sigma)


def predictions_of(ratings: dict[str, float]) -> PredictionSet:
    """Predictions of item i1 by user."""
    return PredictionSet.from_ids(list(ratings), ["i1"] * len(ratings), list(ratings.values()))


def position(keys, name: str) -> int:
    """Position of the pair (name, i1) in ``keys``."""
    return int(np.flatnonzero((keys.users == name) & (keys.items == "i1"))[0])


def group_values(result, name: str) -> list[float]:
    obs = result.observations
    return obs.value[obs.pair == position(obs.keys, name)].tolist()


class TestDenoise:
    def test_within_threshold_untouched(self):
        obs = obs_from_groups({"u": [3.0, 3.2]})
        result = denoise_preprocess(obs, None, threshold=1.0)
        assert group_values(result, "u") == [3.0, 3.2]
        assert not len(result.unconverged_keys)

    def test_collapses_to_median_in_two_passes(self):
        obs = obs_from_groups({"u": [1.0, 5.0, 3.0]})
        result = denoise_preprocess(obs, None, threshold=1.0)
        assert group_values(result, "u") == [3.0, 3.0, 3.0]
        assert not len(result.unconverged_keys)

    def test_single_pass_replacement(self):
        obs = obs_from_groups({"u": [2.0, 2.0, 2.0, 5.0]})
        result = denoise_preprocess(obs, None, threshold=2.0)
        assert group_values(result, "u") == [2.0, 2.0, 2.0, 2.0]

    def test_tie_removes_lowest_trial_first(self):
        # both 1 and 5 sit two units from the median; the earlier trial goes
        obs = obs_from_groups({"u": [1.0, 5.0, 3.0]})
        result = denoise_preprocess(
            obs, None, threshold=10.0, max_iterations=1
        )
        assert group_values(result, "u") == [1.0, 5.0, 3.0]  # within threshold
        result = denoise_preprocess(
            obs, None, threshold=3.9, max_iterations=1
        )
        assert group_values(result, "u") == [3.0, 5.0, 3.0]

    @pytest.mark.parametrize("resampler", ["median", "redraw"])
    def test_key_without_rows_is_left_alone(self, resampler):
        # a key table may hold a pair the observations never saw
        keys, _ = KeyTable.intern(["u", "v"], ["i1", "i1"])
        obs = ObservationSet.from_columns(keys, [0, 0, 0], [0, 1, 2], [3.0, 5.0, 3.2])
        truth = dataset([("u", 3.0, 0.0), ("v", 3.0, 0.0)])
        cfg = dict(threshold=1.0, resampler=resampler)
        result = denoise_preprocess(obs, truth, **cfg)
        assert result.observations.counts().tolist() == [3, 0]
        # the median rule puts 3.2 in place of the outlier, a redraw 3.0
        replaced = 3.2 if resampler == "median" else 3.0
        assert group_values(result, "u") == [3.0, replaced, 3.2]
        assert not len(result.unconverged_keys)

    def test_redraw_requires_model(self):
        obs = obs_from_groups({"u": [1.0, 5.0, 3.0]})
        cfg = dict(threshold=1.0, resampler="redraw")
        with pytest.raises(InputError):
            denoise_preprocess(obs, None, **cfg)

    def test_redraw_converges_with_matching_model(self):
        # removing the outlier leaves [2.0, 3.0]; a draw from N(3, 0.5^2)
        # lands within 1.5 of both with high probability, so no fallback
        truth = dataset([("u", 3.0, 0.5)])
        obs = obs_from_groups({"u": [2.0, 4.4, 3.0]})
        cfg = dict(
            threshold=1.5, resampler="redraw", seed=7
        )
        result = denoise_preprocess(obs, truth, **cfg)
        values = group_values(result, "u")
        assert max(values) - min(values) <= 1.5
        assert values[0] == 2.0 and values[2] == 3.0  # only the outlier moved
        assert values[1] != 4.4
        assert not len(result.unconverged_keys)

    def test_redraw_exhaustion_flags_but_still_converges_via_median(self):
        # retained values [1.0, 5.0] admit no draw within threshold 1 of
        # both, so the redraw falls back to the median and flags the group
        truth = dataset([("u", 3.0, 0.2)])
        obs = obs_from_groups({"u": [1.0, 5.0, 3.0]})
        cfg = dict(
            threshold=1.0, resampler="redraw", seed=7
        )
        result = denoise_preprocess(obs, truth, **cfg)
        values = group_values(result, "u")
        assert position(result.observations.keys, "u") in result.unconverged_keys
        assert max(values) - min(values) <= 1.0

    def test_redraw_deterministic(self):
        truth = dataset([("u", 3.0, 0.5)])
        obs = obs_from_groups({"u": [0.0, 6.0, 3.0]})
        cfg = dict(
            threshold=1.5, resampler="redraw", seed=11
        )
        a = denoise_preprocess(obs, truth, **cfg)
        b = denoise_preprocess(obs, truth, **cfg)
        assert group_values(a, "u") == group_values(b, "u")

    def test_impossible_redraw_falls_back_and_flags(self):
        # model far from the data: accepted draws are effectively impossible
        truth = dataset([("u", 500.0, 0.01)])
        obs = obs_from_groups({"u": [1.0, 9.0, 5.0]})
        cfg = dict(
            threshold=1.0,
            resampler="redraw",
            max_iterations=5,
            seed=3,
        )
        result = denoise_preprocess(obs, truth, **cfg)
        assert position(result.observations.keys, "u") in result.unconverged_keys
        assert len(result.observations) == 3

    @given(
        st.dictionaries(
            st.text(alphabet="abcdef", min_size=1, max_size=3),
            st.lists(
                st.floats(min_value=-10, max_value=10, allow_nan=False),
                min_size=1,
                max_size=8,
            ),
            min_size=1,
            max_size=5,
        ),
        st.sampled_from([0.5, 1.0, 2.0]),
    )
    @settings(max_examples=100)
    def test_postconditions(self, groups, threshold):
        obs = obs_from_groups(groups)
        result = denoise_preprocess(obs, None, threshold=threshold)
        after = result.observations
        assert len(after) == len(obs)
        assert after.keys.users.tolist() == obs.keys.users.tolist()
        assert after.keys.items.tolist() == obs.keys.items.tolist()
        for p in range(len(after.keys)):
            rows, before_rows = after.pair == p, obs.pair == p
            assert after.trial[rows].tolist() == obs.trial[before_rows].tolist()
            values = after.value[rows]
            if p not in result.unconverged_keys:
                assert max(values) - min(values) <= threshold + 1e-12


class TestPredictorNoiseDeviation:
    def test_pure_predictor_noise(self):
        law = predictor_noise_deviation(4.0, 0.0, prediction=4.0, tau=1.0)
        assert law.mean == 0.0
        assert law.variance == 1.0

    def test_variance_addition(self):
        law = predictor_noise_deviation(4.0, 0.8, prediction=3.0, tau=1.0)
        assert law.mean == pytest.approx(1.0, abs=1e-12)
        assert law.variance == pytest.approx(1.64, abs=1e-12)

    def test_tau_zero_recovers_plain_model(self):
        law = predictor_noise_deviation(4.0, 0.5, prediction=4.0, tau=0.0)
        assert law.mean == 0.0
        assert law.variance == 0.25

    @given(
        st.floats(min_value=0, max_value=5, allow_nan=False),
        st.floats(min_value=0, max_value=5, allow_nan=False),
        st.floats(min_value=0.01, max_value=2, allow_nan=False),
    )
    def test_variance_strictly_increasing_in_tau_and_sigma(self, sigma, tau, bump):
        base = predictor_noise_deviation(3.0, sigma, 3.0, tau).variance
        assert predictor_noise_deviation(3.0, sigma, 3.0, tau + bump).variance > base
        assert predictor_noise_deviation(3.0, sigma + bump, 3.0, tau).variance > base

    def test_rejects_negative_tau(self):
        with pytest.raises(InputError):
            predictor_noise_deviation(4.0, 0.5, 4.0, -0.5)

    @pytest.mark.parametrize(
        "sigma, tau, message",
        [
            (0.5, 1e160, "tau squared must be finite, got tau = 1e+160"),
            (1e200, 1.0, "sigma squared must be finite, got sigma = 1e+200"),
        ],
    )
    def test_rejects_a_square_beyond_float64(self, sigma, tau, message):
        with pytest.raises(InputError) as info:
            predictor_noise_deviation(4.0, sigma, 4.0, tau)
        assert str(info.value) == message


def omission_fixture(sigmas, deviations):
    """Dataset, predictions and point ratings; the dataset's mu are the ratings."""
    users = [f"u{i:05d}" for i in range(len(sigmas))]
    data = dataset([(u, 3.0, float(s)) for u, s in zip(users, sigmas)])
    predictions = predictions_of({u: 3.0 - float(d) for u, d in zip(users, deviations)})
    return data, predictions, data


class TestOmission:
    def test_zero_deviation_not_retained(self):
        data, predictions, ratings = omission_fixture([0.5], [0.0])
        result = omit_insignificant(data, predictions, ratings)
        assert not len(result.retained_keys)
        assert result.filtered_rmse is None
        assert result.retained_fraction == 0.0

    def test_large_deviation_retained(self):
        # |z| = 1.2 / 0.5 = 2.4, p = 0.0164 < 0.05
        data, predictions, ratings = omission_fixture([0.5], [1.2])
        result = omit_insignificant(data, predictions, ratings)
        assert len(result.retained_keys) == 1
        assert result.filtered_rmse == pytest.approx(1.2, abs=1e-12)

    def test_borderline_deviation_not_retained(self):
        # |z| = 0.9 / 0.5 = 1.8 < 1.959964
        data, predictions, ratings = omission_fixture([0.5], [0.9])
        result = omit_insignificant(data, predictions, ratings)
        assert not len(result.retained_keys)

    def test_zero_sigma_any_deviation_is_significant(self):
        data, predictions, ratings = omission_fixture([0.0, 0.0], [0.001, 0.0])
        result = omit_insignificant(data, predictions, ratings)
        assert len(result.retained_keys) == 1

    def test_null_calibration(self):
        rng = np.random.default_rng(2024)
        n = 10000
        sigmas = rng.uniform(0.3, 1.2, n)
        deviations = rng.standard_normal(n) * sigmas
        data, predictions, ratings = omission_fixture(sigmas, deviations)
        result = omit_insignificant(data, predictions, ratings, 0.05)
        assert 0.04 <= result.retained_fraction <= 0.06

    def test_retained_set_monotone_in_alpha(self):
        rng = np.random.default_rng(55)
        sigmas = rng.uniform(0.2, 1.0, 300)
        deviations = rng.standard_normal(300) * sigmas
        data, predictions, ratings = omission_fixture(sigmas, deviations)
        tight = omit_insignificant(data, predictions, ratings, 0.01)
        loose = omit_insignificant(data, predictions, ratings, 0.10)
        assert set(tight.retained_keys.tolist()) <= set(loose.retained_keys.tolist())

    # |d| / sigma just either side of the two-sided critical value, which
    # scipy.stats.norm.isf(alpha / 2) puts at 1.959964, 4.891638 and
    # 0.674490; scipy's 2 * norm.sf gives p = 0.0500075 / 0.0499841,
    # 1.0002e-06 / 9.9969e-07 and 0.500057 / 0.499930
    @pytest.mark.parametrize(
        "alpha, below, above",
        [(0.05, 1.9599, 1.9601), (1e-6, 4.8916, 4.8917), (0.5, 0.6744, 0.6746)],
    )
    def test_retained_set_pinned_to_scipy(self, alpha, below, above):
        sigmas = [0.5, 0.5, 2.0, 2.0]
        deviations = [0.5 * below, 0.5 * above, -2.0 * below, -2.0 * above]
        data, predictions, ratings = omission_fixture(sigmas, deviations)
        result = omit_insignificant(data, predictions, ratings, alpha)
        assert set(ratings.keys.users[result.retained_keys]) == {"u00001", "u00003"}

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5.0)),
                st.floats(min_value=-10.0, max_value=10.0),
            ),
            min_size=1,
            max_size=40,
        ),
        st.floats(min_value=1e-9, max_value=0.999),
    )
    @settings(max_examples=200, deadline=None)
    def test_retained_set_matches_per_pair_erfc(self, rows, alpha):
        sigmas, deviations = zip(*rows)
        data, predictions, ratings = omission_fixture(sigmas, deviations)
        result = omit_insignificant(data, predictions, ratings, alpha)
        expected = []
        predicted = predictions.aligned(data.keys)
        for i, entry in enumerate(data.entries):
            d = ratings.mu[i] - predicted[i]
            if entry.sigma > 0:
                p = math.erfc(abs(d) / entry.sigma * math.sqrt(0.5))
            else:
                p = 0.0 if d != 0.0 else 1.0
            if p < alpha:
                expected.append(i)
        assert result.retained_keys.tolist() == expected

    def test_bad_alpha_rejected(self):
        data, predictions, ratings = omission_fixture([0.5], [0.0])
        with pytest.raises(InputError):
            omit_insignificant(data, predictions, ratings, 0.0)
        with pytest.raises(InputError):
            omit_insignificant(data, predictions, ratings, 1.0)


class TestStrategyComparison:
    def test_identity_denoise_is_indistinguishable(self):
        obs = obs_from_groups({"a": [2.0, 2.4, 2.2], "b": [4.0, 3.6, 3.8]})
        predictions = predictions_of({"a": 2.0, "b": 4.0})
        (report,) = run_strategy_comparison(
            predictions,
            observations=obs,
            denoise_threshold=math.inf,
        )
        assert report["strategy"] == "denoise"
        assert report["score_after"] == report["score_before"]
        assert not report["distinguishable"]

    def test_zero_sigma_dataset_distinct_scores_distinguishable(self):
        data = dataset([("a", 2.0, 0.0), ("b", 4.0, 0.0)])
        predictions = predictions_of({"a": 2.0, "b": 4.0})
        (report,) = run_strategy_comparison(
            predictions, data=data, predictor_tau=1.0
        )
        assert report["strategy"] == "predictor_noise"
        assert report["score_before"] == 0.0
        assert report["score_after"] == pytest.approx(1.0, abs=1e-12)
        assert report["distinguishable"]
        assert report["mean_deviation_variance"] == pytest.approx(1.0, abs=1e-12)

    def test_predictor_noise_tau_zero_is_identity(self):
        data = dataset([("a", 2.0, 0.4), ("b", 4.0, 0.8)])
        predictions = predictions_of({"a": 2.0 + 0.1, "b": 4.0 + 0.1})
        (report,) = run_strategy_comparison(predictions, data=data, predictor_tau=0.0)
        assert report["score_after"] == report["score_before"]
        assert not report["distinguishable"]

    def test_small_denoise_gap_stays_inside_floor(self):
        # spread-heavy dataset: the de-noised score moves, but far less than
        # the floor's 95% band, so no significant improvement is detected
        rng = np.random.default_rng(91)
        groups = {}
        predictions = {}
        for i in range(400):
            mu = rng.uniform(2.0, 4.0)
            groups[f"u{i:04d}"] = list(mu + rng.normal(0, 0.8, 5))
            predictions[f"u{i:04d}"] = mu
        obs = obs_from_groups(groups)
        (report,) = run_strategy_comparison(
            predictions_of(predictions),
            observations=obs,
            denoise_threshold=2.5,
        )
        assert report["score_after"] != report["score_before"]
        assert not report["distinguishable"]

    def test_omission_report_carries_fraction(self):
        rng = np.random.default_rng(12)
        sigmas = rng.uniform(0.3, 1.0, 500)
        deviations = rng.standard_normal(500) * sigmas
        data, predictions, _ = omission_fixture(sigmas, deviations)
        (report,) = run_strategy_comparison(
            predictions, data=data, omit_alpha=0.05
        )
        assert report["strategy"] == "omission"
        assert 0.0 <= report["retained_fraction"] <= 1.0
        assert report["score_after"] is None or report["score_after"] >= 0.0

    def test_all_strategies_in_order(self):
        obs = obs_from_groups({"a": [2.0, 2.5, 2.1], "b": [4.0, 3.4, 3.8]})
        predictions = predictions_of({"a": 2.2, "b": 3.7})
        reports = run_strategy_comparison(
            predictions,
            observations=obs,
            denoise_threshold=1.0,
            predictor_tau=1.0,
            omit_alpha=0.05,
        )
        assert [r["strategy"] for r in reports] == [
            "denoise",
            "predictor_noise",
            "omission",
        ]

    def test_no_strategy_requested(self):
        predictions = predictions_of({"a": 2.0})
        with pytest.raises(InputError):
            run_strategy_comparison(predictions, data=None, observations=None)

    def test_bad_tau_rejected_before_any_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before checking tau")

        monkeypatch.setattr("uncertain_eval.strategies.fit_uncertainty", no_fit)
        obs = obs_from_groups({"a": [2.0, 2.4], "b": [4.0, 3.6]})
        predictions = predictions_of({"a": 2.0, "b": 4.0})
        with pytest.raises(InputError, match="tau must be finite and >= 0, got -1.0"):
            run_strategy_comparison(
                predictions,
                observations=obs,
                denoise_threshold=1.0,
                predictor_tau=-1.0,
            )

    @pytest.mark.parametrize("setting, message", [
        ({"denoise_max_iterations": 0}, "max_iterations must be >= 1, got 0"),
        ({"denoise_resampler": "mean"}, "unknown resampler 'mean'; expected median or redraw"),
        ({"denoise_seed": -1}, "seed must be a 64-bit unsigned integer, got -1"),
    ])
    def test_bad_denoise_setting_rejected_without_a_threshold(self, monkeypatch, setting, message):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before checking the de-noise settings")

        monkeypatch.setattr("uncertain_eval.strategies.fit_uncertainty", no_fit)
        obs = obs_from_groups({"a": [2.0, 2.4], "b": [4.0, 3.6]})
        predictions = predictions_of({"a": 2.0, "b": 4.0})
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            run_strategy_comparison(predictions, observations=obs, predictor_tau=1.0, **setting)

    def test_report_json_schema(self):
        data = dataset([("a", 2.0, 0.5)])
        predictions = predictions_of({"a": 2.0})
        (report,) = run_strategy_comparison(predictions, data=data, predictor_tau=1.0)
        assert list(report) == [
            "strategy",
            "score_before",
            "score_after",
            "retained_fraction",
            "distinguishable",
            "z_gap",
            "mean_deviation_variance",
        ]
