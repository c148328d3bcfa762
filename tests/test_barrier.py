import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncertain_eval import (
    FeedbackDataset,
    GaussianDistribution,
    InputError,
    Z_TWO_SIDED_95,
    barrier_distribution,
    confidence_interval,
    distinguishability_test,
    relation_test,
)


def dataset_from_sigmas(sigmas) -> FeedbackDataset:
    n = len(sigmas)
    users = [f"u{i:06d}" for i in range(n)]
    return FeedbackDataset.from_ids(users, ["i1"] * n, [3.0] * n, [float(s) for s in sigmas])


def barrier_from_variance(variance: float) -> GaussianDistribution:
    return GaussianDistribution(mean=1.0, variance=variance)


class TestGaussianDistribution:
    @pytest.mark.parametrize(
        "mean, variance, message",
        [
            (math.inf, 1.0, "mean must be finite, got inf"),
            (0.0, -1.0, "variance must be finite and >= 0, got -1.0"),
            (0.0, math.nan, "variance must be finite and >= 0, got nan"),
        ],
    )
    def test_rejects_a_bad_law(self, mean, variance, message):
        with pytest.raises(InputError) as info:
            GaussianDistribution(mean, variance)
        assert str(info.value) == message


class TestBarrierDistribution:
    def test_uniform_unit_sigma(self):
        b = barrier_distribution(dataset_from_sigmas([1.0] * 2000))
        assert b.mean == 1.0
        assert b.variance == pytest.approx(0.00025, rel=1e-12)

    def test_all_zero_sigma_degenerates(self):
        b = barrier_distribution(dataset_from_sigmas([0.0] * 10))
        assert b.mean == 0.0
        assert b.variance == 0.0

    def test_two_sigma_plugin(self):
        b = barrier_distribution(dataset_from_sigmas([0.5, 1.5]))
        assert b.mean == pytest.approx(1.118033988749895, rel=1e-12)
        assert b.variance == pytest.approx(0.5125, rel=1e-12)

    @given(
        st.lists(
            st.floats(min_value=0, max_value=10, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_mean_squared_consistency(self, sigmas):
        b = barrier_distribution(dataset_from_sigmas(sigmas))
        sum_sq = float(np.sum(np.asarray(sigmas, dtype=float) ** 2))
        assert b.mean**2 * len(sigmas) == pytest.approx(
            sum_sq, rel=1e-12, abs=1e-12
        )

    def test_monte_carlo_oracle_medium_n(self):
        # resampling oracle for the closed form; full-size check lives in
        # the acceptance suite
        rng = np.random.default_rng(1234)
        n = 2000
        sigmas = rng.uniform(0.3, 1.2, n)
        b = barrier_distribution(dataset_from_sigmas(sigmas))
        draws = rng.standard_normal((20000, n)) * sigmas[None, :]
        samples = np.sqrt(np.mean(draws * draws, axis=1))
        assert float(np.mean(samples)) == pytest.approx(b.mean, rel=0.01)
        assert float(np.std(samples, ddof=1)) == pytest.approx(
            b.std, rel=0.05
        )


class TestConfidenceInterval:
    def test_standard_normal(self):
        low, high = confidence_interval(GaussianDistribution(0.0, 1.0))
        assert low == pytest.approx(-1.959963984540054, abs=1e-9)
        assert high == pytest.approx(1.959963984540054, abs=1e-9)
        # six-decimal quantile quoted throughout: 1.959964
        assert high == pytest.approx(1.959964, abs=1e-6)

    def test_z_pinned_to_scipy(self):
        # scipy.stats.norm.ppf(0.975); statistics.NormalDist gives one ulp less
        assert Z_TWO_SIDED_95 == 1.959963984540054
        # the library interval and the distinguish verdict share one quantile
        assert confidence_interval(GaussianDistribution(0.0, 1.0)) == (
            -Z_TWO_SIDED_95,
            Z_TWO_SIDED_95,
        )

    def test_degenerate(self):
        assert confidence_interval(GaussianDistribution(5.0, 0.0)) == (5.0, 5.0)

    def test_floor_scale_interval(self):
        low, high = confidence_interval(GaussianDistribution(1.0, 0.00025))
        assert low == pytest.approx(0.9690102483847719, abs=1e-12)
        assert high == pytest.approx(1.030989751615228, abs=1e-12)
        # matches the 6-decimal hand computation 1 +- 1.959964 * 0.0158114
        assert low == pytest.approx(0.969010, abs=2e-6)
        assert high == pytest.approx(1.030990, abs=2e-6)


class TestDistinguishability:
    def test_equal_scores_always_indistinguishable(self):
        r = distinguishability_test(0.87, 0.87, barrier_from_variance(0.00025))
        assert not r["distinguishable"]
        assert r["z_gap"] == 0.0

    def test_small_gap_indistinguishable(self):
        r = distinguishability_test(0.86, 0.90, barrier_from_variance(0.00025))
        assert not r["distinguishable"]
        # gap 0.04 against threshold 2 * 1.959964 * 0.0158114 = 0.061980
        assert 2 * Z_TWO_SIDED_95 * math.sqrt(0.00025) == pytest.approx(
            0.06197950323045615, abs=1e-12
        )

    def test_large_gap_distinguishable(self):
        r = distinguishability_test(0.80, 0.90, barrier_from_variance(0.00025))
        assert r["distinguishable"]

    def test_published_knn_svd_scores(self):
        # published scores 0.8647 vs 0.8800; the verdict flips at
        # std = 0.0153 / (2 * 1.959964) = 0.00390313...
        crossover = abs(0.8800 - 0.8647) / (2 * Z_TWO_SIDED_95)
        assert crossover == pytest.approx(0.003903, abs=5e-7)
        for std in [crossover * 1.0001, 0.0039032, 0.003904, 0.005, 0.05]:
            r = distinguishability_test(0.8647, 0.8800, barrier_from_variance(std**2))
            assert not r["distinguishable"], f"std={std}"
        for std in [crossover * 0.9999, 0.0039, 0.003, 0.001]:
            r = distinguishability_test(0.8647, 0.8800, barrier_from_variance(std**2))
            assert r["distinguishable"], f"std={std}"

    def test_zero_variance_with_distinct_scores(self):
        r = distinguishability_test(0.5, 0.6, barrier_from_variance(0.0))
        assert r["distinguishable"]
        assert math.isinf(r["z_gap"])

    def test_verdict_matches_ci_coverage(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            s1, s2 = rng.uniform(0, 2, 2)
            variance = rng.uniform(1e-8, 0.5)
            r = distinguishability_test(s1, s2, barrier_from_variance(variance))
            covered = r["ci_low"] <= s1 <= r["ci_high"] and r["ci_low"] <= s2 <= r["ci_high"]
            assert covered == (not r["distinguishable"])

    @given(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=1e-8, max_value=2.0, allow_nan=False),
        st.floats(min_value=-10, max_value=10, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_translation_covariance_and_symmetry(self, s1, s2, variance, c):
        b = barrier_from_variance(variance)
        base = distinguishability_test(s1, s2, b)
        assert (
            distinguishability_test(s1 + c, s2 + c, b)["distinguishable"]
            == base["distinguishable"]
        )
        assert distinguishability_test(s2, s1, b)["distinguishable"] == base["distinguishable"]

    @given(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=1e-8, max_value=1.0, allow_nan=False),
        st.floats(min_value=1.0, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_variance_growth_never_creates_distinguishability(
        self, s1, s2, variance, factor
    ):
        small = distinguishability_test(s1, s2, barrier_from_variance(variance))
        large = distinguishability_test(
            s1, s2, barrier_from_variance(variance * factor)
        )
        if not small["distinguishable"]:
            assert not large["distinguishable"]

    def test_midpoint_beyond_float64_is_taken_in_halves(self):
        # s1 + s2 = 3.4e308 overflows float64; the sum of their halves does not
        report = distinguishability_test(1.7e308, 1.7e308, barrier_from_variance(0.00025))
        assert report["shift_mean"] == 1.7e308
        assert (report["z_gap"], report["distinguishable"]) == (0.0, False)

    def test_gap_beyond_float64_is_taken_in_halves(self):
        # |s1 - s2| = 3.4e308 overflows float64; half of it over std 2 does not
        report = distinguishability_test(1.7e308, -1.7e308, GaussianDistribution(0.5, 4.0))
        assert report["z_gap"] == 8.5e307
        assert report["distinguishable"] is True

    def test_report_keys_and_order(self):
        b = barrier_from_variance(0.00025)
        report = distinguishability_test(0.86, 0.90, b)
        assert list(report) == [
            "s1",
            "s2",
            "barrier_mean",
            "barrier_variance",
            "shift_mean",
            "ci_low",
            "ci_high",
            "distinguishable",
            "z_gap",
        ]
        assert report["shift_mean"] == pytest.approx(0.88)
        assert report["distinguishable"] is False


class TestRelationTest:
    def test_identical_distributions(self):
        r = relation_test(
            GaussianDistribution(0.9, 0.1), GaussianDistribution(0.9, 0.1)
        )
        assert r["p_opposite"] == pytest.approx(0.5, abs=1e-12)
        assert not r["holds"]

    def test_ordered_pair_holds(self):
        r = relation_test(
            GaussianDistribution(0.86, 0.00025), GaussianDistribution(0.90, 0.00025)
        )
        assert r["p_opposite"] == pytest.approx(0.0368191350601512, abs=1e-9)
        assert r["p_opposite"] == pytest.approx(0.036819, abs=1e-6)
        assert r["holds"]

    def test_reversed_pair_fails(self):
        r = relation_test(
            GaussianDistribution(0.90, 0.00025), GaussianDistribution(0.86, 0.00025)
        )
        assert r["p_opposite"] == pytest.approx(0.9631808649398488, abs=1e-9)
        assert not r["holds"]

    # scipy.stats.norm.cdf(z), down to the far left tail
    @pytest.mark.parametrize(
        "z, p",
        [
            (-8.0, 6.22096057427174e-16),
            (-5.0, 2.866515718791933e-07),
            (-3.0, 0.0013498980316300933),
            (-0.25, 0.4012936743170763),
            (1.0, 0.8413447460685429),
            (2.5, 0.9937903346742238),
        ],
    )
    def test_p_opposite_matches_scipy(self, z, p):
        r = relation_test(
            GaussianDistribution(z, 0.5), GaussianDistribution(0.0, 0.5)
        )
        assert r["p_opposite"] == pytest.approx(p, rel=1e-14, abs=0)

    def test_degenerate_pairs(self):
        point = GaussianDistribution(0.5, 0.0)
        same = relation_test(point, point)
        assert same["p_opposite"] == 0.5 and not same["holds"]
        below = relation_test(GaussianDistribution(0.4, 0.0), point)
        assert below["p_opposite"] == 0.0 and below["holds"]
        above = relation_test(GaussianDistribution(0.6, 0.0), point)
        assert above["p_opposite"] == 1.0 and not above["holds"]

    # the gap and the variance sum overflow float64; in halves z is about -1.8e154
    @pytest.mark.parametrize(
        "first, second, p",
        [(-1.7e308, 1.7e308, 0.0), (1.7e308, -1.7e308, 1.0)],
        ids=["below", "above"],
    )
    def test_gap_and_variance_beyond_float64(self, first, second, p):
        r = relation_test(
            GaussianDistribution(first, 1.7e308), GaussianDistribution(second, 1.7e308)
        )
        assert r == {"p_opposite": p, "holds": p < 0.05}

    # only the variance sum overflows; p is that of the same laws scaled down by 1e154
    def test_variance_beyond_float64_keeps_the_scaled_p(self):
        r = relation_test(
            GaussianDistribution(-1e154, 1.7e308), GaussianDistribution(1e154, 1.7e308)
        )
        scaled = relation_test(GaussianDistribution(-1.0, 1.7), GaussianDistribution(1.0, 1.7))
        assert 0.1 < scaled["p_opposite"] < 0.2
        assert r["p_opposite"] == pytest.approx(scaled["p_opposite"], rel=1e-12)

    @given(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=1e-8, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_distinguishable_implies_relation_holds(self, s1, s2, variance):
        verdict = distinguishability_test(s1, s2, barrier_from_variance(variance))
        if verdict["distinguishable"]:
            low, high = min(s1, s2), max(s1, s2)
            assert relation_test(
                GaussianDistribution(low, variance),
                GaussianDistribution(high, variance),
            )["holds"]
