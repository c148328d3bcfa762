import math

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
    RatingScale,
    UnavailableError,
    fit_uncertainty,
    pooled_sigma,
)
from uncertain_eval.cli import _parse_fallback
from uncertain_eval.feedback import _group


def make_obs(groups: dict[str, list[float]]) -> ObservationSet:
    users = [name for name, values in groups.items() for _ in values]
    trials = [t for values in groups.values() for t in range(len(values))]
    values = [v for values in groups.values() for v in values]
    return ObservationSet.from_ids(users, ["i1"] * len(users), trials, values)


class TestRatingScale:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(InputError):
            RatingScale(5.0, 1.0)

    def test_rejects_bad_step(self):
        with pytest.raises(InputError):
            RatingScale(1.0, 5.0, discrete_step=-1.0)
        with pytest.raises(InputError):
            RatingScale(1.0, 5.0, discrete_step=0.3)

    def test_accepts_valid_step(self):
        assert RatingScale(1.0, 5.0, discrete_step=0.5).span == 4.0


class TestFitUncertainty:
    def test_zero_spread_group(self):
        data = fit_uncertainty(make_obs({"u": [3, 3, 3, 3, 3]}))
        (entry,) = data.entries
        assert entry.mu == 3.0
        assert entry.sigma == 0.0
        assert entry.n_trials == 5

    def test_two_value_group(self):
        (entry,) = fit_uncertainty(make_obs({"u": [2, 4]})).entries
        assert entry.mu == pytest.approx(3.0, abs=0)
        assert entry.sigma == pytest.approx(1.4142135623730951, abs=1e-12)

    def test_five_value_group(self):
        (entry,) = fit_uncertainty(make_obs({"u": [4, 5, 4, 3, 4]})).entries
        assert entry.mu == pytest.approx(4.0, abs=0)
        assert entry.sigma == pytest.approx(0.7071067811865476, abs=1e-12)

    def test_output_counts_distinct_keys(self):
        data = fit_uncertainty(make_obs({"a": [1, 2], "b": [3, 4], "c": [5, 5]}))
        assert data.N == 3

    def test_empty_input_rejected(self):
        with pytest.raises(InputError):
            fit_uncertainty(ObservationSet.from_ids([], [], [], []))

    def test_non_finite_value_rejected(self):
        with pytest.raises(InputError):
            ObservationSet.from_ids(["u"], ["i"], [0], [math.nan])

    def test_trial_beyond_64_bits_rejected_by_the_constructor(self):
        with pytest.raises(InputError) as info:
            ObservationSet.from_ids(["u"], ["i"], [2**63], [1.0])
        assert str(info.value) == f"trial must be below 2**63, got {2**63}"

    def test_duplicate_trial_rejected(self):
        with pytest.raises(InputError):
            ObservationSet.from_ids(["u", "u"], ["i", "i"], [0, 0], [3.0, 4.0])


class TestFromColumns:
    """``pair`` must index the key table; aligned sets hold each pair once."""

    KEYS = KeyTable.intern(["a", "b"], ["i", "i"])[0]

    def test_trial_beyond_64_bits_rejected(self):
        with pytest.raises(InputError) as info:
            ObservationSet.from_columns(self.KEYS, [0], [2**63], [1.0])
        assert str(info.value) == f"trial must be below 2**63, got {2**63}"

    def test_trial_below_64_bits_rejected(self):
        with pytest.raises(InputError) as info:
            ObservationSet.from_columns(self.KEYS, [0, 1], [0, -(2**63) - 1], [1.0, 2.0])
        assert str(info.value) == f"trial must be non-negative, got {-(2**63) - 1}"

    @pytest.mark.parametrize("pair", [[0, 7], [-1, 0]], ids=["beyond", "negative"])
    def test_observation_pair_outside_the_table_rejected(self, pair):
        with pytest.raises(InputError) as info:
            ObservationSet.from_columns(self.KEYS, pair, [0, 0], [1.0, 2.0])
        assert str(info.value) == f"pair {max(pair, key=abs)} is outside the 2 keys"

    def test_observation_key_without_rows_accepted(self):
        obs = ObservationSet.from_columns(self.KEYS, [1, 1], [0, 1], [1.0, 2.0])
        assert obs.counts().tolist() == [0, 2]

    def test_fit_rejects_a_key_without_rows(self):
        obs = ObservationSet.from_columns(self.KEYS, [1, 1], [0, 1], [1.0, 2.0])
        with pytest.raises(InputError) as info:
            fit_uncertainty(obs)
        assert str(info.value) == "no observations for a/i"

    def test_unsigned_trial_beyond_64_bits_rejected(self):
        trial = np.array([0, 2**63], dtype=np.uint64)
        with pytest.raises(InputError) as info:
            ObservationSet.from_columns(self.KEYS, [0, 1], trial, [1.0, 2.0])
        assert str(info.value) == f"trial must be below 2**63, got {2**63}"

    @pytest.mark.parametrize("dtype", [float, np.float32])
    def test_fractional_trial_rejected(self, dtype):
        trial = np.array([1.0, 2.5], dtype=dtype)
        with pytest.raises(InputError) as info:
            ObservationSet.from_columns(self.KEYS, [0, 1], trial, [1.0, 2.0])
        assert str(info.value) == "trial must be an integer, got 2.5"

    def test_whole_float_and_unsigned_trials_accepted(self):
        for trial in (np.array([3.0, 0.0]), np.array([3, 2**63 - 1], dtype=np.uint64)):
            obs = ObservationSet.from_columns(self.KEYS, [0, 1], trial, [1.0, 2.0])
            assert obs.trial.dtype == np.int64
            assert obs.trial.tolist() == trial.astype(np.int64).tolist()

    @pytest.mark.parametrize("trial", [[2**53 + 1, float(2**53)], [2**63 - 1, 1.0]])
    def test_ints_beside_float_trials_keep_every_digit(self, trial):
        obs = ObservationSet.from_columns(self.KEYS, [0, 0], trial, [1.0, 2.0])
        assert obs.trial.tolist() == sorted(int(t) for t in trial)

    def test_repeated_feedback_pair_rejected(self):
        with pytest.raises(InputError, match="^feedback dataset keys must be unique$"):
            FeedbackDataset.from_columns(self.KEYS, [1, 1], [1.0, 2.0], [0.5, 0.5])

    def test_repeated_prediction_pair_rejected(self):
        with pytest.raises(InputError, match="^prediction keys must be unique$"):
            PredictionSet.from_columns(self.KEYS, [1, 1], [1.0, 2.0])

    @pytest.mark.parametrize("pair", [[0, 2], [0, -2]], ids=["beyond", "negative"])
    def test_aligned_pair_outside_the_table_rejected(self, pair):
        with pytest.raises(InputError, match="is outside the 2 keys"):
            FeedbackDataset.from_columns(self.KEYS, pair, [1.0, 2.0], [0.5, 0.5])
        with pytest.raises(InputError, match="is outside the 2 keys"):
            PredictionSet.from_columns(self.KEYS, pair, [1.0, 2.0])

    def test_aligned_key_without_row_rejected(self):
        with pytest.raises(InputError, match="^feedback dataset has no row for b/i$"):
            FeedbackDataset.from_columns(self.KEYS, [0], [1.0], [0.5])
        with pytest.raises(InputError, match="^prediction has no row for a/i$"):
            PredictionSet.from_columns(self.KEYS, [1], [1.0])

    def test_permuted_pair_scatters_every_position(self):
        data = FeedbackDataset.from_columns(self.KEYS, [1, 0], [2.0, 1.0], [0.2, 0.1])
        assert data.mu.tolist() == [1.0, 2.0]
        assert data.n_trials.tolist() == [0, 0]


class TestSigmaFallback:
    def test_zero_policy(self):
        data = fit_uncertainty(make_obs({"solo": [4.0]}), 0.0)
        assert data.entries[0].sigma == 0.0

    def test_fixed_policy(self):
        data = fit_uncertainty(
            make_obs({"solo": [4.0]}), 0.7
        )
        assert data.entries[0].sigma == 0.7

    def test_pooled_policy_borrows_from_multi_trial_pairs(self):
        data = fit_uncertainty(make_obs({"solo": [4.0], "multi": [2.0, 4.0]}))
        by_user = {e.key.user_id: e for e in data.entries}
        assert by_user["solo"].sigma == pytest.approx(
            by_user["multi"].sigma, abs=1e-12
        )

    def test_pooled_policy_unavailable_without_multi_trial_pairs(self):
        with pytest.raises(UnavailableError):
            fit_uncertainty(make_obs({"a": [4.0], "b": [2.0]}))

    def test_parse(self):
        assert _parse_fallback("pooled") is None
        assert _parse_fallback("zero") == 0.0
        assert _parse_fallback("fixed:0.25") == 0.25
        with pytest.raises(InputError):
            _parse_fallback("median")
        with pytest.raises(InputError):
            _parse_fallback("fixed:abc")

    def test_fixed_requires_non_negative_value(self):
        with pytest.raises(InputError):
            fit_uncertainty(make_obs({"solo": [4.0]}), -1.0)


class TestPooledSigma:
    def _dataset(self, sigmas, n_trials=5):
        n = len(sigmas)
        users = [f"u{i}" for i in range(n)]
        return FeedbackDataset.from_ids(users, ["i1"] * n, [3.0] * n, sigmas, [n_trials or 0] * n)

    def test_all_zero(self):
        assert pooled_sigma(self._dataset([0.0, 0.0, 0.0])) == 0.0

    def test_uniform(self):
        assert pooled_sigma(self._dataset([1.0, 1.0])) == pytest.approx(1.0, abs=1e-12)

    def test_mixed(self):
        assert pooled_sigma(self._dataset([0.5, 1.5])) == pytest.approx(
            1.118033988749895, abs=1e-12
        )

    def test_unavailable_without_multi_trial_entries(self):
        with pytest.raises(UnavailableError):
            pooled_sigma(self._dataset([0.5, 1.5], n_trials=1))
        with pytest.raises(UnavailableError):
            pooled_sigma(self._dataset([0.5], n_trials=None))


group_values = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)


class TestFitProperties:
    @given(group_values)
    def test_mu_within_observed_range(self, values):
        (entry,) = fit_uncertainty(
            make_obs({"u": values}), 0.0
        ).entries
        assert min(values) - 1e-9 <= entry.mu <= max(values) + 1e-9

    @given(group_values, st.randoms(use_true_random=False))
    def test_sigma_permutation_invariant(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        fit_a = fit_uncertainty(make_obs({"u": values}), 0.0)
        fit_b = fit_uncertainty(make_obs({"u": shuffled}), 0.0)
        assert fit_a.entries[0].sigma == pytest.approx(
            fit_b.entries[0].sigma, abs=1e-9
        )

    @given(group_values, st.floats(min_value=-50, max_value=50, allow_nan=False))
    @settings(max_examples=60)
    def test_constant_shift_moves_mu_only(self, values, c):
        base = fit_uncertainty(make_obs({"u": values}), 0.0).entries[0]
        shifted = fit_uncertainty(
            make_obs({"u": [v + c for v in values]}), 0.0
        ).entries[0]
        assert shifted.mu == pytest.approx(base.mu + c, abs=1e-7)
        assert shifted.sigma == pytest.approx(base.sigma, abs=1e-7)

    @given(group_values, st.integers(min_value=2, max_value=4))
    def test_replicated_groups_fit_identically(self, values, copies):
        groups = {f"u{j}": values for j in range(copies)}
        data = fit_uncertainty(make_obs(groups), 0.0)
        mus = {e.mu for e in data.entries}
        sigmas = {e.sigma for e in data.entries}
        assert len(mus) == 1 and len(sigmas) == 1


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_group_is_unique_on_both_sides_of_the_density_switch(data):
    # a table of 4 cells per code or fewer is marked, a larger one sorted
    n = data.draw(st.integers(1, 40))
    size = 4 * n + data.draw(st.sampled_from([-1, 0, 1]))
    code = st.one_of(st.integers(0, size - 1), st.just(size - 1), st.integers(0, 2))
    codes = np.array(data.draw(st.lists(code, min_size=n, max_size=n)), dtype=np.intp)
    distinct, rank = _group(codes, size)
    want_distinct, want_rank = np.unique(codes, return_inverse=True)
    assert distinct.dtype == want_distinct.dtype and rank.dtype == want_rank.dtype
    assert distinct.tolist() == want_distinct.tolist()
    assert rank.tolist() == want_rank.tolist()


def test_group_of_no_codes():
    distinct, rank = _group(np.array([], dtype=np.intp), 0)
    assert distinct.tolist() == [] and rank.tolist() == []
