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
    feedback,
    fit_uncertainty,
    pooled_sigma,
)
from uncertain_eval.cli import _parse_fallback
from uncertain_eval.feedback import _group
from uncertain_eval.io import write_feedback


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

    @pytest.mark.parametrize(
        "bounds, step",
        [((0.0, 1e50), 1e-260), ((1.0, 5.0), 1e-320)],
        ids=["wide span", "subnormal step"],
    )
    def test_step_count_beyond_float64_rejected(self, bounds, step):
        with pytest.raises(InputError) as info:
            RatingScale(*bounds, discrete_step=step)
        span = bounds[1] - bounds[0]
        assert str(info.value) == f"rating scale step count overflows float64: {span} / {step}"


class TestKeyTable:
    """The constructor takes only a canonical table: pairs strictly increasing."""

    @pytest.mark.parametrize(
        "users, items, message",
        [
            (["u", "u"], ["i", "i"], "key table pairs must strictly increase, got u/i after u/i"),
            (["b", "a"], ["i", "i"], "key table pairs must strictly increase, got a/i after b/i"),
            (["a", "a", "a"], ["i", "k", "j"],
             "key table pairs must strictly increase, got a/j after a/k"),
            # by code point, "B" sorts before "a"
            (["a", "B"], ["i", "i"], "key table pairs must strictly increase, got B/i after a/i"),
            (["u", "v"], ["i"], "users and items differ in length: 2 and 1"),
        ],
        ids=["repeated", "users unsorted", "items unsorted", "code point", "unequal lengths"],
    )
    def test_non_canonical_table_rejected(self, users, items, message):
        for column in (list, lambda names: np.array(names, dtype=object)):
            with pytest.raises(InputError) as info:
                KeyTable(column(users), column(items))
            assert str(info.value) == message

    def test_canonical_table_accepted(self):
        table = KeyTable(np.array(["B", "a", "a"], object), np.array(["z", "i", "j"], object))
        assert len(table) == 3
        assert len(KeyTable(np.array([], object), np.array([], object))) == 0

    @pytest.mark.parametrize("column", [list, tuple, np.array], ids=["list", "tuple", "str array"])
    def test_every_form_of_the_columns_writes_the_same(self, tmp_path, column):
        users, items = ["a", "b", "b"], ["x, y", "x", "y"]
        path = tmp_path / "feedback.csv"
        written = []
        for form in (column, lambda ids: np.array(ids, object)):
            table = KeyTable(form(users), form(items))
            assert table.users.dtype == object and table.items.dtype == object
            data = FeedbackDataset.from_columns(table, [0, 1, 2], [1.0] * 3, [0.5] * 3)
            write_feedback(path, data)
            written.append(path.read_text(encoding="utf-8"))
        rows = ["user_id,item_id,mu,sigma", 'a,"x, y",1.0,0.5', "b,x,1.0,0.5", "b,y,1.0,0.5"]
        assert written == ["\n".join(rows) + "\n"] * 2

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: KeyTable([1], [2]), "user id must be a str, got int"),
            (lambda: KeyTable(["u"], np.array([2])), "item id must be a str, got int"),
            (lambda: KeyTable(["u", "v"], ["i", None]), "item id must be a str, got NoneType"),
            (lambda: KeyTable.intern([1, 2], ["a", "b"]), "user id must be a str, got int"),
            (lambda: KeyTable.intern(["u"], [b"i"]), "item id must be a str, got bytes"),
            (lambda: KeyTable.intern(["u", "v"], ["i"]),
             "users and items differ in length: 2 and 1"),
        ],
        ids=["constructor ints", "constructor int array", "constructor None", "intern ints",
             "intern bytes", "intern lengths"],
    )
    def test_id_that_is_no_str_rejected(self, build, message):
        with pytest.raises(InputError) as info:
            build()
        assert str(info.value) == message

    def test_aligning_checks_no_id_again(self, monkeypatch):
        # both tables hold ids checked when they were built
        pred = PredictionSet.from_ids(["a", "b"], ["x", "y"], [1.0, 2.0])
        keys, _ = KeyTable.intern(["b"], ["y"])
        other, _ = KeyTable.intern(["c"], ["y"])

        def refuse(users, items):
            raise AssertionError("ids checked again")

        monkeypatch.setattr(feedback, "_check_ids", refuse)
        assert pred.aligned(keys).tolist() == [2.0]
        with pytest.raises(InputError) as info:
            pred.aligned(other)
        assert str(info.value) == "missing prediction for c/y"


class TestFitUncertainty:
    def test_zero_spread_group(self):
        data = fit_uncertainty(make_obs({"u": [3, 3, 3, 3, 3]}))
        (entry,) = data.entries
        assert entry.mu == 3.0
        assert entry.sigma == 0.0
        assert entry.n_trials == 5

    @pytest.mark.parametrize(
        "rating, trials", [(3.3, 7), (0.1, 3), (1e50, 18), (9.999999999999999e49, 21)]
    )
    def test_identical_trials_fit_to_the_rating(self, rating, trials):
        # numpy's mean of these trials rounds past the rating; the fit keeps it in
        # the trials' range, and measures the spread about it
        (entry,) = fit_uncertainty(make_obs({"u": [rating] * trials})).entries
        assert (entry.mu, entry.sigma) == (rating, 0.0)

    def test_two_value_group(self):
        (entry,) = fit_uncertainty(make_obs({"u": [2, 4]})).entries
        assert entry.mu == pytest.approx(3.0, abs=0)
        assert entry.sigma == pytest.approx(1.4142135623730951, abs=1e-12)

    def test_five_value_group(self):
        (entry,) = fit_uncertainty(make_obs({"u": [4, 5, 4, 3, 4]})).entries
        assert entry.mu == pytest.approx(4.0, abs=0)
        assert entry.sigma == pytest.approx(0.7071067811865476, abs=1e-12)

    @pytest.mark.parametrize(
        "values, message",
        [
            ([1e200, -1e200, 3.0], "rating value must lie in [-1e+50, 1e+50], got 1e+200"),
            ([1.5e308, 1.5e308], "rating value must lie in [-1e+50, 1e+50], got 1.5e+308"),
        ],
        ids=["sigma", "mu"],
    )
    def test_ratings_beyond_the_domain_rejected(self, values, message):
        # ratings whose sigma or mu would leave float64 lie outside the domain
        with pytest.raises(InputError) as info:
            make_obs({"b": values, "a": [2.0, 4.0]})
        assert str(info.value) == message

    def test_fit_beyond_the_domain_rejected(self):
        # ratings at the domain's edge whose sigma lies beyond it, with no numpy warning
        obs = make_obs({"b": [1e50, 1e50, -1e50], "a": [2.0, 4.0]})
        with pytest.raises(InputError) as info:
            fit_uncertainty(obs)
        assert str(info.value) == "sigma must lie in [0, 1e+50], got 1.1547005383792515e+50"

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

    @pytest.mark.parametrize(
        "pair, message",
        [([0, 7], "pair 7 is outside the 2 keys"), ([-1, 0], "pair must be non-negative, got -1")],
        ids=["beyond", "negative"],
    )
    def test_observation_pair_outside_the_table_rejected(self, pair, message):
        with pytest.raises(InputError) as info:
            ObservationSet.from_columns(self.KEYS, pair, [0, 0], [1.0, 2.0])
        assert str(info.value) == message

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_float_trial_that_is_no_number_rejected(self, bad):
        trial = np.array([1.0, bad])
        with pytest.raises(InputError) as info:
            ObservationSet.from_columns(self.KEYS, [0, 1], trial, [1.0, 2.0])
        assert str(info.value) == f"trial must be an integer, got {bad}"

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

    @pytest.mark.parametrize(
        "pair, message",
        [([0, 2], "^pair 2 is outside the 2 keys$"), ([0, -2], "^pair must be non-negative, got -2$")],
        ids=["beyond", "negative"],
    )
    def test_aligned_pair_outside_the_table_rejected(self, pair, message):
        with pytest.raises(InputError, match=message):
            FeedbackDataset.from_columns(self.KEYS, pair, [1.0, 2.0], [0.5, 0.5])
        with pytest.raises(InputError, match=message):
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
        by_user = {e.key[0]: e for e in data.entries}
        assert by_user["solo"].sigma == pytest.approx(
            by_user["multi"].sigma, abs=1e-12
        )

    def test_pooled_policy_unavailable_without_multi_trial_pairs(self):
        with pytest.raises(InputError):
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
        assert pooled_sigma(self._dataset([0.5, 1.5], n_trials=1)) is None
        assert pooled_sigma(self._dataset([0.5], n_trials=None)) is None


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


# (build, columns, message in list form, message in ndarray form); every
# list column is passed as it is and as ``np.array`` of it. None marks a
# case without an ndarray form of its own: a list that numpy itself turns
# into clean numbers or strings, or columns that are arrays already.
COLUMN_FAULTS = {
    # a row that is no number, in each loader
    "rating '3.5'": (ObservationSet.from_ids, (["u"], ["i"], [0], ["3.5"]),
                     "rating value must be a number, got str"),
    "rating True": (ObservationSet.from_ids, (["u"], ["i"], [0], [True]),
                    "rating value must be a number, got bool"),
    "float trial, rating '3.5'": (ObservationSet.from_ids, (["u"], ["i"], [0.0], ["3.5"]),
                                  "rating value must be a number, got str"),
    "mu '3', sigma True": (FeedbackDataset.from_ids, (["u"], ["i"], ["3"], [True]),
                           "mu must be a number, got str"),
    "prediction True": (PredictionSet.from_ids, (["u"], ["i"], [True]),
                        "prediction must be a number, got bool"),
    "trial '0'": (ObservationSet.from_ids, (["u"], ["i"], ["0"], [3.0]),
                  "trial must be an integer, got str"),
    "trial None": (ObservationSet.from_ids, (["u"], ["i"], [None], [3.0]),
                   "trial must be an integer, got NoneType"),
    "trial True": (ObservationSet.from_ids, (["u"], ["i"], [True], [3.0]),
                   "trial must be an integer, got bool"),
    # a bool beside a float, and an int beyond float64
    "prediction [True, 2.0]": (PredictionSet.from_ids, (["u", "v"], ["i", "i"], [True, 2.0]),
                               "prediction must be a number, got bool", None),
    "rating 10**400": (ObservationSet.from_ids, (["u"], ["i"], [0], [10**400]),
                       "rating value must lie in [-1e+50, 1e+50], got inf"),
    # one row per pair row, in one dimension
    "one prediction for two pairs": (PredictionSet.from_ids, (["u", "v"], ["i", "i"], [1.0]),
                                     "prediction must have shape (2,), got (1,)"),
    "one rating for two trials": (
        ObservationSet.from_ids, (["u", "v"], ["i", "i"], [0, 0], [1.0]),
        "rating value must have shape (2,), got (1,)",
    ),
    "ratings in two dimensions": (ObservationSet.from_ids, (["u"], ["i"], [0], [[1.0]]),
                                  "rating value must have shape (1,), got (1, 1)"),
    "one sigma for two pairs": (
        FeedbackDataset.from_ids, (["u", "v"], ["i", "i"], [1.0, 2.0], [0.5]),
        "sigma must have shape (2,), got (1,)",
    ),
    # the id columns of from_ids
    "more users than items": (PredictionSet.from_ids, (["u", "v"], ["i"], [1.0, 2.0]),
                              "users and items differ in length: 2 and 1"),
    "more items than users": (PredictionSet.from_ids, (["u"], ["i", "j"], [1.0, 2.0]),
                              "users and items differ in length: 1 and 2"),
    "int user ids": (PredictionSet.from_ids, ([1, 2], ["i", "i"], [1.0, 2.0]),
                     "user id must be a str, got int", "user id must be a str, got int64"),
    "an int beside a str id": (PredictionSet.from_ids, (["u", 2], ["i", "i"], [1.0, 2.0]),
                               "user id must be a str, got int", None),
    # pair and n_trials take the index rule
    "fractional pair": (
        PredictionSet.from_columns, (TestFromColumns.KEYS, [0.7, 1.2], [1.0, 2.0]),
        "pair must be an integer, got 0.7",
    ),
    "text pair": (
        PredictionSet.from_columns, (TestFromColumns.KEYS, ["0", "1"], [1.0, 2.0]),
        "pair must be an integer, got str",
    ),
    "bool pair": (
        PredictionSet.from_columns, (TestFromColumns.KEYS, [False, True], [1.0, 2.0]),
        "pair must be an integer, got bool",
    ),
    "object pair beyond the keys": (
        ObservationSet.from_columns,
        (TestFromColumns.KEYS, np.array([0, 7], dtype=object), [0, 0], [1.0, 2.0]),
        "pair 7 is outside the 2 keys", None,
    ),
    "aligned object pair beyond the keys": (
        PredictionSet.from_columns,
        (TestFromColumns.KEYS, np.array([0, 2], dtype=object), [1.0, 2.0]),
        "pair 2 is outside the 2 keys", None,
    ),
    "negative n_trials": (FeedbackDataset.from_ids, (["u"], ["i"], [3.0], [0.5], [-3]),
                          "n_trials must be non-negative, got -3"),
    "fractional n_trials": (FeedbackDataset.from_ids, (["u"], ["i"], [3.0], [0.5], [1.5]),
                            "n_trials must be an integer, got 1.5"),
    "text n_trials": (FeedbackDataset.from_ids, (["u"], ["i"], [3.0], [0.5], ["x"]),
                      "n_trials must be an integer, got str"),
    "bool n_trials": (FeedbackDataset.from_ids, (["u"], ["i"], [3.0], [0.5], [True]),
                      "n_trials must be an integer, got bool"),
}
# a ragged or scalar pair, in list (or int) and ndarray form, in each loader:
# pair is checked first, sized by its own shape, so it sizes no other column
COLUMN_FAULTS.update(
    (f"{form} pair in {build.__self__.__name__}", (
        build, (TestFromColumns.KEYS, pair, *[column[:rows] for column in columns]), message, None,
    ))
    for build, columns in (
        (PredictionSet.from_columns, ([1.0, 2.0],)),
        (ObservationSet.from_columns, ([0, 0], [1.0, 2.0])),
        (FeedbackDataset.from_columns, ([1.0, 2.0], [0.5, 0.5])),
    )
    for form, pair, rows, message in (
        ("ragged list", [[0], 1], 2, "pair must be an integer, got list"),
        ("ragged ndarray", np.array([[0], 1], dtype=object), 2, "pair must be an integer, got list"),
        ("int", 0, 1, "pair must have shape (1,), got ()"),
        ("0-d ndarray", np.array(0), 1, "pair must have shape (1,), got ()"),
    )
)


def _column_fault_cases():
    for case, (build, columns, message, *array_message) in COLUMN_FAULTS.items():
        yield pytest.param(build, columns, message, id=f"{case}-list")
        array_message = array_message[0] if array_message else message
        if array_message is not None:
            arrays = tuple(np.array(c) if isinstance(c, list) else c for c in columns)
            yield pytest.param(build, arrays, array_message, id=f"{case}-ndarray")


@pytest.mark.parametrize("build, columns, message", _column_fault_cases())
def test_column_fault_names_its_column(build, columns, message):
    with pytest.raises(InputError) as info:
        build(*columns)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "form",
    [list, np.array, lambda c: np.array(c, dtype=np.float32), lambda c: np.array(c, dtype=object)],
    ids=["list", "ndarray", "float32", "object"],
)
def test_every_form_of_a_clean_column_loads_the_same(form):
    keys = TestFromColumns.KEYS
    obs = ObservationSet.from_columns(keys, form([1, 0]), form([2, 0]), form([4.0, 3.5]))
    columns = [obs.pair.tolist(), obs.trial.tolist(), obs.value.tolist()]
    assert columns == [[0, 1], [0, 2], [3.5, 4.0]]
    assert (obs.trial.dtype, obs.value.dtype) == (np.int64, np.float64)
    data = FeedbackDataset.from_columns(
        keys, form([1, 0]), form([2.0, 1.0]), form([0.5, 0.0]), form([3, 1])
    )
    columns = [data.mu.tolist(), data.sigma.tolist(), data.n_trials.tolist()]
    assert columns == [[1.0, 2.0], [0.0, 0.5], [1, 3]]
    assert data.n_trials.dtype == np.int64


def test_a_float32_column_is_bounded_in_float64():
    # in float32 the bound 1e50 reads as inf, with an overflow warning that
    # the suite turns into an error; the rule tests the float64 values
    keys = TestFromColumns.KEYS
    edge = np.array([3e38, -3e38], dtype=np.float32)
    data = FeedbackDataset.from_columns(keys, [1, 0], edge, np.abs(edge))
    assert data.mu.tolist() == edge[::-1].astype(float).tolist()


def test_a_library_load_checks_column_by_column():
    # a file reader names the first bad row; a library load names the first
    # bad row of the first column it checks: trial before rating, mu before sigma
    with pytest.raises(InputError) as info:
        ObservationSet.from_ids(["u", "v"], ["i", "i"], [0, -1], [math.inf, 1.0])
    assert str(info.value) == "trial must be non-negative, got -1"
    with pytest.raises(InputError) as info:
        FeedbackDataset.from_ids(["u", "v"], ["i", "i"], [1.0, math.inf], [-1.0, 0.5])
    assert str(info.value) == "mu must lie in [-1e+50, 1e+50], got inf"
