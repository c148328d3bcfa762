import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncertain_eval import (
    FeedbackDataset,
    InputError,
    KeyTable,
    PopulationSpec,
    RatingScale,
    draw_trials,
    generate_population,
)
from uncertain_eval.rng import child_rng
from uncertain_eval.simulate import _POPULATION_STREAM, MAX_OBSERVATION_ROWS, MAX_POPULATION_PAIRS

from oracles import fit_roundtrip_check

SCALE = RatingScale(1.0, 5.0, discrete_step=1.0)


def spec(**overrides) -> PopulationSpec:
    base = dict(
        n_users=4,
        n_items=5,
        scale=SCALE,
        sigma_lo=0.2,
        sigma_hi=0.9,
        density=1.0,
        seed=42,
    )
    base.update(overrides)
    return PopulationSpec(**base)


class TestGeneratePopulation:
    def test_full_density_pair_count(self):
        truth, _ = generate_population(spec(n_users=2, n_items=3))
        assert truth.N == 6

    def test_partial_density_rounds_up(self):
        truth, _ = generate_population(spec(density=0.37))
        assert truth.N == math.ceil(0.37 * 20)

    def test_zero_sigma_prior(self):
        truth, _ = generate_population(spec(sigma_lo=0.0, sigma_hi=0.0))
        assert np.all(truth.sigma == 0.0)

    def test_deterministic(self):
        a, a_predictions = generate_population(spec())
        b, b_predictions = generate_population(spec())
        assert a.entries == b.entries
        assert a_predictions.keys.users.tolist() == b_predictions.keys.users.tolist()
        assert a_predictions.keys.items.tolist() == b_predictions.keys.items.tolist()
        assert a_predictions.values.tolist() == b_predictions.values.tolist()

    def test_mu_within_scale(self):
        truth, _ = generate_population(spec(n_users=30, n_items=30))
        mus = truth.mu
        assert np.all(mus >= SCALE.min_value) and np.all(mus <= SCALE.max_value)

    def test_prediction_bias_prior(self):
        truth, predictions = generate_population(spec(bias_lo=0.5, bias_hi=0.5))
        predicted = predictions.aligned(truth.keys)
        for entry, prediction in zip(truth.entries, predicted):
            assert prediction == pytest.approx(entry.mu + 0.5, abs=1e-12)

    def test_invalid_density(self):
        with pytest.raises(InputError, match="density"):
            spec(density=0.0)
        with pytest.raises(InputError, match="density"):
            spec(density=1.5)

    def test_invalid_sigma_prior(self):
        with pytest.raises(InputError, match="sigma"):
            spec(sigma_lo=0.9, sigma_hi=0.2)

    def test_pair_count_is_bounded(self):
        # the bound holds at least 100x the benchmark's 90k pairs
        assert MAX_POPULATION_PAIRS >= 100 * 90_000
        spec(n_users=MAX_POPULATION_PAIRS, n_items=1)
        # constructor only: nothing is generated
        for n_users, n_items in [(MAX_POPULATION_PAIRS + 1, 1), (10**6, 10**6)]:
            with pytest.raises(InputError, match=r"n_users \* n_items"):
                spec(n_users=n_users, n_items=n_items)

    @pytest.mark.parametrize("density", [1.0, 0.3])
    @pytest.mark.parametrize("n_items", [1, 9, 10, 11, 100])
    @pytest.mark.parametrize("n_users", [1, 9, 10, 11, 100])
    def test_key_table_is_the_interned_one(self, n_users, n_items, density):
        truth, predictions = generate_population(
            spec(n_users=n_users, n_items=n_items, density=density)
        )
        keys, pair = KeyTable.intern(truth.keys.users, truth.keys.items)
        assert keys.users.tolist() == truth.keys.users.tolist()
        assert keys.items.tolist() == truth.keys.items.tolist()
        assert pair.tolist() == list(range(truth.N))
        assert predictions.keys is truth.keys

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 120),
        st.integers(1, 12),
        st.sampled_from([1.0, 0.5, 0.05, 1e-3]),
        st.integers(0, 2**64 - 1),
    )
    def test_key_table_is_the_one_of_every_formatted_id(self, n_users, n_items, density, seed):
        # the drawn cells, in draw order, interned over the ids of every user and item
        truth, _ = generate_population(
            spec(n_users=n_users, n_items=n_items, density=density, seed=seed)
        )
        total = n_users * n_items
        chosen = np.arange(total)
        if truth.N < total:
            rng = child_rng(seed, _POPULATION_STREAM)
            chosen = np.sort(rng.choice(total, size=truth.N, replace=False))
        users = [f"u{u:0{len(str(n_users))}d}" for u in range(1, n_users + 1)]
        items = [f"i{i:0{len(str(n_items))}d}" for i in range(1, n_items + 1)]
        keys, pair = KeyTable.intern(
            [users[c // n_items] for c in chosen.tolist()],
            [items[c % n_items] for c in chosen.tolist()],
        )
        assert keys.users.tolist() == truth.keys.users.tolist()
        assert keys.items.tolist() == truth.keys.items.tolist()
        assert pair.tolist() == list(range(truth.N))

    def test_sparse_population_makes_only_the_drawn_ids(self):
        # 2 pairs of a million users: a million formatted ids would take tens of MiB
        tracemalloc.start()
        try:
            truth, _ = generate_population(spec(n_users=1_000_000, n_items=2, density=1e-6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert truth.N == 2
        assert peak < 5 * 2**20


class TestDrawTrials:
    def test_zero_sigma_gives_constant_trials(self):
        truth, _ = generate_population(spec(n_users=1, n_items=1, sigma_lo=0, sigma_hi=0))
        obs = draw_trials(truth, k=5)
        mu = truth.entries[0].mu
        assert obs.value.tolist() == [mu] * 5

    def test_sample_mean_concentrates(self):
        truth, _ = generate_population(
            spec(n_users=1, n_items=1, scale=RatingScale(0.0, 6.0))
        )
        entry = truth.entries[0]
        obs = draw_trials(truth, k=100000, seed=7)
        values = obs.value
        # CLT bound at ~99.8%: 3.1 * sigma / sqrt(k), checked at +-0.005
        assert abs(float(np.mean(values)) - entry.mu) < max(
            0.005, 3.1 * entry.sigma / math.sqrt(100000)
        )

    def test_discretise_rounds_and_clamps(self):
        truth, _ = generate_population(
            spec(n_users=10, n_items=10, sigma_lo=1.0, sigma_hi=1.0)
        )
        obs = draw_trials(truth, k=100, seed=3, scale=SCALE)
        values = obs.value
        assert np.all(values >= 1.0) and np.all(values <= 5.0)
        assert np.all(values == np.round(values))

    def test_edge_mu_clamping_bias(self):
        scale = RatingScale(1.0, 5.0, discrete_step=1.0)
        truth, _ = generate_population(
            spec(n_users=1, n_items=1, scale=scale, sigma_lo=1.0, sigma_hi=1.0)
        )
        entry = truth.entries[0]
        # force the pair's centre to the top of the scale
        pinned = FeedbackDataset.from_ids([entry.key[0]], [entry.key[1]], [5.0], [1.0])
        obs = draw_trials(pinned, k=10000, seed=9, scale=scale)
        values = obs.value
        assert np.all(values <= 5.0)
        assert float(np.mean(values)) < 5.0

    def test_row_count_is_bounded(self):
        # the bound holds at least 100x the benchmark's 450k rows; one pair
        # with too many trials is rejected before anything is drawn
        assert MAX_OBSERVATION_ROWS >= 100 * 450_000
        truth, _ = generate_population(spec(n_users=1, n_items=1))
        for k in (MAX_OBSERVATION_ROWS + 1, 10**15):
            with pytest.raises(InputError, match=f"1 pairs x {k} trials"):
                draw_trials(truth, k=k)

    def test_discretise_requires_step(self):
        continuous = spec(scale=RatingScale(1.0, 5.0))
        truth, _ = generate_population(continuous)
        with pytest.raises(InputError):
            draw_trials(truth, k=3, scale=continuous.scale)

    def test_seed_that_is_no_integer_rejected(self):
        data = FeedbackDataset.from_ids(["u"], ["i"], [3.0], [0.5])
        with pytest.raises(InputError, match="^seed must be an integer, got float$"):
            draw_trials(data, 2, seed=1.5)

    def test_deterministic_for_seed(self):
        truth, _ = generate_population(spec())
        a = draw_trials(truth, k=4, seed=5)
        b = draw_trials(truth, k=4, seed=5)
        assert a.keys.users.tolist() == b.keys.users.tolist()
        assert a.keys.items.tolist() == b.keys.items.tolist()
        for column in ("pair", "trial", "value"):
            assert getattr(a, column).tolist() == getattr(b, column).tolist()

    def test_standardised_residuals(self):
        data, _ = generate_population(
            spec(n_users=5, n_items=4, sigma_lo=0.3, sigma_hi=1.0,
                 scale=RatingScale(-50.0, 50.0))
        )
        obs = draw_trials(data, k=5000, seed=13)
        model = obs.keys.locate(data.keys, "no model")[obs.pair]
        residuals = (obs.value - data.mu[model]) / data.sigma[model]
        assert residuals.size >= 100000
        assert abs(float(np.mean(residuals))) < 0.02
        assert abs(float(np.var(residuals)) - 1.0) < 0.02


class TestFitRoundtrip:
    def test_large_k_recovers_sigma(self):
        worst = fit_roundtrip_check(
            spec(n_users=2, n_items=3, sigma_lo=0.5, sigma_hi=0.5,
                 scale=RatingScale(-50.0, 50.0)),
            k=20000,
        )
        assert worst < 0.05

    def test_zero_sigma_prior_defines_zero_error(self):
        worst = fit_roundtrip_check(spec(sigma_lo=0.0, sigma_hi=0.0), k=10)
        assert worst == 0.0
        assert worst < 0.02

    def test_tiny_k_reports_without_asserting(self):
        assert math.isfinite(fit_roundtrip_check(spec(), k=2))

    def test_requires_two_trials(self):
        with pytest.raises(InputError):
            fit_roundtrip_check(spec(), k=1)
