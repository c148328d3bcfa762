"""The columnar core against plain per-group references.

Each reference walks one pair at a time over Python lists, the way the
per-row implementation did, and the columnar result must match it bit for
bit: same keys in the same order, same floats (compared by ``float.hex``,
so even the sign of a zero counts).
"""

import random
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uncertain_eval import (
    FeedbackDataset,
    InputError,
    ObservationSet,
    denoise_preprocess,
    fit_uncertainty,
)
from uncertain_eval.rng import child_rng

# Ids from a small alphabet with a non-ASCII letter, an upper-case letter
# and the empty id, so key order is exercised beyond zero-padded numbers.
ids = st.text(alphabet="abZé", max_size=3)
finite = st.floats(min_value=-100, max_value=100, allow_nan=False)
# Values from a small grid make median ties and even-size ties common.
grid = st.sampled_from([1.0, 2.0, 3.0, 4.0, 5.0])


@st.composite
def observation_groups(draw, values=st.one_of(finite, grid)):
    """{key: [(trial, value), ...]} with 1-12 distinct trials per key."""
    keys = draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=8, unique=True))
    groups = {}
    for user, item in keys:
        trials = draw(st.lists(st.integers(0, 40), min_size=1, max_size=12, unique=True))
        groups[(user, item)] = [(t, draw(values)) for t in trials]
    return groups


def shuffled_set(groups, rnd) -> ObservationSet:
    rows = [(*key, t, v) for key, group in groups.items() for t, v in group]
    rnd.shuffle(rows)
    return ObservationSet.from_ids(*zip(*rows))


def model_set(model) -> FeedbackDataset:
    """The dataset of ``{key: (mu, sigma)}``."""
    users, items = [k[0] for k in model], [k[1] for k in model]
    return FeedbackDataset.from_ids(users, items, *zip(*model.values()))


def pair_keys(keys) -> list[tuple[str, str]]:
    return list(zip(keys.users.tolist(), keys.items.tolist()))


def in_trial_order(group) -> list[float]:
    return [v for _, v in sorted(group)]


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def reference_fit(groups, fallback: float | None):
    """(keys, mu, sigma, n_trials) per pair, one group at a time."""
    keys = sorted(groups)
    mu, sigma, n_trials = [], [], []
    for key in keys:
        values = in_trial_order(groups[key])
        # numpy's rounded mean, moved to the nearer bound where it leaves the trials' range
        mean = min(max(float(np.mean(values)), min(values)), max(values))
        mu.append(mean)
        sigma.append(float(np.std(values, ddof=1, mean=mean)) if len(values) >= 2 else None)
        n_trials.append(len(values))
    multi = [s * s for s in sigma if s is not None]
    if fallback is not None:
        single = fallback
    elif multi:
        single = float(np.sqrt(np.mean(multi)))
    else:
        single = None
    if single is None and None in sigma:
        raise InputError("no multi-trial pair to pool from")
    sigma = [single if s is None else s for s in sigma]
    return keys, mu, sigma, n_trials


def reference_median_rule(groups, threshold: float, max_iterations: int):
    """Median-rule de-noising of each group on Python lists."""
    out, unconverged = {}, set()
    for key in sorted(groups):
        values = in_trial_order(groups[key])
        converged = False
        for _ in range(max_iterations):
            if max(values) - min(values) <= threshold:
                converged = True
                break
            med = statistics.median(values)
            # max() keeps the first of equal distances: the lowest trial wins
            far = max(range(len(values)), key=lambda i: abs(values[i] - med))
            values[far] = med
        if not converged and max(values) - min(values) > threshold:
            unconverged.add(key)
        out[key] = values
    return out, unconverged


def reference_redraw(groups, model, threshold: float, max_iterations: int, seed: int):
    """Redraw de-noising with one generator per group, seeded by its key-order index."""
    out, unconverged = {}, set()
    for index, key in enumerate(sorted(groups)):
        values = in_trial_order(groups[key])
        rng = child_rng(seed, index)
        mu, sigma = model[key]
        converged = False
        for _ in range(max_iterations):
            if max(values) - min(values) <= threshold:
                converged = True
                break
            med = statistics.median(values)
            far = max(range(len(values)), key=lambda i: abs(values[i] - med))
            retained = values[:far] + values[far + 1 :]
            for _ in range(max_iterations):
                draw = float(rng.normal(mu, sigma))
                if all(abs(draw - r) <= threshold for r in retained):
                    values[far] = draw
                    break
            else:
                unconverged.add(key)
                values[far] = med
        if not converged and max(values) - min(values) > threshold:
            unconverged.add(key)
        out[key] = values
    return out, unconverged


def denoised_values(result) -> dict:
    """{key: values in trial order} of the de-noised observations."""
    obs = result.observations
    names = pair_keys(obs.keys)
    values = {}
    for p, v in zip(obs.pair.tolist(), obs.value.tolist()):
        values.setdefault(names[p], []).append(v)
    return values


def unconverged_keys(result) -> set:
    names = pair_keys(result.observations.keys)
    return {names[p] for p in result.unconverged_keys.tolist()}


fallbacks = st.sampled_from([0.0, None, 0.5])


class TestFitMatchesReference:
    @given(observation_groups(), fallbacks, st.randoms(use_true_random=False))
    @settings(max_examples=150)
    # identical trials whose rounded mean leaves their range, and a lone -0.0
    @example(
        {
            ("a", "i"): [(t, 3.3) for t in range(7)],
            ("a", "j"): [(t, 0.1) for t in range(3)],
            ("b", "i"): [(t, 1e50) for t in range(18)],
            ("b", "j"): [(t, 9.999999999999999e49) for t in range(21)],
            ("c", "i"): [(0, -0.0)],
        },
        None,
        random.Random(0),
    )
    def test_bit_identical_in_key_order(self, groups, fallback, rnd):
        obs = shuffled_set(groups, rnd)
        try:
            keys, mu, sigma, n_trials = reference_fit(groups, fallback)
        except InputError:
            with pytest.raises(InputError):
                fit_uncertainty(obs, fallback)
            return
        data = fit_uncertainty(obs, fallback)
        assert [e.key for e in data.entries] == keys
        assert hexes(data.mu) == hexes(mu)
        assert hexes(data.sigma) == hexes(sigma)
        assert [e.n_trials for e in data.entries] == n_trials

    def test_long_groups_sum_like_numpy(self):
        # beyond 8 and 128 values numpy sums in blocks; the fit must follow
        rng = np.random.default_rng(5)
        groups = {
            (f"u{k:04d}", "i"): list(enumerate(rng.normal(3.0, 2.0, k).tolist()))
            for k in (2, 7, 8, 9, 16, 127, 128, 129, 300, 1000)
        }
        obs = shuffled_set(groups, random.Random(0))
        keys, mu, sigma, _ = reference_fit(groups, None)
        data = fit_uncertainty(obs)
        assert hexes(data.mu) == hexes(mu)
        assert hexes(data.sigma) == hexes(sigma)


class TestMedianRuleMatchesReference:
    @given(
        observation_groups(),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.sampled_from([1, 2, 25]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150)
    def test_values_and_unconverged_keys(self, groups, threshold, iterations, rnd):
        cfg = dict(threshold=threshold, max_iterations=iterations)
        result = denoise_preprocess(shuffled_set(groups, rnd), None, **cfg)
        values, unconverged = reference_median_rule(groups, threshold, iterations)
        got = denoised_values(result)
        assert list(got) == list(values)
        assert {k: hexes(v) for k, v in got.items()} == {k: hexes(v) for k, v in values.items()}
        assert unconverged_keys(result) == unconverged

    def test_single_pass_exhaustion_flags_group(self):
        # even size: the median is 5.0, and 1.0 and 9.0 tie at distance 4;
        # the lower trial goes, and one pass leaves the group too wide
        groups = {("u", "i"): [(0, 1.0), (1, 9.0), (2, 4.0), (3, 6.0)]}
        cfg = dict(threshold=1.0, max_iterations=1)
        result = denoise_preprocess(shuffled_set(groups, random.Random(1)), None, **cfg)
        assert denoised_values(result) == {("u", "i"): [5.0, 9.0, 4.0, 6.0]}
        assert unconverged_keys(result) == {("u", "i")}


class TestRedrawMatchesReference:
    @given(
        observation_groups(values=grid),
        st.integers(0, 2**32),
        st.sampled_from([1, 3, 25]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60)
    def test_same_draws_for_fixed_seed(self, groups, seed, iterations, rnd):
        model = {key: (3.0, 0.3 + 0.1 * i) for i, key in enumerate(sorted(groups))}
        truth = model_set(model)
        cfg = dict(
            threshold=1.0,
            max_iterations=iterations,
            resampler="redraw",
            seed=seed,
        )
        result = denoise_preprocess(shuffled_set(groups, rnd), truth, **cfg)
        values, unconverged = reference_redraw(groups, model, 1.0, iterations, seed)
        got = denoised_values(result)
        assert {k: hexes(v) for k, v in got.items()} == {k: hexes(v) for k, v in values.items()}
        assert unconverged_keys(result) == unconverged

    def test_pinned_values(self):
        # values of the per-row implementation this core replaced, for seed 11
        groups = {
            "u1": [1.0, 5.0, 3.0, 2.5],
            "u2": [0.0, 6.0, 3.0],
            "u3": [3.0, 3.1],
            "u4": [9.0, 1.0, 5.0, 4.0, 4.5],
        }
        model = {"u1": (3.0, 0.8), "u2": (3.0, 0.5), "u3": (3.0, 0.1), "u4": (500.0, 0.01)}
        rows = [(u, "i1", t, v) for u, vs in groups.items() for t, v in enumerate(vs)]
        obs = ObservationSet.from_ids(*zip(*rows))
        truth = model_set({(u, "i1"): ms for u, ms in model.items()})
        cfg = dict(
            threshold=1.5, resampler="redraw", seed=11, max_iterations=6
        )
        result = denoise_preprocess(obs, truth, **cfg)
        assert {k[0]: v for k, v in denoised_values(result).items()} == {
            "u1": [3.2458679345174057, 2.4766405576076815, 3.0, 2.5],
            "u2": [3.0, 2.3478847538608787, 3.0],
            "u3": [3.0, 3.1],
            "u4": [4.5, 4.5, 5.0, 4.0, 4.5],
        }
        assert sorted(k[0] for k in unconverged_keys(result)) == ["u2", "u4"]
