"""The integer rule of seeds and counts: a Python or numpy integer, not a bool."""

import numpy as np
import pytest

from uncertain_eval import (
    FeedbackDataset,
    InputError,
    McConfig,
    ObservationSet,
    PopulationSpec,
    PredictionSet,
    RatingScale,
    denoise_preprocess,
    draw_trials,
    fit_roundtrip_check,
    run_strategy_comparison,
)
from uncertain_eval.rng import check_count, validate_seed
from uncertain_eval.strategies import check_strategy_request

IDS = (["u"], ["i"])
OBS = ObservationSet.from_ids(["u", "u"], ["i", "i"], [0, 1], [3.0, 5.0])
DATA = FeedbackDataset.from_ids(*IDS, [3.0], [0.5])
PRED = PredictionSet.from_ids(*IDS, [3.0])


def _spec(**counts):
    sizes = {"n_users": 2, "n_items": 2, **counts}
    return PopulationSpec(**sizes, scale=RatingScale(1.0, 5.0, 1.0), sigma_lo=0.3, sigma_hi=0.8)


# Each count entry point: (name in its messages, call with a count, a legal count,
# what the call's result is compared by).
ENTRY_POINTS = {
    "check_strategy_request": (
        "max_iterations",
        lambda v: check_strategy_request(denoise_threshold=1.0, denoise_max_iterations=v),
        3, lambda result: result,
    ),
    "denoise_preprocess": (
        "max_iterations", lambda v: denoise_preprocess(OBS, None, 1.0, max_iterations=v),
        1, lambda result: result.observations.value.tolist(),
    ),
    "run_strategy_comparison": (
        "max_iterations",
        lambda v: run_strategy_comparison(
            PRED, observations=OBS, denoise_threshold=1.0, denoise_max_iterations=v
        ),
        1, lambda result: result,
    ),
    "McConfig": (
        "sample_count", lambda v: McConfig(sample_count=v, seed=1), 200,
        lambda cfg: (type(cfg.sample_count), cfg.sample_count),
    ),
    "draw_trials": (
        "trials per pair", lambda v: draw_trials(DATA, v, seed=4), 2,
        lambda obs: (obs.trial.tolist(), obs.value.tolist()),
    ),
    "PopulationSpec n_users": (
        "n_users", lambda v: _spec(n_users=v), 2,
        lambda spec: (type(spec.n_users), spec),
    ),
    "PopulationSpec n_items": (
        "n_items", lambda v: _spec(n_items=v), 2,
        lambda spec: (type(spec.n_items), spec),
    ),
    "fit_roundtrip_check": (
        "trials per pair", lambda v: fit_roundtrip_check(_spec(), v), 2, lambda worst: worst,
    ),
}

NOT_INTEGERS = {"float": 1.5, "str": "3", "bool": True, "float64": np.float64(2.0)}


@pytest.mark.parametrize("kind", NOT_INTEGERS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_count_that_is_no_integer_rejected(entry, kind):
    name, call, _, _ = ENTRY_POINTS[entry]
    with pytest.raises(InputError) as info:
        call(NOT_INTEGERS[kind])
    assert str(info.value) == f"{name} must be an integer, got {kind}"


@pytest.mark.parametrize("integer", [np.int32, np.uint64])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_numpy_integer_count_accepted(entry, integer):
    _, call, count, outcome = ENTRY_POINTS[entry]
    assert outcome(call(integer(count))) == outcome(call(count))


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "n must be an integer, got bool"),
        (None, "n must be an integer, got NoneType"),
        (0, "n must be >= 1, got 0"),
        (np.int64(-2), "n must be >= 1, got -2"),
        (6, "n must be <= 5, got 6"),
        (np.uint64(2**64 - 1), f"n must be <= 5, got {2**64 - 1}"),
    ],
)
def test_check_count_messages(value, message):
    with pytest.raises(InputError) as info:
        check_count(value, "n", 1, 5)
    assert str(info.value) == message


def test_check_count_returns_a_python_int():
    for value in (1, np.int8(1), np.uint64(5), 10**30):
        count = check_count(value, "n", 1)
        assert type(count) is int and count == value


@pytest.mark.parametrize("seed", [True, False])
def test_seed_that_is_a_bool_rejected(seed):
    with pytest.raises(InputError) as info:
        validate_seed(seed)
    assert str(info.value) == f"seed must be an integer, got {type(seed).__name__}"
