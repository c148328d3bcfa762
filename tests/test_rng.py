"""The number rules: seeds and counts take a Python or numpy integer, real
settings also a float, and neither a bool."""

import math

import numpy as np
import pytest

from uncertain_eval import (
    FeedbackDataset,
    GaussianDistribution,
    InputError,
    McConfig,
    ObservationSet,
    PopulationSpec,
    PredictionSet,
    RatingScale,
    denoise_preprocess,
    distinguishability_test,
    draw_trials,
    fit_uncertainty,
    generate_population,
    rmse_distribution,
    run_strategy_comparison,
)
from uncertain_eval.metrics import check_tau
from uncertain_eval.rng import check_count, check_real, validate_seed
from uncertain_eval.strategies import check_strategy_request

from conftest import synthetic_demo
from oracles import fit_roundtrip_check, predictor_noise_deviation

IDS = (["u"], ["i"])
OBS = ObservationSet.from_ids(["u", "u"], ["i", "i"], [0, 1], [3.0, 5.0])
DATA = FeedbackDataset.from_ids(*IDS, [3.0], [0.5])
PRED = PredictionSet.from_ids(*IDS, [3.0])


def _spec(**settings):
    settings = {"n_users": 2, "n_items": 2, "sigma_lo": 0.3, "sigma_hi": 0.8, **settings}
    return PopulationSpec(**settings, scale=RatingScale(1.0, 5.0, 1.0))


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


def _typed(*values):
    return [(type(value), value) for value in values]


def _gaussian(g):
    return _typed(g.mean, g.variance)


def _scale(scale):
    return _typed(scale.min_value, scale.max_value, scale.discrete_step)


def _monte_carlo(cfg):
    return _typed(cfg.predictor_tau), rmse_distribution(DATA, PRED, cfg).samples.tolist()


def _population(spec):
    truth, predictions = generate_population(spec)
    stored = _typed(spec.sigma_lo, spec.sigma_hi, spec.density, spec.bias_lo, spec.bias_hi)
    return stored, truth.mu.tolist(), truth.sigma.tolist(), predictions.values.tolist()


def _same(result):
    return result


FLOOR = GaussianDistribution(0.0, 1.0)
SINGLE = ObservationSet.from_ids(["u", "v", "v"], ["i", "i", "i"], [0, 0, 1], [3.0, 2.0, 4.0])

# Each real entry point: (name in its messages, call with a value, a legal
# value, what the call's result is compared by, whether None means "absent").
# The legal values are not exact in float32, so that a setting computed with
# in float32 reads differently from its float.
REAL_ENTRY_POINTS = {
    "GaussianDistribution mean": (
        "mean", lambda v: GaussianDistribution(v, 1.0), 2.3, _gaussian, False,
    ),
    "GaussianDistribution variance": (
        "variance", lambda v: GaussianDistribution(0.0, v), 0.7, _gaussian, False,
    ),
    "distinguishability_test s1": (
        "s1", lambda v: distinguishability_test(v, 3.0, FLOOR), 2.3, _same, False,
    ),
    "distinguishability_test s2": (
        "s2", lambda v: distinguishability_test(3.0, v, FLOOR), 2.3, _same, False,
    ),
    "ObservationSet.check_row": (
        "rating value", lambda v: ObservationSet.check_row(0, v), 3.1, _same, False,
    ),
    "FeedbackDataset.check_row mu": (
        "mu", lambda v: FeedbackDataset.check_row(v, 0.5), 3.1, _same, False,
    ),
    "FeedbackDataset.check_row sigma": (
        "sigma", lambda v: FeedbackDataset.check_row(3.0, v), 0.3, _same, False,
    ),
    "PredictionSet.check_row": ("prediction", PredictionSet.check_row, 2.9, _same, False),
    "check_tau": ("tau", check_tau, 0.3, _typed, False),
    "predictor_noise_deviation mu": (
        "mu", lambda v: predictor_noise_deviation(v, 0.5, 2.0, 0.25), 3.1, _gaussian, False,
    ),
    "predictor_noise_deviation sigma": (
        "sigma", lambda v: predictor_noise_deviation(3.0, v, 2.0, 0.25), 0.3, _gaussian, False,
    ),
    "predictor_noise_deviation prediction": (
        "prediction", lambda v: predictor_noise_deviation(3.0, 0.5, v, 0.25), 2.9, _gaussian,
        False,
    ),
    "predictor_noise_deviation tau": (
        "tau", lambda v: predictor_noise_deviation(3.0, 0.5, 2.0, v), 0.3, _gaussian, False,
    ),
    "McConfig": (
        "tau", lambda v: McConfig(sample_count=100, seed=1, predictor_tau=v), 0.3,
        _monte_carlo, True,
    ),
    "check_strategy_request threshold": (
        "denoise threshold", lambda v: check_strategy_request(denoise_threshold=v), 1.3,
        lambda settings: _typed(*settings), True,
    ),
    "check_strategy_request alpha": (
        "alpha", lambda v: check_strategy_request(omit_alpha=v), 0.3,
        lambda settings: _typed(*settings), True,
    ),
    "denoise_preprocess": (
        "denoise threshold", lambda v: denoise_preprocess(OBS, None, v), 1.3,
        lambda result: result.observations.value.tolist(), True,
    ),
    "run_strategy_comparison": (
        "tau", lambda v: run_strategy_comparison(PRED, data=DATA, predictor_tau=v), 0.3, _same,
        True,
    ),
    "RatingScale min_value": ("min_value", lambda v: RatingScale(v, 5.0), 1.1, _scale, False),
    "RatingScale max_value": ("max_value", lambda v: RatingScale(1.0, v), 5.3, _scale, False),
    # 4 / 0.1 is a whole number in float32 only: the float of np.float32(0.1) is no step of [1, 5]
    "RatingScale discrete_step": (
        "discrete_step", lambda v: RatingScale(1.0, 5.0, v), 0.1, _scale, True,
    ),
    "PopulationSpec density": ("density", lambda v: _spec(density=v), 0.3, _population, False),
    "PopulationSpec sigma_lo": (
        "sigma_lo", lambda v: _spec(sigma_lo=v), 0.1, _population, False,
    ),
    "PopulationSpec sigma_hi": ("sigma_hi", lambda v: _spec(sigma_hi=v), 1.3, _population, False),
    "PopulationSpec bias_lo": (
        "bias_lo", lambda v: _spec(bias_lo=v), -0.3, _population, False,
    ),
    "PopulationSpec bias_hi": ("bias_hi", lambda v: _spec(bias_hi=v), 0.3, _population, False),
    "histogram": (
        "bin width", lambda v: synthetic_demo().histogram([1.0, 2.0, 2.5], v), 0.3,
        lambda bins: [column.tolist() for column in bins], False,
    ),
    "fit_uncertainty": (
        "fixed sigma fallback", lambda v: fit_uncertainty(SINGLE, v), 0.3,
        lambda data: data.sigma.tolist(), True,
    ),
}

NOT_NUMBERS = {"bool": True, "str": "1", "NoneType": None}


@pytest.mark.parametrize(
    "entry, kind",
    [
        (entry, kind)
        for entry, (*_, optional) in REAL_ENTRY_POINTS.items()
        for kind in NOT_NUMBERS
        if not (optional and kind == "NoneType")
    ],
)
def test_real_that_is_no_number_rejected(entry, kind):
    name, call, *_ = REAL_ENTRY_POINTS[entry]
    with pytest.raises(InputError) as info:
        call(NOT_NUMBERS[kind])
    assert str(info.value) == f"{name} must be a number, got {kind}"


def _outcome(entry, value):
    """What the entry point makes of ``value``: its compared result, or its error."""
    _, call, _, outcome, _ = REAL_ENTRY_POINTS[entry]
    try:
        return outcome(call(value))
    except InputError as exc:
        return str(exc)


@pytest.mark.parametrize("number", [np.float32, np.float64, np.int64])
@pytest.mark.parametrize("entry", REAL_ENTRY_POINTS)
def test_numpy_number_reads_as_a_float(entry, number):
    # np.int64 drops the legal value's fraction; where that breaks the rule,
    # the int and its float give the same error
    value = number(REAL_ENTRY_POINTS[entry][2])
    assert _outcome(entry, value) == _outcome(entry, float(value))


CHECK_REAL_FAULTS = [
    (math.nan, "be finite", "x must be finite, got nan"),
    (np.float64(-math.inf), "be finite", "x must be finite, got -inf"),
    (-0.5, "be finite and >= 0", "x must be finite and >= 0, got -0.5"),
    (math.inf, "be finite and >= 0", "x must be finite and >= 0, got inf"),
    (0, "be finite and > 0", "x must be finite and > 0, got 0.0"),
    (math.inf, "be finite and > 0", "x must be finite and > 0, got inf"),
    (np.int64(-1), "be > 0", "x must be > 0, got -1.0"),
    (math.nan, "be > 0", "x must be > 0, got nan"),
    (1, "lie in (0, 1)", "x must lie in (0, 1), got 1.0"),
    (np.float32(0.0), "lie in (0, 1)", "x must lie in (0, 1), got 0.0"),
    (0, "lie in (0, 1]", "x must lie in (0, 1], got 0.0"),
    (1.5, "lie in (0, 1]", "x must lie in (0, 1], got 1.5"),
    (np.bool_(True), "be a number", "x must be a number, got bool"),
    # an integer beyond float64 keeps no rule
    (10**400, "be finite", "x must be finite, got inf"),
    (10**400, "be > 0", "x must be > 0, got inf"),
    (-(10**400), "be a number", "x must be a number, got -inf"),
]


@pytest.mark.parametrize(
    "value, rule, message", CHECK_REAL_FAULTS, ids=[message for *_, message in CHECK_REAL_FAULTS]
)
def test_check_real_messages(value, rule, message):
    with pytest.raises(InputError) as info:
        check_real(value, "x", rule)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "value, rule",
    [
        (-0.0, "be finite"),
        (0, "be finite and >= 0"),
        (5e-324, "be finite and > 0"),
        (math.inf, "be > 0"),
        (np.float32(0.5), "lie in (0, 1)"),
        (1, "lie in (0, 1]"),
        (-math.inf, "be a number"),
        (np.uint64(2**64 - 1), "be a number"),
    ],
)
def test_check_real_returns_a_python_float(value, rule):
    number = check_real(value, "x", rule)
    assert type(number) is float and number == value


def test_nan_is_a_number():
    assert math.isnan(check_real(math.nan, "x", "be a number"))
