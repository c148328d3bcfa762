"""Deterministic derivation of child random generators, and the number rules.

Every stochastic operation in the package derives its generator from a user
seed plus an integer key path (chunk index, pair index, group index, ...).
Results therefore depend only on (seed, key), never on scheduling, thread
count, or call order. A seed is a count in [0, 2**64): a Python or numpy
integer, not a ``bool``; a real setting may also be a float.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError


def check_count(value: int, name: str, low: int, high: int | None = None) -> int:
    """The one rule of a count setting: an integer in [low, high], as an ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {type(value).__name__}")
    count = int(value)
    if count < low:
        raise InputError(f"{name} must be >= {low}, got {count}")
    if high is not None and count > high:
        raise InputError(f"{name} must be <= {high}, got {count}")
    return count


# Largest magnitude of a rating, spread, prediction or real setting: the
# fourth powers of up to 10**100 such values sum below float64's maximum.
MAX_MAGNITUDE = 1e50

_REAL_RULES = {  # each takes a float or a float64 column
    "be finite": lambda x: (-math.inf < x) & (x < math.inf),
    "be finite and >= 0": lambda x: (0 <= x) & (x < math.inf),
    "be > 0": lambda x: x > 0,
    "lie in (0, 1)": lambda x: (0 < x) & (x < 1),
    "lie in (0, 1]": lambda x: (0 < x) & (x <= 1),
    "lie in [-1e+50, 1e+50]": lambda x: (-MAX_MAGNITUDE <= x) & (x <= MAX_MAGNITUDE),
    "lie in [0, 1e+50]": lambda x: (0 <= x) & (x <= MAX_MAGNITUDE),
    "lie in (0, 1e+50]": lambda x: (0 < x) & (x <= MAX_MAGNITUDE),
}


def check_real(value: float, name: str, rule: str = "be finite") -> float:
    """The one rule of a real setting: a number that keeps ``rule``, as a ``float``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InputError(f"{name} must be a number, got {type(value).__name__}")
    try:
        if _REAL_RULES[rule](number := float(value)):
            return number
    except OverflowError:  # an integer beyond float64 keeps no rule
        number = math.inf if value > 0 else -math.inf
    raise InputError(f"{name} must {rule}, got {number}")


def check_index(value: int, name: str) -> int:
    """The one rule of an index: a whole number in [0, 2**63), as given."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InputError(f"{name} must be an integer, got {type(value).__name__}")
    if value % 1:  # a nan or infinite float has no remainder, and so is no integer
        raise InputError(f"{name} must be an integer, got {value}")
    if value < 0:
        raise InputError(f"{name} must be non-negative, got {value}")
    if value >= 2**63:
        raise InputError(f"{name} must be below 2**63, got {value}")
    return value


def _column(values, name: str, rows: int, row_rule, keeps, dtype) -> np.ndarray:
    """``rows`` rows as ``dtype``: numbers tested at once by ``keeps``, others by ``row_rule``."""
    numbers = isinstance(values, np.ndarray) and values.dtype.kind in "iuf"
    values = values if numbers else np.array(values, object)  # rows as Python objects
    if values.shape != (rows,):
        raise InputError(f"{name} must have shape ({rows},), got {values.shape}")
    if not numbers:
        return np.array(list(map(row_rule, values)), dtype)
    with np.errstate(invalid="ignore"):
        if not (ok := keeps(values)).all():
            row_rule(values[ok.argmin()])
    return values.astype(dtype, copy=False)


def check_column(values, name: str, rows: int, rule: str) -> np.ndarray:
    """The one rule of a real column: ``rows`` numbers that keep ``rule``, as float64."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        values = values.astype(float, copy=False)  # float32 reads the bound 1e50 as inf
    return _column(values, name, rows, lambda x: check_real(x, name, rule), _REAL_RULES[rule], float)


def check_index_column(values, name: str, rows: int) -> np.ndarray:
    """The one rule of an index column: ``rows`` whole numbers in [0, 2**63), as int64."""
    whole = lambda c: (0 <= c) & (c < 2**63) & (c.dtype.kind != "f" or c % 1 == 0)  # int: no % 1
    return _column(values, name, rows, lambda x: check_index(x, name), whole, np.int64)


def validate_seed(seed: int) -> int:
    """The one rule of a seed: a count in [0, 2**64)."""
    return check_count(seed, "seed", 0, 2**64 - 1)


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by ``(seed, key...)``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
