"""Probabilistic model of user feedback.

Repeated responses of one user to one item scatter around a central
tendency. We model the response for each (user, item) pair as a Gaussian
with mean ``mu`` and standard deviation ``sigma``; ``sigma`` is the pair's
intrinsic rating spread and the quantity every downstream computation
consumes. This module holds the domain types and the estimator that fits
(mu, sigma) from repeated-trial observations. Data sets are numpy columns
over one ``KeyTable``, built by ``from_columns`` or ``from_ids``. Pairs are
named by their position in the table; ``FeedbackDataset.entries`` is the
one view that builds a record per pair.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import InputError, UnavailableError


@dataclass(frozen=True, order=True, slots=True)
class FeedbackKey:
    """Identity of one (user, item) pair, as ``FeedbackDataset.entries`` reports it."""

    user_id: str
    item_id: str


class Interner:
    """Codes of names fed in chunks, ranked by code point once all are in.

    The constructor and ``add`` code each new name by a number that no other
    name gets: a row number of the chunk that first fed it. ``ranked`` maps
    those codes to the names' sorted positions.
    """

    __slots__ = ("_code", "_chunks", "_rows")

    def __init__(self, names: Sequence[str] = ()) -> None:
        self._code: dict[str, int] = {}
        self._chunks: list[np.ndarray] = []
        self._rows = 0
        self.add(names)

    def add(self, names: Sequence[str], codes: np.ndarray | None = None) -> None:
        """Feed ``names``, or the rows ``names[codes]`` when ``codes`` is given.

        With ``codes``, ``names`` are distinct and each is among the rows.
        """
        n, first = len(names), self._rows
        rows = map(self._code.setdefault, names, range(first, first + n))
        fed = np.fromiter(rows, dtype=np.intp, count=n)
        if codes is not None:
            fed = fed[codes]
        self._chunks.append(fed)
        self._rows += len(fed)

    def ranked(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct names, and the position of each fed name among them."""
        names = sorted(self._code)
        firsts = np.fromiter(map(self._code.__getitem__, names), dtype=np.intp, count=len(names))
        rank = np.empty(self._rows, dtype=np.intp)
        rank[firsts] = np.arange(len(names))
        return np.array(names, dtype=object), rank[np.concatenate(self._chunks)]


@dataclass(frozen=True, eq=False, slots=True)
class KeyTable:
    """The distinct (user, item) pairs of a data set, in canonical order.

    Pairs are sorted like ``FeedbackKey``: by user id, then by item id, both
    by code point. Columns aligned to the table hold the value of pair ``i``
    at position ``i``; row-form columns carry a ``pair`` array of positions.
    """

    users: np.ndarray
    items: np.ndarray

    @classmethod
    def intern(cls, users: Sequence[str], items: Sequence[str]) -> tuple["KeyTable", np.ndarray]:
        """Table of the distinct pairs among the rows, and each row's position."""
        return cls.from_codes(Interner(users).ranked(), Interner(items).ranked())

    @classmethod
    def from_codes(
        cls, users: tuple[np.ndarray, np.ndarray], items: tuple[np.ndarray, np.ndarray]
    ) -> tuple["KeyTable", np.ndarray]:
        """``intern`` of rows given as ``Interner.ranked`` users and items."""
        (user_names, user_codes), (item_names, item_codes) = users, items
        width = max(len(item_names), 1)
        pair_codes, pair = np.unique(user_codes * width + item_codes, return_inverse=True)
        table = cls(user_names[pair_codes // width], item_names[pair_codes % width])
        return table, pair

    def __len__(self) -> int:
        return len(self.users)

    def locate(self, other: "KeyTable", missing: str) -> np.ndarray:
        """Position in ``other`` of each pair; the first absent one raises ``<missing> for u/i``."""
        if np.array_equal(self.users, other.users) and np.array_equal(self.items, other.items):
            return np.arange(len(self))
        table, pair = KeyTable.intern(
            np.concatenate((self.users, other.users)),
            np.concatenate((self.items, other.items)),
        )
        where = np.full(len(table), -1)
        where[pair[len(self) :]] = np.arange(len(other))
        where = where[pair[: len(self)]]
        if (where < 0).any():
            i = int(np.argmax(where < 0))
            raise InputError(f"{missing} for {self.users[i]}/{self.items[i]}")
        return where


class _Columnar:
    """A data set held as columns.

    ``from_columns`` takes the arguments of the subclass's ``_load``, which
    validates them; ``from_ids`` takes each row's user and item id instead
    of ``keys`` and ``pair``.
    """

    __slots__ = ()

    @classmethod
    def from_columns(cls, *columns):
        """The data set of row-form columns in any order, with ``pair`` indexing ``keys``."""
        data = cls.__new__(cls)
        data._load(*columns)
        return data

    @classmethod
    def from_ids(cls, users: Sequence[str], items: Sequence[str], *columns):
        """``from_columns`` of the rows' user and item ids, interned into a key table."""
        return cls.from_columns(*KeyTable.intern(users, items), *columns)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _pair_positions(keys: KeyTable, pair, aligned: str | None = None) -> np.ndarray:
    """``pair`` as positions in ``keys``; a set named ``aligned`` holds each exactly once."""
    pair = np.asarray(pair, dtype=np.intp)
    outside = (pair < 0) | (pair >= len(keys))
    if outside.any():
        raise InputError(f"pair {pair[outside.argmax()]} is outside the {len(keys)} keys")
    if aligned is not None:
        counts = np.bincount(pair, minlength=len(keys))
        if (counts > 1).any():
            raise InputError(f"{aligned} keys must be unique")
        if (counts == 0).any():
            i = counts.argmin()
            raise InputError(f"{aligned} has no row for {keys.users[i]}/{keys.items[i]}")
    return pair


def _scatter(pair: np.ndarray, rows, n: int) -> np.ndarray:
    """Read-only column of ``n`` pairs holding row ``j`` at position ``pair[j]``."""
    rows = np.asarray(rows)
    column = np.empty(n, dtype=rows.dtype)
    column[pair] = rows
    return _frozen(column)


def _fits_int64(trial) -> bool:
    """Whether casting ``trial`` to int64 surely keeps every value.

    The cast changes some values without raising: it wraps a uint64 of
    2**63 or more and drops a float's fraction. A sequence of ints and
    floats converts to float64, which has already rounded its large ints,
    so a sequence passes only when numpy reads it as ints.
    """
    given = np.asarray(trial)
    kind = given.dtype.kind
    if kind == "u":
        return bool((given < 2**63).all())
    if kind == "f" and isinstance(trial, np.ndarray):
        return bool(((np.abs(given) < 2**63) & (given == np.trunc(given))).all())
    return kind == "i"


def _slot_order(pair: np.ndarray, trial: np.ndarray) -> np.ndarray | None:
    """Row order by (pair, trial), or None when the rows are already in it.

    Rows are sorted by one int64 slot key, ``pair * (max trial + 1) + trial``.
    A repeated slot, or a key that would overflow, takes the stable
    ``lexsort`` instead, which keeps the rows of a slot in input order.
    """
    if not len(pair):
        return None
    width = int(trial.max()) + 1
    if (int(pair.max()) + 1) * width < 2**63:
        slot = pair * width + trial
        if (slot[1:] > slot[:-1]).all():
            return None
        order = np.argsort(slot)
        slot = slot[order]
        if (slot[1:] > slot[:-1]).all():
            return order
    return np.lexsort((trial, pair))


def check_observation(trial: int, value: float) -> None:
    """Reject the trial and value of one observation row unless both are legal."""
    # trials are stored as 64-bit integers
    if trial % 1:
        raise InputError(f"trial must be an integer, got {trial}")
    if trial < 0:
        raise InputError(f"trial must be non-negative, got {trial}")
    if trial >= 2**63:
        raise InputError(f"trial must be below 2**63, got {trial}")
    if not math.isfinite(value):
        raise InputError(f"rating value must be finite, got {value}")


class ObservationSet(_Columnar):
    """Raw repeated-trial ratings.

    Held as the columns ``pair`` (position in ``keys``), ``trial`` and
    ``value``, sorted by (pair, trial). Any finite value is legal, and a
    key may have no rows.
    """

    __slots__ = ("keys", "pair", "trial", "value")

    def _load(self, keys, pair, trial, value) -> None:
        if not _fits_int64(trial):
            # name the first row whose trial the cast could change
            for t, v in zip(trial, value):
                check_observation(t, v)
        trial = np.asarray(trial, dtype=np.int64)
        value = np.asarray(value, dtype=float)
        bad = (trial < 0) | ~np.isfinite(value)
        if bad.any():
            i = int(np.argmax(bad))
            check_observation(int(trial[i]), float(value[i]))
        pair = _pair_positions(keys, pair)
        order = _slot_order(pair, trial)
        if order is None:
            # copies, so that freezing them leaves the caller's arrays writeable
            sorted_pair, sorted_trial, sorted_value = pair.copy(), trial.copy(), value.copy()
        else:
            sorted_pair, sorted_trial, sorted_value = pair[order], trial[order], value[order]
            repeats = (sorted_pair[1:] == sorted_pair[:-1]) & (sorted_trial[1:] == sorted_trial[:-1])
            if repeats.any():
                # the stable sort keeps the first occurrence of each slot first
                i = int(order[1:][repeats].min())
                raise InputError(
                    f"duplicate observation for {keys.users[pair[i]]}/{keys.items[pair[i]]} "
                    f"trial {trial[i]}"
                )
        self.keys = keys
        self.pair = _frozen(sorted_pair)
        self.trial = _frozen(sorted_trial)
        self.value = _frozen(sorted_value)

    def __len__(self) -> int:
        return len(self.value)

    def counts(self) -> np.ndarray:
        """Number of trials of each pair of ``keys``."""
        return np.bincount(self.pair, minlength=len(self.keys))

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Pairs grouped by trial count k, with the (pairs x k) matrix of their rows."""
        counts = self.counts()
        starts = np.cumsum(counts) - counts
        for k in np.unique(counts):
            pairs = np.flatnonzero(counts == k)
            yield pairs, starts[pairs, None] + np.arange(k)


@dataclass(frozen=True, slots=True)
class UncertainFeedback:
    """Gaussian response model of one pair, value ~ N(mu, sigma^2), as a record.

    ``n_trials`` records how many trials the parameters were fitted from;
    it is None for externally supplied parameters (e.g. loaded from CSV,
    which does not persist trial counts).
    """

    key: FeedbackKey
    mu: float
    sigma: float
    n_trials: int | None = None


def check_feedback(mu: float, sigma: float) -> None:
    """Reject the parameters of one response model unless both are legal."""
    if not math.isfinite(mu):
        raise InputError(f"mu must be finite, got {mu}")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise InputError(f"sigma must be finite and >= 0, got {sigma}")


class FeedbackDataset(_Columnar):
    """Collection of per-pair response models with unique keys.

    Held as the columns ``mu``, ``sigma`` and ``n_trials`` (0 where unknown,
    the default of ``from_columns``), aligned to ``keys``. Where a dataset
    stands for point ratings, ``mu`` holds them.
    """

    __slots__ = ("keys", "mu", "sigma", "n_trials")

    def _load(self, keys, pair, mu, sigma, n_trials=0) -> None:
        if not len(pair):
            raise InputError("feedback dataset must contain at least one entry")
        mu = np.asarray(mu, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        bad = ~(np.isfinite(mu) & np.isfinite(sigma) & (sigma >= 0))
        if bad.any():
            i = int(np.argmax(bad))
            check_feedback(float(mu[i]), float(sigma[i]))
        pair = _pair_positions(keys, pair, "feedback dataset")
        self.keys = keys
        self.mu, self.sigma, self.n_trials = (
            _scatter(pair, rows, len(keys)) for rows in (mu, sigma, n_trials)
        )

    @property
    def N(self) -> int:
        return len(self.keys)

    @property
    def entries(self) -> tuple[UncertainFeedback, ...]:
        """One record per pair, in key order."""
        keys = map(FeedbackKey, self.keys.users.tolist(), self.keys.items.tolist())
        mu, sigma = self.mu.tolist(), self.sigma.tolist()
        n_trials = [n or None for n in self.n_trials.tolist()]
        return tuple(map(UncertainFeedback, keys, mu, sigma, n_trials))


def check_prediction(value: float) -> None:
    """Reject one prediction unless it is finite."""
    if not math.isfinite(value):
        raise InputError(f"prediction must be finite, got {value}")


class PredictionSet(_Columnar):
    """Model-based prediction per pair, as ``values`` aligned to ``keys``."""

    __slots__ = ("keys", "values")

    def _load(self, keys: KeyTable, pair, values) -> None:
        pair = _pair_positions(keys, pair, "prediction")
        values = np.asarray(values, dtype=float)
        bad = ~np.isfinite(values)
        if bad.any():
            check_prediction(float(values[np.argmax(bad)]))
        self.keys = keys
        self.values = _scatter(pair, values, len(keys))

    def __len__(self) -> int:
        return len(self.keys)

    def aligned(self, keys: KeyTable) -> np.ndarray:
        """Prediction of each pair of ``keys``, in table order."""
        return self.values[keys.locate(self.keys, "missing prediction")]


class SigmaFallbackPolicy(enum.Enum):
    ZERO = "zero"
    POOLED = "pooled"
    FIXED = "fixed"


@dataclass(frozen=True, slots=True)
class SigmaFallback:
    """Spread assigned to pairs with a single trial.

    ``zero`` claims certainty, ``pooled`` borrows the pooled spread of the
    multi-trial pairs (the default), ``fixed`` uses a constant.
    """

    policy: SigmaFallbackPolicy = SigmaFallbackPolicy.POOLED
    value: float | None = None

    def __post_init__(self) -> None:
        if self.policy is SigmaFallbackPolicy.FIXED:
            if self.value is None or not (
                math.isfinite(self.value) and self.value >= 0
            ):
                raise InputError("fixed sigma fallback needs a value >= 0")
        elif self.value is not None:
            raise InputError(f"fallback policy {self.policy.value!r} takes no value")

    @classmethod
    def zero(cls) -> "SigmaFallback":
        return cls(SigmaFallbackPolicy.ZERO)

    @classmethod
    def pooled(cls) -> "SigmaFallback":
        return cls(SigmaFallbackPolicy.POOLED)

    @classmethod
    def fixed(cls, value: float) -> "SigmaFallback":
        return cls(SigmaFallbackPolicy.FIXED, value)

    @classmethod
    def parse(cls, text: str) -> "SigmaFallback":
        """Parse ``zero`` | ``pooled`` | ``fixed:V`` (CLI flag syntax)."""
        if text == "zero":
            return cls.zero()
        if text == "pooled":
            return cls.pooled()
        if text.startswith("fixed:"):
            try:
                return cls.fixed(float(text.split(":", 1)[1]))
            except ValueError as exc:
                raise InputError(f"bad fixed fallback value in {text!r}") from exc
        raise InputError(
            f"unknown sigma fallback {text!r}; expected zero, pooled or fixed:V"
        )


def fit_uncertainty(
    obs: ObservationSet, fallback: SigmaFallback = SigmaFallback.pooled()
) -> FeedbackDataset:
    """Estimate (mu, sigma) per pair from repeated trials.

    mu is the sample mean and sigma the sample standard deviation with the
    n-1 correction. Pairs observed only once receive sigma from ``fallback``;
    the pooled policy fails when the data contains no multi-trial pair to
    pool from. Pairs with k trials are fitted together as the rows of one
    (pairs x k) matrix, which sums each pair's values in the same order as
    numpy does for that pair alone.
    """
    if not len(obs):
        raise InputError("cannot fit an empty observation set")

    n = len(obs.keys)
    mu = np.empty(n)
    sigma = np.empty(n)
    n_trials = obs.counts()
    if not n_trials.all():
        i = int(n_trials.argmin())
        raise InputError(f"no observations for {obs.keys.users[i]}/{obs.keys.items[i]}")
    for pairs, rows in obs.blocks():
        block = obs.value[rows]
        mu[pairs] = block.mean(axis=1)
        if rows.shape[1] >= 2:
            sigma[pairs] = block.std(axis=1, ddof=1)

    single = n_trials == 1
    if single.any():
        if fallback.policy is SigmaFallbackPolicy.ZERO:
            sigma[single] = 0.0
        elif fallback.policy is SigmaFallbackPolicy.FIXED:
            # + 0.0 turns a -0.0 fallback into the 0.0 of the zero policy
            sigma[single] = float(fallback.value) + 0.0  # type: ignore[arg-type]
        elif single.all():
            raise UnavailableError(
                "pooled sigma fallback needs at least one pair with >= 2 trials"
            )
        else:
            sigma[single] = _root_mean_square(sigma[~single])
    return FeedbackDataset.from_columns(obs.keys, np.arange(n), mu, sigma, n_trials)


def _root_mean_square(sigma: np.ndarray) -> float:
    return math.sqrt(float(np.mean(sigma * sigma)))


def pooled_sigma(data: FeedbackDataset) -> float:
    """Root mean square of sigma over entries fitted from >= 2 trials."""
    multi = data.n_trials >= 2
    if not multi.any():
        raise UnavailableError(
            "pooled sigma is unavailable: no entries fitted from >= 2 trials"
        )
    return _root_mean_square(data.sigma[multi])
