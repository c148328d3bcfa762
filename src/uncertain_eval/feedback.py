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
    """Codes of names fed in batches, ranked by code point once all are in.

    ``codes`` gives each new name a number that no other name gets: its
    position among all the names fed so far. ``ranked`` maps those codes
    to the names' sorted positions.
    """

    __slots__ = ("_code", "_fed")

    def __init__(self) -> None:
        self._code: dict[str, int] = {}
        self._fed = 0

    def codes(self, names: Sequence[str]) -> np.ndarray:
        """The code of each of ``names``."""
        n, first = len(names), self._fed
        self._fed += n
        rows = map(self._code.setdefault, names, range(first, first + n))
        return np.fromiter(rows, dtype=np.intp, count=n)

    def ranked(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct names, and the position among them of each of ``codes``."""
        names = sorted(self._code)
        firsts = np.fromiter(map(self._code.__getitem__, names), dtype=np.intp, count=len(names))
        rank = np.empty(self._fed, dtype=np.intp)
        rank[firsts] = np.arange(len(names))
        return np.array(names, dtype=object), rank[codes]


def _ranked(names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """``Interner.ranked`` of the rows ``names``."""
    interner = Interner()
    return interner.ranked(interner.codes(names))


def _group(codes: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(codes, return_inverse=True)`` of codes in [0, ``size``).

    A table of at most 4 cells per code is marked cell by cell, in linear
    time; a sparser one is sorted.
    """
    if size > 4 * len(codes):
        return np.unique(codes, return_inverse=True)
    present = np.zeros(size, dtype=bool)
    present[codes] = True
    distinct = np.flatnonzero(present)
    position = np.empty(size, dtype=np.intp)
    position[distinct] = np.arange(len(distinct))
    return distinct, position[codes]


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
        return cls.from_codes(_ranked(users), _ranked(items))

    @classmethod
    def from_codes(
        cls, users: tuple[np.ndarray, np.ndarray], items: tuple[np.ndarray, np.ndarray]
    ) -> tuple["KeyTable", np.ndarray]:
        """``intern`` of rows given as ``Interner.ranked`` users and items."""
        (user_names, user_codes), (item_names, item_codes) = users, items
        width = max(len(item_names), 1)
        cells = user_codes * width + item_codes
        pair_codes, pair = _group(cells, len(user_names) * width)
        table = cls(user_names[pair_codes // width], item_names[pair_codes % width])
        return table, pair

    def __len__(self) -> int:
        return len(self.users)

    def locate(self, other: "KeyTable", missing: str) -> np.ndarray:
        """Position in ``other`` of each pair; the first absent one raises ``<missing> for u/i``."""
        if other is self:
            return np.arange(len(self))
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
        # rows are ordered by one slot key, pair * (max trial + 1) + trial
        width = int(trial.max()) + 1 if len(trial) else 1
        size = (int(pair.max()) + 1 if len(pair) else 0) * width
        slot = pair * width + trial if size < 2**63 else None
        if slot is not None and (slot[1:] > slot[:-1]).all():
            # copies, so that freezing them leaves the caller's arrays writeable
            columns = pair.copy(), trial.copy(), value.copy()
        else:
            distinct, rank = _group(slot, size) if slot is not None else ((), None)
            if len(distinct) == len(pair):
                # one row per slot: the sorted slots hold each row's pair and trial
                columns = distinct // width, distinct % width, _scatter(rank, value, len(value))
            else:
                # a repeated slot, or a key that would overflow: the stable
                # sort keeps the rows of a slot in input order
                order = np.lexsort((trial, pair))
                by_pair, by_trial = pair[order], trial[order]
                repeats = (by_pair[1:] == by_pair[:-1]) & (by_trial[1:] == by_trial[:-1])
                if repeats.any():
                    # the first occurrence of each slot comes first
                    i = int(order[1:][repeats].min())
                    raise InputError(
                        f"duplicate observation for {keys.users[pair[i]]}/{keys.items[pair[i]]} "
                        f"trial {trial[i]}"
                    )
                columns = pair[order], trial[order], value[order]
        self.keys = keys
        self.pair, self.trial, self.value = map(_frozen, columns)

    def __len__(self) -> int:
        return len(self.value)

    def counts(self) -> np.ndarray:
        """Number of trials of each pair of ``keys``."""
        return np.bincount(self.pair, minlength=len(self.keys))

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Pairs grouped by trial count k >= 1, with the (pairs x k) matrix of their rows."""
        counts = self.counts()
        starts = np.cumsum(counts) - counts
        # the counts that occur; np.unique would load numpy.ma
        for k in (np.flatnonzero(np.bincount(counts)[1:]) + 1).tolist():
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


def check_fallback(value: float) -> None:
    """Reject a single-trial spread unless it is finite and >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise InputError("fixed sigma fallback needs a value >= 0")


def fit_uncertainty(obs: ObservationSet, fallback: float | None = None) -> FeedbackDataset:
    """Estimate (mu, sigma) per pair from repeated trials.

    mu is the sample mean and sigma the sample standard deviation with the
    n-1 correction. Pairs observed only once receive sigma ``fallback``;
    None (the default) borrows the pooled spread of the multi-trial pairs,
    and fails when the data contains no multi-trial pair to pool from.
    Pairs with k trials are fitted together as the rows of one
    (pairs x k) matrix, which sums each pair's values in the same order as
    numpy does for that pair alone.
    """
    if fallback is not None:
        check_fallback(fallback)
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
        if fallback is not None:
            # + 0.0 turns a -0.0 fallback into 0.0
            sigma[single] = float(fallback) + 0.0
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
