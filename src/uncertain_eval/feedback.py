"""Probabilistic model of user feedback.

Repeated responses of one user to one item scatter around a central
tendency. We model the response for each (user, item) pair as a Gaussian
with mean ``mu`` and standard deviation ``sigma``; ``sigma`` is the pair's
intrinsic rating spread and the quantity every downstream computation
consumes. This module holds the domain types and the estimator that fits
(mu, sigma) from repeated-trial observations. Data sets are numpy columns
over one ``KeyTable``, built by ``from_columns`` or ``from_ids``. Pairs are
named by their position in the table; ``FeedbackDataset.entries`` is the
one view that builds a record per pair, naming it by a ``(user, item)``
tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import InputError
from .rng import MAX_MAGNITUDE, check_column, check_index, check_index_column, check_real


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


def _check_ids(users: Sequence[str], items: Sequence[str]) -> None:
    """The id rule: as many users as items, each a ``str``; the first id that breaks it raises."""
    if len(users) != len(items):
        raise InputError(f"users and items differ in length: {len(users)} and {len(items)}")
    for name, ids in (("user", users), ("item", items)):
        if kind := next((type(x).__name__ for x in ids if not isinstance(x, str)), None):
            raise InputError(f"{name} id must be a str, got {kind}")


@dataclass(frozen=True, eq=False, slots=True)
class KeyTable:
    """The distinct (user, item) pairs of a data set, in canonical order.

    Pairs are sorted by user id, then by item id, both by code point, as
    ``(user, item)`` tuples sort. Columns aligned to the table hold the
    value of pair ``i`` at position ``i``; row-form columns carry a ``pair``
    array of positions. The constructor keeps object arrays of ``str`` ids
    whose pairs keep that order, else raises ``InputError`` on the first id
    or pair that breaks it; ``intern`` and ``from_codes`` make a canonical
    table from rows in any order.
    """

    users: np.ndarray
    items: np.ndarray

    def __post_init__(self) -> None:
        users, items = np.asarray(self.users, object), np.asarray(self.items, object)
        _check_ids(users, items)
        after = (users[1:] > users[:-1]) | ((users[1:] == users[:-1]) & (items[1:] > items[:-1]))
        if not after.all():
            i = int(after.argmin())
            raise InputError(
                f"key table pairs must strictly increase, got {users[i + 1]}/{items[i + 1]} "
                f"after {users[i]}/{items[i]}"
            )
        object.__setattr__(self, "users", users)
        object.__setattr__(self, "items", items)

    @classmethod
    def intern(cls, users: Sequence[str], items: Sequence[str]) -> tuple["KeyTable", np.ndarray]:
        """Table of the distinct pairs among the rows, and each row's position."""
        _check_ids(users, items)
        return cls.from_codes(_ranked(users), _ranked(items))

    @classmethod
    def from_codes(
        cls, users: tuple[np.ndarray, np.ndarray], items: tuple[np.ndarray, np.ndarray]
    ) -> tuple["KeyTable", np.ndarray]:
        """``intern`` of rows given as ``Interner.ranked`` users and items, built unchecked."""
        (user_names, user_codes), (item_names, item_codes) = users, items
        width = max(len(item_names), 1)
        cells = user_codes * width + item_codes
        pair_codes, pair = _group(cells, len(user_names) * width)
        table = object.__new__(cls)
        object.__setattr__(table, "users", user_names[pair_codes // width])
        object.__setattr__(table, "items", item_names[pair_codes % width])
        return table, pair

    def __len__(self) -> int:
        return len(self.users)

    def locate(self, other: "KeyTable", missing: str) -> np.ndarray:
        """Position in ``other`` of each pair; the first absent one raises ``<missing> for u/i``."""
        if other is self or (
            np.array_equal(self.users, other.users) and np.array_equal(self.items, other.items)
        ):
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

    ``COLUMNS`` is the one declaration of the value columns after ``pair``:
    each column's name and its rule, a ``check_real`` rule or None for the
    index rule. The subclass's ``_load`` checks those columns by it, and
    ``check_row`` checks one row's values by it, with the same messages.
    ``from_columns`` takes the arguments of ``_load``; ``from_ids`` takes
    each row's user and item id instead of ``keys`` and ``pair``.
    """

    __slots__ = ()
    COLUMNS: tuple[tuple[str, str | None], ...] = ()

    @classmethod
    def check_row(cls, *values) -> None:
        """Reject one row's values, in ``COLUMNS`` order, unless each keeps its rule."""
        for (name, rule), value in zip(cls.COLUMNS, values):
            check_index(value, name) if rule is None else check_real(value, name, rule)

    @classmethod
    def _checked(cls, rows: int, *values) -> list[np.ndarray]:
        """``values`` as the ``COLUMNS`` of ``rows`` rows, each checked by its rule."""
        return [
            check_index_column(column, name, rows)
            if rule is None
            else check_column(column, name, rows, rule)
            for (name, rule), column in zip(cls.COLUMNS, values)
        ]

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
    """``pair`` as positions in ``keys``; a set named ``aligned`` holds each exactly once.

    ``pair`` is sized by its own shape: one row per element, rows of unequal
    shape being elements that the index rule names.
    """
    pair = pair if isinstance(pair, np.ndarray) else np.array(pair, object)
    pair = check_index_column(pair, "pair", pair.size)
    if (outside := pair >= len(keys)).any():
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
    column = np.empty(n, dtype=rows.dtype)
    column[pair] = rows
    return _frozen(column)


class ObservationSet(_Columnar):
    """Raw repeated-trial ratings.

    Held as the columns ``pair`` (position in ``keys``), ``trial`` and
    ``value``, sorted by (pair, trial). Any value in [-1e50, 1e50] is
    legal, and a key may have no rows.
    """

    __slots__ = ("keys", "pair", "trial", "value")
    COLUMNS = (("trial", None), ("rating value", "lie in [-1e+50, 1e+50]"))

    def _load(self, keys, pair, trial, value) -> None:
        pair = _pair_positions(keys, pair)
        trial, value = self._checked(len(pair), trial, value)
        # whether each row comes after the one before it in (pair, trial) order
        later = pair[1:] > pair[:-1]
        later |= (pair[1:] == pair[:-1]) & (trial[1:] > trial[:-1])
        if later.all():
            # copies, so that freezing them leaves the caller's arrays writeable
            columns = pair.copy(), trial.copy(), value.copy()
        else:
            # rows are ordered by one slot key, pair * (distinct trials) + trial rank
            trials, rank = _group(trial, int(trial.max()) + 1)
            width = len(trials)
            slots, rank = _group(pair * width + rank, len(keys) * width)
            if len(slots) < len(rank):
                # the first row whose slot an earlier row holds
                rows = np.arange(len(rank))
                first = np.full(len(slots), len(rank))
                np.minimum.at(first, rank, rows)
                i = int(np.argmax(first[rank] < rows))
                raise InputError(
                    f"duplicate observation for {keys.users[pair[i]]}/{keys.items[pair[i]]} "
                    f"trial {trial[i]}"
                )
            columns = slots // width, trials[slots % width], _scatter(rank, value, len(value))
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
    """Gaussian response model of the pair ``key`` = (user, item), value ~ N(mu, sigma^2).

    ``n_trials`` records how many trials the parameters were fitted from;
    it is None for externally supplied parameters (e.g. loaded from CSV,
    which does not persist trial counts).
    """

    key: tuple[str, str]
    mu: float
    sigma: float
    n_trials: int | None = None


class FeedbackDataset(_Columnar):
    """Collection of per-pair response models with unique keys.

    Held as the columns ``mu``, ``sigma`` and ``n_trials`` (0 where unknown,
    as when ``from_columns`` gets no such column), aligned to ``keys``.
    Where a dataset stands for point ratings, ``mu`` holds them.
    """

    __slots__ = ("keys", "mu", "sigma", "n_trials")
    # no file carries n_trials, so it is checked apart
    COLUMNS = (("mu", "lie in [-1e+50, 1e+50]"), ("sigma", "lie in [0, 1e+50]"))

    def _load(self, keys, pair, mu, sigma, n_trials=None) -> None:
        pair = _pair_positions(keys, pair, "feedback dataset")
        if not len(pair):
            raise InputError("feedback dataset must contain at least one entry")
        mu, sigma = self._checked(len(pair), mu, sigma)
        unknown = np.zeros(len(pair), np.int64)
        n_trials = unknown if n_trials is None else check_index_column(n_trials, "n_trials", len(pair))
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
        keys = zip(self.keys.users.tolist(), self.keys.items.tolist())
        mu, sigma = self.mu.tolist(), self.sigma.tolist()
        n_trials = [n or None for n in self.n_trials.tolist()]
        return tuple(map(UncertainFeedback, keys, mu, sigma, n_trials))


class PredictionSet(_Columnar):
    """Model-based prediction per pair, as ``values`` aligned to ``keys``."""

    __slots__ = ("keys", "values")
    COLUMNS = (("prediction", "lie in [-1e+50, 1e+50]"),)

    def _load(self, keys: KeyTable, pair, values) -> None:
        pair = _pair_positions(keys, pair, "prediction")
        (values,) = self._checked(len(pair), values)
        self.keys = keys
        self.values = _scatter(pair, values, len(keys))

    def __len__(self) -> int:
        return len(self.keys)

    def aligned(self, keys: KeyTable) -> np.ndarray:
        """Prediction of each pair of ``keys``, in table order."""
        return self.values[keys.locate(self.keys, "missing prediction")]


def fit_uncertainty(obs: ObservationSet, fallback: float | None = None) -> FeedbackDataset:
    """Estimate (mu, sigma) per pair from repeated trials.

    mu is the sample mean, its rounding clipped into [-1e50, 1e50] where
    the exact mean lies, and sigma the sample standard deviation with the
    n-1 correction. Pairs observed only once receive sigma ``fallback``;
    None (the default) borrows ``pooled_sigma``, and raises ``InputError``
    when the data contains no multi-trial pair to pool from. Pairs with k
    trials are fitted together as the rows of one (pairs x k) matrix, which
    sums each pair's values in the same order as numpy does for that pair
    alone.
    """
    if fallback is not None:
        fallback = check_real(fallback, "fixed sigma fallback", "lie in [0, 1e+50]")
    if not len(obs):
        raise InputError("cannot fit an empty observation set")

    n = len(obs.keys)
    mu, sigma = np.empty(n), np.zeros(n)
    n_trials = obs.counts()
    if not n_trials.all():
        i = int(n_trials.argmin())
        raise InputError(f"no observations for {obs.keys.users[i]}/{obs.keys.items[i]}")
    # single-trial pairs hold sigma 0 until their fallback
    for pairs, rows in obs.blocks():
        block = obs.value[rows]
        mu[pairs] = np.clip(block.mean(axis=1), -MAX_MAGNITUDE, MAX_MAGNITUDE)
        if rows.shape[1] >= 2:
            sigma[pairs] = block.std(axis=1, ddof=1)

    single = n_trials == 1
    if single.any():
        if fallback is None:
            fallback = _pooled(sigma, ~single)
        if fallback is None:
            raise InputError("pooled sigma fallback needs at least one pair with >= 2 trials")
        # + 0.0 turns a -0.0 fallback into 0.0
        sigma[single] = fallback + 0.0
    return FeedbackDataset.from_columns(obs.keys, np.arange(n), mu, sigma, n_trials)


def _pooled(sigma: np.ndarray, multi: np.ndarray) -> float | None:
    """Root mean square of ``sigma`` over the pairs ``multi``, or None without any."""
    return math.sqrt(float(np.mean(np.square(sigma[multi])))) if multi.any() else None


def pooled_sigma(data: FeedbackDataset) -> float | None:
    """Root mean square of sigma over entries fitted from >= 2 trials; None without any."""
    return _pooled(data.sigma, data.n_trials >= 2)
