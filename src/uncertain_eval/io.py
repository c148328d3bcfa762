"""CSV formats for observations, feedback parameters and predictions.

All files are UTF-8 with LF line endings and a ``.`` decimal separator.
Headers are fixed:

    observations: user_id,item_id,trial,rating
    feedback:     user_id,item_id,mu,sigma
    predictions:  user_id,item_id,prediction
    histogram:    bin_lo,bin_hi,count
    sample dump:  sample_index,score

Neither the observation nor the feedback format persists a rating scale;
on ingestion a continuous scale is inferred from the observed value range
(padded by one unit when all values coincide).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError
from .feedback import (
    FeedbackDataset,
    KeyTable,
    ObservationSet,
    PredictionSet,
    RatingScale,
    UncertainFeedback,
)
from .simulate import HistogramBin

OBSERVATION_HEADER = ["user_id", "item_id", "trial", "rating"]
FEEDBACK_HEADER = ["user_id", "item_id", "mu", "sigma"]
PREDICTION_HEADER = ["user_id", "item_id", "prediction"]
HISTOGRAM_HEADER = ["bin_lo", "bin_hi", "count"]
SAMPLE_DUMP_HEADER = ["sample_index", "score"]

# Trial indices are stored as 64-bit integers.
_TRIAL_LIMIT = 2**63


def _read_rows(
    path: Path, header: Sequence[str]
) -> tuple[list[int], Iterator[tuple[int, list[str]]]]:
    """Position of each ``header`` column, and the data rows with their line numbers."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    reader = csv.reader(text.splitlines())
    got = next(reader, None)
    if got is None:
        raise InputError(f"{path}: empty file, expected header {','.join(header)}")
    for column in header:
        if column not in got:
            raise InputError(f"{path}: missing column {column!r} in header")
    for column in got:
        if column not in header:
            raise InputError(f"{path}: unexpected column {column!r} in header")

    def rows() -> Iterator[tuple[int, list[str]]]:
        line = 1
        for line, row in enumerate(reader, start=2):
            yield line, row
        if line == 1:
            raise InputError(f"{path}: no data rows")

    return [got.index(column) for column in header], rows()


def _cell(row: list[str], index: int, path: Path, line: int) -> str:
    try:
        return row[index]
    except IndexError:
        raise InputError(f"{path}:{line}: row has too few fields") from None


def _parse_float(text: str, name: str, path: Path, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InputError(f"{path}:{line}: bad {name} value {text!r}") from None
    return value


def _infer_scale(values: np.ndarray) -> RatingScale:
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        hi = lo + 1.0
    return RatingScale(min_value=lo, max_value=hi)


def read_observations(
    path: str | Path, scale: RatingScale | None = None
) -> ObservationSet:
    path = Path(path)
    (u, i, t, r), rows = _read_rows(path, OBSERVATION_HEADER)
    users, items, trials, values = [], [], [], []
    for line, row in rows:
        users.append(_cell(row, u, path, line))
        items.append(_cell(row, i, path, line))
        trial_text = _cell(row, t, path, line)
        try:
            trial = int(trial_text)
        except ValueError:
            raise InputError(f"{path}:{line}: bad trial value {trial_text!r}") from None
        if trial < 0:
            raise InputError(f"{path}:{line}: trial must be non-negative, got {trial}")
        if trial >= _TRIAL_LIMIT:
            raise InputError(f"{path}:{line}: trial must be below 2**63, got {trial}")
        trials.append(trial)
        value = _parse_float(_cell(row, r, path, line), "rating", path, line)
        if not math.isfinite(value):
            raise InputError(f"{path}:{line}: rating value must be finite, got {value}")
        values.append(value)
    keys, pair = KeyTable.intern(users, items)
    value_column = np.array(values)
    if scale is None:
        scale = _infer_scale(value_column)
    return ObservationSet.from_columns(scale, keys, pair, trials, value_column)


def write_observations(path: str | Path, obs: ObservationSet) -> None:
    keys = obs.keys
    rows = zip(
        keys.users[obs.pair].tolist(),
        keys.items[obs.pair].tolist(),
        obs.trial.tolist(),
        obs.value.tolist(),
    )
    _write_rows(path, OBSERVATION_HEADER, rows)


def read_feedback(
    path: str | Path, scale: RatingScale | None = None
) -> FeedbackDataset:
    path = Path(path)
    (u, i, m, s), rows = _read_rows(path, FEEDBACK_HEADER)
    users, items, mus, sigmas = [], [], [], []
    for line, row in rows:
        users.append(_cell(row, u, path, line))
        items.append(_cell(row, i, path, line))
        mu = _parse_float(_cell(row, m, path, line), "mu", path, line)
        sigma = _parse_float(_cell(row, s, path, line), "sigma", path, line)
        try:
            UncertainFeedback.check(mu, sigma)
        except InputError as exc:
            raise InputError(f"{path}:{line}: {exc}") from None
        mus.append(mu)
        sigmas.append(sigma)
    keys, pair = KeyTable.intern(users, items)
    mu_column = np.array(mus)
    if scale is None:
        scale = _infer_scale(mu_column)
    n_trials = np.zeros(len(pair), dtype=np.int64)
    return FeedbackDataset.from_columns(scale, keys, pair, mu_column, sigmas, n_trials)


def write_feedback(path: str | Path, data: FeedbackDataset) -> None:
    keys = data.keys
    rows = zip(keys.users.tolist(), keys.items.tolist(), data.mu.tolist(), data.sigma.tolist())
    _write_rows(path, FEEDBACK_HEADER, rows)


def read_predictions(path: str | Path) -> PredictionSet:
    path = Path(path)
    (u, i, p), rows = _read_rows(path, PREDICTION_HEADER)
    users, items, values = [], [], []
    seen: set[tuple[str, str]] = set()
    for line, row in rows:
        user, item = _cell(row, u, path, line), _cell(row, i, path, line)
        if (user, item) in seen:
            raise InputError(f"{path}:{line}: duplicate prediction for {user}/{item}")
        seen.add((user, item))
        users.append(user)
        items.append(item)
        values.append(
            _parse_float(_cell(row, p, path, line), "prediction", path, line)
        )
    keys, pair = KeyTable.intern(users, items)
    return PredictionSet.from_columns(keys, pair, values)


def write_predictions(path: str | Path, predictions: PredictionSet) -> None:
    keys = predictions.keys
    rows = zip(keys.users.tolist(), keys.items.tolist(), predictions.values.tolist())
    _write_rows(path, PREDICTION_HEADER, rows)


def write_histogram(path: str | Path, bins: Sequence[HistogramBin]) -> None:
    _write_rows(path, HISTOGRAM_HEADER, ((b.bin_lo, b.bin_hi, b.count) for b in bins))


def write_sample_dump(path: str | Path, samples: Iterable[float]) -> None:
    _write_rows(path, SAMPLE_DUMP_HEADER, enumerate(map(float, samples)))


def _write_rows(path: str | Path, header: Sequence[str], rows: Iterable) -> None:
    """CSV with ``header``; floats are written as their shortest round-trip repr."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
