"""CSV formats for observations, feedback parameters and predictions.

All files are UTF-8 with a ``.`` decimal separator. Records end in LF (the
writers) or CRLF, and fields follow RFC 4180 quoting, so an id may hold any
character; the writers quote an id that holds ``,``, ``"``, LF or CR.
Headers are fixed, in any column order, and a repeated column is rejected:

    observations: user_id,item_id,trial,rating
    feedback:     user_id,item_id,mu,sigma
    predictions:  user_id,item_id,prediction
    histogram:    bin_lo,bin_hi,count
    sample dump:  sample_index,score

Reading turns a file into numpy columns in chunks. Text without ``"`` and
``\r`` is cut at line ends into pieces of about 256 KiB, and its fields are
found on the bytes. In a piece, a column whose fields are all of 8 bytes
or less is keyed: each field becomes one integer of its bytes, and each
distinct text is decoded and converted once per piece. Longer fields, and
every field of a piece that holds a NUL byte, are split from the decoded
text with ``str.split``. Any other text goes through ``csv.reader``. Both
reject a field longer than ``csv.field_size_limit()``. The columns go to
the data set's ``from_columns``, which checks them vectorised. Only when a
conversion or a check fails does a second pass walk the rows through
``csv.reader`` to name the first bad one as ``path:line``. Every format
checks a row in one order: its fields in header order, each present
(``row has too few fields``) and converted (``bad <column> value``), then
the data set's rule on the row's values, then a repeated pair in the
formats whose pairs are unique, then ``row has too many fields``.

Writing goes the other way, one column at a time: each distinct id is
quoted once, each distinct number (by bit pattern) is formatted once with
``repr``, the shortest text that reads back to the same value, and the
fields are joined into rows a chunk at a time.
"""

from __future__ import annotations

import csv
import re
from io import StringIO
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError
from .feedback import (
    FeedbackDataset,
    Interner,
    KeyTable,
    ObservationSet,
    PredictionSet,
    check_feedback,
    check_observation,
    check_prediction,
)

OBSERVATION_HEADER = ["user_id", "item_id", "trial", "rating"]
FEEDBACK_HEADER = ["user_id", "item_id", "mu", "sigma"]
PREDICTION_HEADER = ["user_id", "item_id", "prediction"]
HISTOGRAM_HEADER = ["bin_lo", "bin_hi", "count"]
SAMPLE_DUMP_HEADER = ["sample_index", "score"]

# Bytes per piece of plain text read, and rows per piece of other text read
# or of any text written: pieces bound the fields alive at once.
_CHUNK_CHARS = 1 << 18
_CHUNK_ROWS = 1 << 14

# Mask of the last k bytes of an 8-byte word, for k = 0..8.
_SUFFIX = np.array([2 ** (8 * k) - 1 for k in range(9)], dtype=np.uint64)

# Characters that make a written id need quotes.
_SPECIAL = re.compile('[,"\n\r]')

# What a failed conversion or check raises on the vectorised path.
_FAULTS = (InputError, ValueError, OverflowError, csv.Error)


def _records(text: str) -> Iterator[list[str]]:
    return csv.reader(StringIO(text, newline=""))


def _positions(path: Path, header: Sequence[str], got: list[str] | None) -> list[int]:
    """Position of each ``header`` column in the file's header ``got``."""
    if got is None:
        raise InputError(f"{path}: empty file, expected header {','.join(header)}")
    for column in header:
        if column not in got:
            raise InputError(f"{path}: missing column {column!r} in header")
    for column in got:
        if column not in header:
            raise InputError(f"{path}: unexpected column {column!r} in header")
    for column in header:
        if got.count(column) > 1:
            raise InputError(f"{path}: duplicate column {column!r} in header")
    return [got.index(column) for column in header]


def _split_pieces(data: bytes, start: int, width: int, columns) -> Iterator[list]:
    """Converted ``columns`` of the lines of plain ``data[start:]``, piece by piece.

    ``columns`` holds the position and kind of each column. A column whose
    fields in a piece are all of 8 bytes or less is keyed: each field is
    read as the big-endian word that ends with it, masked to its length,
    so two fields share a key exactly when their texts are equal. NUL pads
    a key, so a piece holding one, like a longer field, takes the split of
    the decoded text.
    """
    limit = csv.field_size_limit()
    buffer = np.frombuffer(data, dtype=np.uint8)
    # the 8 bytes from each offset, as a view; a field ends after the header,
    # so at least 8 bytes into data
    words = np.ndarray((len(data) - 7,), ">u8", data, strides=(1,))
    # work space reused by every piece: a fresh buffer of a piece's size
    # costs a page fault per 4 KiB each time it is allocated
    found, spaced = np.empty(0, dtype=bool), np.empty(0, dtype=np.uint8)
    stop = len(data) - data.endswith(b"\n")
    while start < stop:
        end = data.find(b"\n", min(start + _CHUNK_CHARS, stop), stop)
        end = stop if end < 0 else end
        piece = buffer[start:end]
        if len(found) < len(piece):
            found = np.empty(2 * len(piece), dtype=bool)
            spaced = np.empty(2 * len(piece), dtype=np.uint8)
        is_byte = found[: len(piece)]
        commas = np.flatnonzero(np.equal(piece, ord(","), out=is_byte))
        lines = np.append(np.flatnonzero(np.equal(piece, ord("\n"), out=is_byte)), len(piece))
        if len(commas) != (width - 1) * len(lines) or (
            np.searchsorted(commas, lines) != np.arange(width - 1, len(commas) + 1, width - 1)
        ).any():
            raise ValueError("a row has the wrong number of fields")
        # where each field ends and how long it is, one row per line
        ends = np.column_stack((commas.reshape(-1, width - 1), lines))
        sizes = ends - np.column_stack((np.append(0, lines[:-1] + 1), ends[:, :-1] + 1))
        # a character is no shorter than a byte
        for field in np.flatnonzero(sizes > limit).tolist():
            last = ends.flat[field]
            text = piece[last - sizes.flat[field] : last].tobytes().decode()
            if len(text) > limit:
                raise ValueError("a field is larger than the field limit")
        keyable = data.find(b"\0", start, end) < 0
        flat = None
        converted = []
        for j, kind in columns:
            if keyable and sizes[:, j].max() <= 8:
                converted.append(_keyed(words[ends[:, j] + start - 8], sizes[:, j], kind))
                continue
            if flat is None:
                # the piece with a comma for each line end, as text
                joined = spaced[: len(piece)]
                joined[:] = piece
                joined[lines[:-1]] = ord(",")
                flat = str(joined, "utf-8").split(",")
            converted.append(_converted(flat[j::width], kind))
        yield converted
        start = end + 1


def _keyed(words: np.ndarray, size: np.ndarray, kind: type):
    """A column whose field ``i`` is the last ``size[i]`` <= 8 bytes of ``words[i]``.

    Each distinct text is decoded and converted once.
    """
    keys, codes = np.unique(words & _SUFFIX[size], return_inverse=True)
    texts = [key.lstrip(b"\0").decode() for key in keys.astype(">u8").view("S8").tolist()]
    if kind is str:
        return texts, codes
    return np.array(list(map(kind, texts)), dtype=np.int64 if kind is int else float)[codes]


def _converted(fields: list[str], kind: type):
    """A column of text ``fields``: ids as ``(fields, None)``, numbers as an array."""
    if kind is str:
        return fields, None
    if kind is int:  # trials repeat: convert each distinct text once
        number = {text: int(text) for text in dict.fromkeys(fields)}
        return np.fromiter(map(number.__getitem__, fields), dtype=np.int64, count=len(fields))
    return np.fromiter(map(kind, fields), dtype=float, count=len(fields))


def _csv_pieces(rows: Iterator[list[str]], width: int, columns) -> Iterator[list]:
    """Converted ``columns`` of the ``csv.reader`` rows, piece by piece."""
    while piece := list(islice(rows, _CHUNK_ROWS)):
        if set(map(len, piece)) != {width}:
            raise ValueError("a row has the wrong number of fields")
        flat = list(chain.from_iterable(piece))
        yield [_converted(flat[j::width], kind) for j, kind in columns]


def _columns(pieces: Iterable[list]):
    """Key table, each row's pair and the numeric columns of the pieces.

    Each piece holds the user and item column as ``Interner.add`` arguments,
    then the numeric columns as arrays.
    """
    users, items = Interner(), Interner()
    numbers = []
    for user, item, *values in pieces:
        users.add(*user)
        items.add(*item)
        numbers.append(values)
    keys, pair = KeyTable.from_codes(users.ranked(), items.ranked())
    return keys, pair, [np.concatenate(column) for column in zip(*numbers)]


def _read(
    path: str | Path,
    header: Sequence[str],
    kinds: Sequence[type],
    build: Callable,
    rule: Callable[..., None],
    unique: str | None = None,
):
    """``build(keys, pair, *numeric columns)`` of the CSV at ``path``.

    ``rule`` checks the numbers of one row, and ``unique`` names a pair
    that may appear only once. Both run only when reading or ``build``
    fails, to name the first row that breaks them.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
        plain = b'"' not in data and b"\r" not in data
        if not plain:
            text = data.decode()
            del data  # csv.reader and _diagnose read only the text
        elif not data.isascii():
            data.decode()  # the error names the first byte that is not UTF-8
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if plain:
        end = data.find(b"\n") + 1 or len(data)
        rows = _records(data[:end].decode())
    else:
        rows = _records(text)
    try:
        got = next(rows, None)
    except csv.Error as exc:
        raise InputError(f"{path}:{rows.line_num}: {exc}") from None
    index = _positions(path, header, got)
    columns = list(zip(index, (str, str, *kinds)))
    if plain:
        pieces = _split_pieces(data, end, len(header), columns)
    else:
        pieces = _csv_pieces(rows, len(header), columns)
    try:
        keys, pair, numbers = _columns(pieces)
        if not len(pair):
            raise InputError(f"{path}: no data rows")
        return build(keys, pair, *numbers)
    except _FAULTS:
        _diagnose(path, data.decode() if plain else text, header, index, kinds, rule, unique)
        raise


def _diagnose(path: Path, text: str, header, index, kinds, rule, unique) -> None:
    """Raise the ``path:line`` error of the first row that breaks a row rule.

    Each row is checked in one order: its fields in ``header`` order, each
    present and converted by its kind, then ``rule`` on its numbers, then
    the uniqueness of its pair, then its width.
    """
    rows = _records(text)
    seen: set = set()
    try:
        next(rows)
        for row in rows:
            values = []
            for column, j, kind in zip(header, index, (str, str, *kinds)):
                if j >= len(row):
                    raise InputError("row has too few fields")
                try:
                    values.append(kind(row[j]))
                except ValueError:
                    raise InputError(f"bad {column} value {row[j]!r}") from None
            user, item, *numbers = values
            rule(*numbers)
            if unique is not None and (user, item) in seen:
                raise InputError(f"duplicate {unique} for {user}/{item}")
            seen.add((user, item))
            if len(row) > len(index):
                raise InputError("row has too many fields")
    except (InputError, csv.Error) as exc:
        raise InputError(f"{path}:{rows.line_num}: {exc}") from None


def read_observations(path: str | Path) -> ObservationSet:
    return _read(
        path, OBSERVATION_HEADER, (int, float), ObservationSet.from_columns, check_observation
    )


def write_observations(path: str | Path, obs: ObservationSet) -> None:
    _write_columns(path, OBSERVATION_HEADER, (obs.trial, obs.value), obs.keys, obs.pair)


def read_feedback(path: str | Path) -> FeedbackDataset:
    return _read(
        path, FEEDBACK_HEADER, (float, float), FeedbackDataset.from_columns,
        check_feedback, "feedback",
    )


def write_feedback(path: str | Path, data: FeedbackDataset) -> None:
    _write_columns(path, FEEDBACK_HEADER, (data.mu, data.sigma), data.keys)


def read_predictions(path: str | Path) -> PredictionSet:
    return _read(
        path, PREDICTION_HEADER, (float,), PredictionSet.from_columns,
        check_prediction, "prediction",
    )


def write_predictions(path: str | Path, predictions: PredictionSet) -> None:
    _write_columns(path, PREDICTION_HEADER, (predictions.values,), predictions.keys)


def write_histogram(path: str | Path, bins: Sequence[np.ndarray]) -> None:
    """Write the ``(bin_lo, bin_hi, count)`` columns of ``simulate.histogram``."""
    _write_columns(path, HISTOGRAM_HEADER, bins)


def write_sample_dump(path: str | Path, samples: Sequence[float] | np.ndarray) -> None:
    score = np.asarray(samples, dtype=float)
    _write_columns(path, SAMPLE_DUMP_HEADER, (np.arange(len(score)), score))


def _write_columns(
    path: str | Path,
    header: Sequence[str],
    numbers: Sequence[np.ndarray],
    keys: KeyTable | None = None,
    pair: np.ndarray | None = None,
) -> None:
    """CSV with ``header``: the user and item of each row's pair, then ``numbers``.

    Rows are those of ``numbers``; row ``j`` holds pair ``pair[j]`` of
    ``keys``, or pair ``j`` when ``pair`` is None. Numbers are written as
    the shortest repr that reads back to the same value, ids quoted only
    where they must be. Rows are joined ``_CHUNK_ROWS`` at a time. A file
    that cannot be written raises ``InputError``.
    """
    ids = () if keys is None else (_fields(keys.users), _fields(keys.items))
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            handle.write(",".join(header) + "\n")
            for start in range(0, len(numbers[0]), _CHUNK_ROWS):
                rows = slice(start, start + _CHUNK_ROWS)
                at = rows if pair is None else pair[rows]
                columns = [names[at].tolist() for names in ids]
                columns += [_texts(column[rows]) for column in numbers]
                handle.write("\n".join(map(",".join, zip(*columns))))
                handle.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _texts(values: np.ndarray) -> list[str]:
    """``repr`` of each value, made once per distinct bit pattern (``-0.0`` is not ``0.0``)."""
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(values.dtype).tolist())), dtype=object)
    return texts[inverse].tolist()


def _fields(ids: np.ndarray) -> np.ndarray:
    """``ids`` as CSV fields, each distinct id checked once.

    An id holding ``,``, ``"``, LF or CR is put in quotes, each ``"`` doubled.
    """
    quoted = {
        name: '"' + name.replace('"', '""') + '"'
        for name in dict.fromkeys(ids.tolist())
        if _SPECIAL.search(name)
    }
    if not quoted:
        return ids
    return np.array([quoted.get(name, name) for name in ids.tolist()], dtype=object)
