"""CSV formats for observations, feedback parameters and predictions.

All files are UTF-8 with a ``.`` decimal separator; a reader skips a
leading byte-order mark. Records end in LF (the writers) or CRLF, and
fields follow RFC 4180 quoting, so an id may hold any character; the
writers quote an id that holds ``,``, ``"``, LF or CR. Headers are fixed,
in any column order, and a repeated column is rejected:

    observations: user_id,item_id,trial,rating
    feedback:     user_id,item_id,mu,sigma
    predictions:  user_id,item_id,prediction
    sample dump:  sample_index,score

Reading turns a file into numpy columns in chunks. Text without ``"``
whose every ``\r`` comes before a ``\n`` is read with those ``\r``
dropped, so each CRLF stays one line. Text without ``"`` and ``\r`` is
then cut at line ends into pieces of about 256 KiB, and its fields are
found on the bytes, in one pass over each piece for its commas and line
ends. In a piece, a column whose fields are all of 8 bytes or less is
keyed: each field becomes one integer of its bytes. Each distinct key is
decoded and converted once per file: a column keeps the keys it has met
(up to 65536), and finds most of them through a hash table in one step.
Longer fields, and every field of a piece that holds a NUL byte, are split
from the decoded text with ``str.split``. Any other text goes through
``csv.reader``. Both reject a field longer than ``csv.field_size_limit()``.
A split column of numbers whose texts repeat, judged from a sample of a
piece's fields, is converted once per distinct text. A number column is
parsed as ``int`` under the index rule of the data set's ``COLUMNS`` and as
``float`` otherwise. The columns go to the data set's ``from_columns``,
which checks them vectorised by ``COLUMNS``. Only when a conversion or a
check fails does a second pass walk the rows through ``csv.reader`` to
name the first bad one as ``path:line``. Every format checks a row in one
order: its fields in header order, each present (``row has too few
fields``) and converted (``bad <column> value``), then the data set's
``check_row`` on the row's values, the same rules in the same order, then
a repeated key (the pair, or for observations the pair and trial), then
``row has too many fields``. The headers and the repeated-key rule are
decisions of the file format, and are set here.

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
from typing import Iterator, Sequence

import numpy as np

from .errors import InputError
from .feedback import FeedbackDataset, Interner, KeyTable, ObservationSet, PredictionSet

OBSERVATION_HEADER = ["user_id", "item_id", "trial", "rating"]
FEEDBACK_HEADER = ["user_id", "item_id", "mu", "sigma"]
PREDICTION_HEADER = ["user_id", "item_id", "prediction"]
SAMPLE_DUMP_HEADER = ["sample_index", "score"]

# Bytes per piece of plain text read, and rows per piece of other text read
# or of any text written: pieces bound the fields alive at once.
_CHUNK_CHARS = 1 << 18
_CHUNK_ROWS = 1 << 14

# Keys of short texts a column keeps while a file is read (see ``_Column``).
_MAX_KEYS = 1 << 16

# Fibonacci hashing's multiplier: 2**64 divided by the golden ratio, made odd.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

# Mask of the last k bytes of an 8-byte word in memory, for k = 0..8.
_SUFFIX = np.frombuffer(b"".join(bytes(8 - k) + b"\xff" * k for k in range(9)), np.uint64)

# The byte-order mark some spreadsheets write at the start of a UTF-8 file.
_BOM = "\ufeff".encode()

# Characters that make a written id need quotes.
_SPECIAL = re.compile('[,"\n\r]')

# What a failed conversion or check raises on the vectorised path.
_FAULTS = (ValueError, OverflowError, csv.Error)  # an InputError is a ValueError


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


class _Column:
    """A column of the file being read: its kind, and the keyed texts met so far.

    A text of 8 bytes or less that ``_split_pieces`` keys is decoded and
    converted once per file. ``keys`` holds, sorted, each key met, and
    ``values`` its value: the number, or for an id its code in ``names``.
    The last key is one that no field has, as 8 bytes of 0xFF are not
    UTF-8. Slot ``slot(key)`` of ``table`` holds the position of a key that
    falls in it, or of the last key when none does, so most keys are found
    in one step. Up to ``_MAX_KEYS`` keys are kept; a text beyond them is
    decoded once per piece.
    """

    __slots__ = ("kind", "names", "keys", "values", "shift", "table")

    def __init__(self, kind: type) -> None:
        self.kind = kind
        self.names = Interner() if kind is str else None
        self.keys = np.array([2**64 - 1], dtype=np.uint64)
        dtype = np.intp if kind is str else np.int64 if kind is int else float
        self.values = np.zeros(1, dtype=dtype)
        self._index()

    def convert(self, texts: list[str]) -> np.ndarray:
        """The value of each of ``texts``: ids coded, numbers converted.

        Numbers whose texts repeat are converted once per distinct text.
        """
        if self.names is not None:
            return self.names.codes(texts)
        number = self.kind
        if _repeats(texts):
            number = {text: number(text) for text in dict.fromkeys(texts)}.__getitem__
        return np.fromiter(map(number, texts), dtype=self.values.dtype, count=len(texts))

    def slot(self, keys: np.ndarray) -> np.ndarray:
        """Fibonacci hashing: the top bits of each key times 2**64 / golden ratio."""
        return ((keys * _GOLDEN) >> self.shift).view(np.intp)

    def learn(self, keys: np.ndarray) -> np.ndarray:
        """Values of the sorted distinct ``keys``, each new one decoded and converted."""
        at = np.searchsorted(self.keys, keys)
        new = self.keys[at] != keys
        values = self.values[at]
        if new.any():
            fresh = keys[new]
            texts = [key.lstrip(b"\0").decode() for key in fresh.view("S8").tolist()]
            values[new] = self.convert(texts)
            if len(self.keys) + len(fresh) <= _MAX_KEYS:
                self.keys = np.insert(self.keys, at[new], fresh)
                self.values = np.insert(self.values, at[new], values[new])
                self._index()
        return values

    def _index(self) -> None:
        # 4 to 8 slots per key
        bits = (4 * len(self.keys)).bit_length()
        self.shift = np.uint64(64 - bits)
        self.table = np.full(1 << bits, len(self.keys) - 1, dtype=np.intp)
        self.table[self.slot(self.keys[:-1])] = np.arange(len(self.keys) - 1)


def _split_pieces(data: bytes, start: int, width: int, columns) -> Iterator[list]:
    """Values of ``columns`` in the lines of plain ``data[start:]``, piece by piece.

    ``columns`` holds the position and ``_Column`` of each column. A
    piece's separators are found in one pass, and the fields between them
    must make rows of ``width``. A column whose fields in a piece are
    all of 8 bytes or less is keyed: each field is read as the native-endian
    word whose 8 bytes end with it, masked to its length, so the key's bytes
    are the field right-aligned after NULs, and two fields share a key
    exactly when their texts are equal. NUL pads a key, so a piece holding
    one, like a longer field, takes the split of the decoded text.
    """
    limit = csv.field_size_limit()
    buffer = np.frombuffer(data, dtype=np.uint8)
    # the 8 bytes from each offset, as a view; a field ends after the header,
    # so at least 8 bytes into data
    words = np.ndarray((len(data) - 7,), np.uint64, data, strides=(1,))
    # work space reused by every piece: a fresh buffer of a piece's size
    # costs a page fault per 4 KiB each time it is allocated
    marks = newlines = spaced = np.empty(0, dtype=np.uint8)
    stop = len(data) - data.endswith(b"\n")
    while start < stop:
        end = data.find(b"\n", min(start + _CHUNK_CHARS, stop), stop)
        # a cut at stop - 1 would drop the empty last line after it
        end = stop if end < 0 or end + 1 == stop else end
        piece = buffer[start:end]
        if len(marks) < len(piece) + 2:
            size = 2 * len(piece) + 2
            marks, newlines, spaced = (np.empty(size, dtype=np.uint8) for _ in range(3))
        # mark i + 1 tells whether byte i of the piece ends a field; the
        # first and last marks stand for the line ends around the piece
        is_line = np.equal(piece, ord("\n"), out=newlines[: len(piece)].view(bool))
        is_end = marks[: len(piece) + 2].view(bool)
        np.equal(piece, ord(","), out=is_end[1:-1])
        is_end[1:-1] |= is_line
        is_end[0] = is_end[-1] = True
        # field k of the piece is piece[bounds[k] : bounds[k + 1] - 1]
        bounds = np.flatnonzero(is_end)
        if (len(bounds) - 1) % width:
            raise ValueError("a row has the wrong number of fields")
        # one past the end of each field, one row per line
        after = bounds[1:].reshape(-1, width)
        lines = after[:-1, -1] - 1
        # every line end closes a row, so the other separators are commas
        if np.count_nonzero(is_line) != len(lines) or not is_line[lines].all():
            raise ValueError("a row has the wrong number of fields")
        sizes = np.diff(bounds).reshape(after.shape)
        sizes -= 1
        # a character is no shorter than a byte
        for field in np.flatnonzero(sizes > limit).tolist():
            last = after.flat[field] - 1
            text = piece[last - sizes.flat[field] : last].tobytes().decode()
            if len(text) > limit:
                raise ValueError("a field is larger than the field limit")
        keyable = data.find(b"\0", start, end) < 0
        flat = None
        converted = []
        for j, column in columns:
            if keyable and sizes[:, j].max() <= 8:
                converted.append(_keyed(words[after[:, j] + (start - 9)], sizes[:, j], column))
                continue
            if flat is None:
                # the piece with a comma for each line end, as text
                joined = spaced[: len(piece)]
                joined[:] = piece
                joined[lines] = ord(",")
                flat = str(joined, "utf-8").split(",")
            converted.append(column.convert(flat[j::width]))
        yield converted
        start = end + 1


def _keyed(words: np.ndarray, size: np.ndarray, column: _Column) -> np.ndarray:
    """Values of ``column`` whose field ``i`` is the last ``size[i]`` <= 8 bytes of ``words[i]``."""
    keys = words & _SUFFIX[size]
    at = column.table[column.slot(keys)]
    values = column.values[at]
    # keys another key took the slot of, and keys not met yet
    missed = column.keys[at] != keys
    if missed.any():
        distinct, codes = np.unique(keys[missed], return_inverse=True)
        values[missed] = column.learn(distinct)[codes]
    return values


def _repeats(fields: list[str]) -> bool:
    """Whether about 64 of ``fields``, spread over them, hold each text twice or more."""
    sample = fields[:: max(1, len(fields) // 64)]
    return 2 * len(set(sample)) <= len(sample)


def _csv_pieces(rows: Iterator[list[str]], width: int, columns) -> Iterator[list]:
    """Values of ``columns`` in the ``csv.reader`` rows, piece by piece."""
    while piece := list(islice(rows, _CHUNK_ROWS)):
        if set(map(len, piece)) != {width}:
            raise ValueError("a row has the wrong number of fields")
        flat = list(chain.from_iterable(piece))
        yield [column.convert(flat[j::width]) for j, column in columns]


def _read(path: str | Path, header: Sequence[str], cls, unique: str, key: int = 2):
    """``cls.from_columns(keys, pair, *numeric columns)`` of the CSV at ``path``.

    ``header`` names the ids, then the columns of ``cls.COLUMNS``, each
    parsed as ``int`` under the index rule and as ``float`` otherwise.
    ``unique`` names a row whose first ``key`` fields may appear only once.
    ``cls.check_row`` and that rule run only when reading or
    ``from_columns`` fails, to name the first row that breaks them.
    """
    kinds = (str, str, *(int if rule is None else float for _, rule in cls.COLUMNS))
    path = Path(path)
    try:
        data = path.read_bytes()
        if data.startswith(_BOM):
            data = data[len(_BOM) :]
        if b"\r" in data and b'"' not in data and data.count(b"\r") == data.count(b"\r\n"):
            # each CRLF is one line, as each LF is, so the text reads as LF
            # text on the same lines
            data = data.replace(b"\r\n", b"\n")
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
    columns = [(j, _Column(kind)) for j, kind in zip(index, kinds)]
    if plain:
        pieces = _split_pieces(data, end, len(header), columns)
    else:
        pieces = _csv_pieces(rows, len(header), columns)
    try:
        parts = [np.concatenate(part) for part in zip(*pieces)]
        if not parts:
            raise InputError(f"{path}: no data rows")
        user_codes, item_codes, *numbers = parts
        (_, users), (_, items) = columns[:2]
        ranked = users.names.ranked(user_codes), items.names.ranked(item_codes)
        return cls.from_columns(*KeyTable.from_codes(*ranked), *numbers)
    except _FAULTS:
        text = data.decode() if plain else text
        _diagnose(path, text, header, index, kinds, cls.check_row, unique, key)
        raise


def _diagnose(path: Path, text: str, header, index, kinds, check_row, unique, key) -> None:
    """Raise the ``path:line`` error of the first row that breaks a row rule.

    Each row is checked in one order: its fields in ``header`` order, each
    present and converted by its kind, then the data set's ``check_row`` on
    its numbers, then the uniqueness of its first ``key`` values, then its
    width.
    """
    rows = _records(text)
    seen: set = set()
    fields = list(zip(header, index, kinds))
    try:
        next(rows)
        for row in rows:
            values = []
            for column, j, kind in fields:
                if j >= len(row):
                    raise InputError("row has too few fields")
                try:
                    values.append(kind(row[j]))
                except ValueError:
                    raise InputError(f"bad {column} value {row[j]!r}") from None
            user, item, *numbers = values
            check_row(*numbers)
            row_key = tuple(values[:key])
            if row_key in seen:
                named = "".join(f" {c} {v}" for c, v in zip(header[2:key], numbers))
                raise InputError(f"duplicate {unique} for {user}/{item}{named}")
            seen.add(row_key)
            if len(row) > len(index):
                raise InputError("row has too many fields")
    except (InputError, csv.Error) as exc:
        raise InputError(f"{path}:{rows.line_num}: {exc}") from None


def read_observations(path: str | Path) -> ObservationSet:
    return _read(path, OBSERVATION_HEADER, ObservationSet, "observation", 3)


def write_observations(path: str | Path, obs: ObservationSet) -> None:
    _write_columns(path, OBSERVATION_HEADER, (obs.trial, obs.value), obs.keys, obs.pair)


def read_feedback(path: str | Path) -> FeedbackDataset:
    return _read(path, FEEDBACK_HEADER, FeedbackDataset, "feedback")


def write_feedback(path: str | Path, data: FeedbackDataset) -> None:
    _write_columns(path, FEEDBACK_HEADER, (data.mu, data.sigma), data.keys)


def read_predictions(path: str | Path) -> PredictionSet:
    return _read(path, PREDICTION_HEADER, PredictionSet, "prediction")


def write_predictions(path: str | Path, predictions: PredictionSet) -> None:
    _write_columns(path, PREDICTION_HEADER, (predictions.values,), predictions.keys)


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
