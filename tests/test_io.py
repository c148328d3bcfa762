import csv
import sys
import tempfile
import tracemalloc
from io import StringIO
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncertain_eval import io
from uncertain_eval import (
    FeedbackDataset,
    InputError,
    KeyTable,
    ObservationSet,
    PredictionSet,
)
from uncertain_eval.feedback import Interner
from uncertain_eval.rng import MAX_MAGNITUDE
from uncertain_eval.io import (
    read_feedback,
    read_observations,
    read_predictions,
    write_feedback,
    write_observations,
    write_predictions,
    write_sample_dump,
)

from conftest import synthetic_demo


def test_observation_roundtrip(tmp_path):
    obs = ObservationSet.from_ids(
        ["bob", "alice", "alice"], ["movie-2", "movie-1", "movie-1"], [0, 1, 0], [4.0, 3.25, 3.0]
    )
    path = tmp_path / "obs.csv"
    write_observations(path, obs)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "user_id,item_id,trial,rating"
    assert "\r" not in text
    # rows come out in canonical (user, item, trial) order
    assert text.splitlines()[1].startswith("alice,movie-1,0")

    loaded = read_observations(path)
    assert _keys(loaded) == _keys(obs)
    for column in ("pair", "trial", "value"):
        assert getattr(loaded, column).tolist() == getattr(obs, column).tolist()


def test_feedback_roundtrip_preserves_floats(tmp_path):
    data = FeedbackDataset.from_ids(
        ["u1", "u2"], ["i1", "i1"], [3.141592653589793, 4.0], [0.1234567890123, 0.0]
    )
    path = tmp_path / "feedback.csv"
    write_feedback(path, data)
    loaded = read_feedback(path)
    assert loaded.N == 2
    assert _keys(loaded) == _keys(data)
    assert loaded.mu.tolist() == data.mu.tolist()
    assert loaded.sigma.tolist() == data.sigma.tolist()


def test_prediction_roundtrip(tmp_path):
    predictions = PredictionSet.from_ids(["u1", "u2"], ["i1", "i9"], [3.5, 1.25])
    path = tmp_path / "pred.csv"
    write_predictions(path, predictions)
    assert path.read_text(encoding="utf-8").splitlines()[0] == (
        "user_id,item_id,prediction"
    )
    loaded = read_predictions(path)
    assert _keys(loaded) == _keys(predictions)
    assert loaded.values.tolist() == predictions.values.tolist()


def test_missing_column_names_the_column(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("user_id,item_id,rating\nu,i,3.0\n", encoding="utf-8")
    with pytest.raises(InputError, match="'trial'"):
        read_observations(path)


def test_unexpected_column_rejected(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text(
        "user_id,item_id,trial,rating,extra\nu,i,0,3.0,x\n", encoding="utf-8"
    )
    with pytest.raises(InputError, match="'extra'"):
        read_observations(path)


def test_malformed_row_reports_line_number(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text(
        "user_id,item_id,trial,rating\nu,i,0,3.0\nu,i,1,not-a-number\n",
        encoding="utf-8",
    )
    with pytest.raises(InputError, match=r":3:"):
        read_observations(path)


def test_bad_trial_reports_line_number(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("user_id,item_id,trial,rating\nu,i,x,3.0\n", encoding="utf-8")
    with pytest.raises(InputError, match=r":2:.*trial"):
        read_observations(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(InputError, match="empty"):
        read_observations(path)


def test_header_only_rejected(tmp_path):
    path = tmp_path / "feedback.csv"
    path.write_text("user_id,item_id,mu,sigma\n", encoding="utf-8")
    with pytest.raises(InputError, match="no data rows"):
        read_feedback(path)


def test_negative_sigma_rejected_with_line(tmp_path):
    path = tmp_path / "feedback.csv"
    path.write_text(
        "user_id,item_id,mu,sigma\nu,i,3.0,-0.5\n", encoding="utf-8"
    )
    with pytest.raises(InputError, match=r":2:"):
        read_feedback(path)


def test_duplicate_prediction_rejected(tmp_path):
    path = tmp_path / "pred.csv"
    path.write_text(
        "user_id,item_id,prediction\nu,i,3.0\nu,i,4.0\n", encoding="utf-8"
    )
    with pytest.raises(InputError, match="duplicate"):
        read_predictions(path)


def test_degenerate_scale_inference(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text(
        "user_id,item_id,trial,rating\nu,i,0,3.0\nu,i,1,3.0\n", encoding="utf-8"
    )
    obs = read_observations(path)
    assert obs.value.tolist() == [3.0, 3.0]


@pytest.mark.parametrize("value", [2.0**53, -(2.0**60), MAX_MAGNITUDE, -MAX_MAGNITUDE])
def test_degenerate_scale_inference_beyond_unit_spacing(tmp_path, value):
    path = tmp_path / "obs.csv"
    path.write_text(
        f"user_id,item_id,trial,rating\nu,i,0,{value!r}\nu,i,1,{value!r}\n", encoding="utf-8"
    )
    obs = read_observations(path)
    assert obs.value.tolist() == [value, value]


@pytest.mark.parametrize("value", [sys.float_info.max, -sys.float_info.max])
def test_rating_beyond_the_domain_names_its_line(tmp_path, value):
    path = tmp_path / "obs.csv"
    path.write_text(
        f"user_id,item_id,trial,rating\nu,i,0,3.0\nu,i,1,{value!r}\n", encoding="utf-8"
    )
    with pytest.raises(InputError) as info:
        read_observations(path)
    assert str(info.value) == f"{path}:3: rating value must lie in [-1e+50, 1e+50], got {value}"


def test_sample_dump_format(tmp_path):
    path = tmp_path / "dump.csv"
    write_sample_dump(path, [0.5, 1.25])
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["sample_index,score", "0,0.5", "1,1.25"]


# Any character a UTF-8 file can hold, with the carriage return drawn often.
id_chars = st.one_of(st.just("\r"), st.characters(blacklist_categories=("Cs",)))
finite = st.floats(allow_nan=False, allow_infinity=False)
# The values a data set holds; ``test_texts_round_trip_any_float`` takes the
# writers' number texts over all of ``finite``.
bounded = st.floats(-MAX_MAGNITUDE, MAX_MAGNITUDE)


def _pairs(chars, max_size=6):
    ids = st.text(chars, max_size=4)
    return st.lists(st.tuples(ids, ids), min_size=1, max_size=max_size, unique=True)


def _written(write, data) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        write(path, data)
        return path.read_bytes().decode("utf-8")


def _read(read, text: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(text, encoding="utf-8", newline="")
        return read(path)


def _keys(data):
    return data.keys.users.tolist(), data.keys.items.tolist()


def _three_sets(pairs, values):
    users, items = [u for u, _ in pairs], [i for _, i in pairs]
    keys, pair = KeyTable.intern(users, items)
    n = len(pairs)
    obs = ObservationSet.from_columns(
        keys, np.repeat(pair, 2), [0, 1] * n, np.repeat(values, 2)
    )
    feedback = FeedbackDataset.from_columns(
        keys, pair, values, np.abs(values), np.zeros(n, dtype=np.int64)
    )
    return obs, feedback, PredictionSet.from_columns(keys, pair, values)


WRITERS = [
    (write_observations, read_observations, ("pair", "trial", "value")),
    (write_feedback, read_feedback, ("mu", "sigma")),
    (write_predictions, read_predictions, ("values",)),
]


@settings(max_examples=60, deadline=None)
@given(_pairs(id_chars), st.data())
def test_written_ids_read_back_unchanged(pairs, data):
    values = np.array(data.draw(st.lists(bounded, min_size=len(pairs), max_size=len(pairs))))
    for written, (write, read, columns) in zip(_three_sets(pairs, values), WRITERS):
        loaded = _read(read, _written(write, written))
        assert _keys(loaded) == _keys(written)
        for column in columns:
            assert getattr(loaded, column).tobytes() == getattr(written, column).tobytes()


@settings(max_examples=60, deadline=None)
@given(_pairs(st.sampled_from("a\r,\"\n")))
def test_ids_with_carriage_return_fail_or_read_back_unchanged(pairs):
    values = np.arange(len(pairs), dtype=float)
    for written, (write, read, _) in zip(_three_sets(pairs, values), WRITERS):
        text = _written(write, written)
        try:
            loaded = _read(read, text)
        except InputError:
            assert "\r" in text
        else:
            assert _keys(loaded) == _keys(written)


def test_carriage_return_in_id_round_trips(tmp_path):
    obs = ObservationSet.from_ids(["a\rb"], ["i\r"], [0], [3.0])
    path = tmp_path / "obs.csv"
    write_observations(path, obs)
    assert path.read_bytes() == b'user_id,item_id,trial,rating\n"a\rb","i\r",0,3.0\n'
    assert _keys(read_observations(path)) == (["a\rb"], ["i\r"])


def test_quoted_newline_in_id_reads_back(tmp_path):
    path = tmp_path / "pred.csv"
    path.write_text('user_id,item_id,prediction\n"a\nb",i,3.0\n', encoding="utf-8")
    assert _keys(read_predictions(path)) == (["a\nb"], ["i"])


# Ids the plain tokeniser can read: no quote, comma or line break.
plain_chars = st.characters(
    blacklist_categories=("Cs",), blacklist_characters='\r\n,"'
)


def _encodings(header: str, rows: list[list[str]]) -> dict[str, str]:
    lines = [header] + [",".join(row) for row in rows]
    quoted = [",".join(f'"{f}"' for f in line.split(",")) for line in lines]
    return {
        "plain": "\n".join(lines) + "\n",
        "quoted": "\n".join(quoted) + "\n",
        "crlf": "\r\n".join(lines) + "\r\n",
    }


@settings(max_examples=60, deadline=None)
@given(
    _pairs(plain_chars, max_size=12),
    st.data(),
    st.sampled_from([1, 16, 1 << 18]),
    st.sampled_from([1, 5, 1 << 16]),
)
def test_tokenisers_agree(pairs, data, chunk_chars, chunk_rows):
    n = len(pairs)
    numbers = st.lists(bounded, min_size=n, max_size=n)
    mu, sigma = data.draw(numbers), [abs(x) for x in data.draw(numbers)]
    trials = data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n))
    files = [
        (read_observations, "user_id,trial,item_id,rating", ("pair", "trial", "value"),
         [[u, str(t), i, repr(m)] for (u, i), t, m in zip(pairs, trials, mu)]),
        (read_feedback, "sigma,user_id,item_id,mu", ("mu", "sigma"),
         [[repr(s), u, i, repr(m)] for (u, i), m, s in zip(pairs, mu, sigma)]),
        (read_predictions, "user_id,item_id,prediction", ("values",),
         [[u, i, repr(m)] for (u, i), m in zip(pairs, mu)]),
    ]
    with mock.patch.object(io, "_CHUNK_CHARS", chunk_chars), \
            mock.patch.object(io, "_CHUNK_ROWS", chunk_rows):
        for read, header, columns, rows in files:
            loaded = {}
            for name, text in _encodings(header, rows).items():
                # quoted text takes csv.reader, plain and CRLF text the bytes
                other = "_split_pieces" if name == "quoted" else "_csv_pieces"
                with mock.patch.object(io, other, side_effect=AssertionError(other)):
                    loaded[name] = _read(read, text)
            plain = loaded.pop("plain")
            for other in loaded.values():
                assert _keys(other) == _keys(plain)
                for column in columns:
                    a, b = getattr(other, column), getattr(plain, column)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_duplicate_prediction_columns_rejected():
    keys, pair = KeyTable.intern(["u", "u"], ["i", "i"])
    with pytest.raises(InputError, match="prediction keys must be unique"):
        PredictionSet.from_columns(keys, pair, [1.0, 2.0])


def test_read_observations_memory_is_bounded(tmp_path):
    # 100k rows, 3 MB of text: split as one list of fields they peak near
    # 33 MiB, read as one list per row near 24 MiB; pieces stay near 13 MiB
    rng = np.random.default_rng(3)
    rows = [
        f"u{r // 250:04d},i{r // 5 % 50:02d},{r % 5},{v}\n"
        for r, v in enumerate(rng.normal(3.0, 1.0, 100_000).tolist())
    ]
    path = tmp_path / "obs.csv"
    path.write_text("user_id,item_id,trial,rating\n" + "".join(rows), encoding="utf-8")
    tracemalloc.start()
    try:
        obs = read_observations(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(obs) == 100_000
    assert peak < 18 * 2**20


@pytest.mark.parametrize("quote", ["", '"'])
@pytest.mark.parametrize("line", [1, 3])
def test_field_above_the_size_limit_is_rejected_by_both_tokenisers(tmp_path, quote, line):
    big = quote + "x" * 200_000 + quote
    lines = ["user_id,item_id,trial,rating", "u,i,0,3.0", f"u,{big},0,3.0"]
    if line == 1:
        lines[0] += f",{big}"
    path = tmp_path / "obs.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    message = f"{path}:{line}: field larger than field limit ({csv.field_size_limit()})"
    with pytest.raises(InputError) as raised:
        read_observations(path)
    assert str(raised.value) == message


def test_field_size_limit_counts_characters(tmp_path):
    # 131072 two-byte characters: twice the limit in bytes, at it in characters
    name = "\u00e9" * csv.field_size_limit()
    path = tmp_path / "obs.csv"
    path.write_text(f"user_id,item_id,trial,rating\nu,{name},0,3.0\n", encoding="utf-8")
    assert _keys(read_observations(path)) == (["u"], [name])
    path.write_text(f"user_id,item_id,trial,rating\nu,{name}e,0,3.0\n", encoding="utf-8")
    with pytest.raises(InputError, match=r":2: field larger than field limit"):
        read_observations(path)


def _reference_bytes(header, rows) -> bytes:
    """What ``csv.writer`` writes for ``rows``: the writers' oracle."""
    buffer = StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


# Ids over the characters csv.writer quotes and any other it leaves as they
# are; csv.writer leaves the carriage return unquoted, the writers do not.
writer_ids = st.text(
    st.one_of(
        st.sampled_from(',"\na'),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"),
    ),
    max_size=4,
)
edge_floats = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e16, 1e-5, 0.1]
# data set values, up to the domain's bound, and any float, as a sample dump takes
numbers = st.one_of(st.sampled_from(edge_floats + [MAX_MAGNITUDE, -MAX_MAGNITUDE]), bounded)
any_numbers = st.one_of(
    st.sampled_from(edge_floats + [1.7976931348623157e308, -1.7976931348623157e308, 1e300]),
    finite,
)


def _column(data, n: int, values) -> list:
    """``n`` of ``values``, all distinct or drawn from a pool of at most three."""
    if data.draw(st.booleans()):
        return data.draw(st.lists(values, min_size=n, max_size=n, unique_by=repr))
    pool = data.draw(st.lists(values, min_size=1, max_size=3))
    return data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_texts_round_trip_any_float(data):
    # the writers' number texts over all of float64: the repr of each value,
    # made once per bit pattern
    values = _column(data, data.draw(st.integers(1, 8)), any_numbers)
    column = np.array(values, dtype=float)
    texts = io._texts(column)
    assert texts == [repr(v) for v in values]
    assert np.array(list(map(float, texts))).tobytes() == column.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(writer_ids, writer_ids), min_size=1, max_size=8, unique=True),
    st.data(),
    st.sampled_from([1, 5, io._CHUNK_ROWS]),
)
def test_writers_match_csv_writer(pairs, data, chunk_rows):
    n = len(pairs)
    keys, pair = KeyTable.intern([u for u, _ in pairs], [i for _, i in pairs])
    trials = data.draw(st.lists(
        st.lists(st.one_of(st.integers(0, 4), st.integers(0, 2**63 - 1)),
                 min_size=1, max_size=3, unique=True),
        min_size=n, max_size=n,
    ))
    rows = [(p, t) for p, ts in zip(pair.tolist(), trials) for t in ts]
    obs = ObservationSet.from_columns(
        keys, [p for p, _ in rows], [t for _, t in rows], _column(data, len(rows), numbers)
    )
    mu = _column(data, n, numbers)
    sigma = [x if x >= 0 else -x for x in _column(data, n, numbers)]  # keeps -0.0
    feedback = FeedbackDataset.from_columns(keys, pair, mu, sigma, np.zeros(n, dtype=np.int64))
    predictions = PredictionSet.from_columns(keys, pair, _column(data, n, numbers))
    counts = _column(data, n, st.integers(0, 2**63 - 1))
    bins = (
        np.array(mu, dtype=float), np.array(sigma, dtype=float), np.array(counts, dtype=np.int64)
    )
    samples = _column(data, n, any_numbers)

    users, items = keys.users.tolist(), keys.items.tolist()
    demo = synthetic_demo()  # the histogram's writer lives in its demo
    cases = [
        (write_observations, obs, io.OBSERVATION_HEADER, zip(
            keys.users[obs.pair].tolist(), keys.items[obs.pair].tolist(),
            obs.trial.tolist(), obs.value.tolist())),
        (write_feedback, feedback, io.FEEDBACK_HEADER,
         zip(users, items, feedback.mu.tolist(), feedback.sigma.tolist())),
        (write_predictions, predictions, io.PREDICTION_HEADER,
         zip(users, items, predictions.values.tolist())),
        (demo.write_histogram, bins, demo.HISTOGRAM_HEADER, zip(mu, sigma, counts)),
        (write_sample_dump, samples, io.SAMPLE_DUMP_HEADER, enumerate(samples)),
    ]
    with mock.patch.object(io, "_CHUNK_ROWS", chunk_rows):
        for write, written, header, reference in cases:
            got = _written(write, written).encode("utf-8")
            assert got == _reference_bytes(header, reference), write.__name__


SORT_KEYS, _ = KeyTable.intern([f"u{k}" for k in range(8)], ["i"] * 8)
slots = st.tuples(
    st.integers(0, len(SORT_KEYS) - 1),
    st.one_of(st.integers(0, 9), st.integers(2**63 - 9, 2**63 - 1), st.integers(0, 2**63 - 1)),
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(slots, min_size=1, max_size=30, unique=True),
    st.sampled_from(["shuffled", "presorted", "reversed"]),
    st.randoms(use_true_random=False),
)
def test_observations_are_ordered_like_lexsort(rows, arrangement, random):
    if arrangement == "shuffled":
        random.shuffle(rows)
    else:
        rows.sort(reverse=arrangement == "reversed")
    pair = np.array([p for p, _ in rows], dtype=np.intp)
    trial = np.array([t for _, t in rows], dtype=np.int64)
    value = np.arange(len(rows), dtype=float)
    obs = ObservationSet.from_columns(SORT_KEYS, pair, trial, value)
    order = np.lexsort((trial, pair))
    assert obs.pair.tolist() == pair[order].tolist()
    assert obs.trial.tolist() == trial[order].tolist()
    assert obs.value.tolist() == value[order].tolist()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.one_of(st.tuples(st.integers(0, 2), st.integers(0, 2)), slots), min_size=2, max_size=40),
    st.sampled_from(["input", "presorted"]),
)
def test_duplicate_slot_names_first_repeat_in_input_order(rows, arrangement):
    if arrangement == "presorted":
        rows.sort()
    seen: set = set()
    repeat = None
    for row in rows:
        if row in seen:
            repeat = row
            break
        seen.add(row)
    pair = [p for p, _ in rows]
    trial = [t for _, t in rows]
    if repeat is None:
        assert len(ObservationSet.from_columns(SORT_KEYS, pair, trial, [0.0] * len(rows))) == len(rows)
        return
    message = f"duplicate observation for u{repeat[0]}/i trial {repeat[1]}"
    with pytest.raises(InputError) as raised:
        ObservationSet.from_columns(SORT_KEYS, pair, trial, [0.0] * len(rows))
    assert str(raised.value) == message


def test_write_observations_memory_is_bounded(tmp_path):
    # 100k rows, 3 MB of text: csv.writer over whole-column lists peaked at
    # 5.5 MiB; rows joined 16384 at a time stay near 3.4 MiB
    r = np.arange(100_000)
    keys, pair = KeyTable.intern(
        [f"u{x:04d}" for x in (r // 250).tolist()], [f"i{x:02d}" for x in (r // 5 % 50).tolist()]
    )
    values = np.random.default_rng(3).normal(3.0, 1.0, 100_000)
    obs = ObservationSet.from_columns(keys, pair, r % 5, values)
    path = tmp_path / "obs.csv"
    tracemalloc.start()
    try:
        write_observations(path, obs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.stat().st_size == 3_047_413
    assert peak < 5.5 * 2**20


def _read_encodings(tmp_path, read, header: str, rows: list[list[str]], columns):
    """``read`` of the plain text of ``rows``, checked against its quoted and CRLF texts."""
    loaded = {}
    for name, text in _encodings(header, rows).items():
        other = "_split_pieces" if name == "quoted" else "_csv_pieces"
        path = tmp_path / f"{name}.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with mock.patch.object(io, other, side_effect=AssertionError(other)):
            loaded[name] = read(path)
    plain = loaded.pop("plain")
    for other in loaded.values():
        assert _keys(other) == _keys(plain)
        for column in columns:
            a, b = getattr(other, column), getattr(plain, column)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return plain


@pytest.mark.parametrize("write, read, columns", WRITERS)
def test_leading_byte_order_mark_is_skipped(tmp_path, write, read, columns):
    # a spreadsheet's "CSV UTF-8" export starts the file with the bytes EF BB BF
    sets = _three_sets([("u", "i"), ("v", "i")], np.array([1.5, -2.0]))
    data = sets[[w for w, _, _ in WRITERS].index(write)]
    write(tmp_path / "data.csv", data)
    header, *lines = (tmp_path / "data.csv").read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines]
    bad_row = ["w", "i"] + ["x"] * (len(rows[0]) - 2)
    for good in (True, False):
        texts = _encodings(header, rows if good else rows + [bad_row])
        for name, text in texts.items():
            path = tmp_path / f"{name}.csv"
            read_back = []
            for prefix in (b"", b"\xef\xbb\xbf"):
                path.write_bytes(prefix + text.encode())
                if good:
                    read_back.append(read(path))
                else:
                    with pytest.raises(InputError) as info:
                        read(path)
                    read_back.append(str(info.value))
            bare, marked = read_back
            if not good:
                assert marked == bare
                assert f":{len(rows) + 2}: bad " in marked
                continue
            assert _keys(marked) == _keys(bare)
            for column in columns:
                assert getattr(marked, column).tobytes() == getattr(bare, column).tobytes()


OBSERVATION_COLUMNS = ("pair", "trial", "value")


@pytest.mark.parametrize("size", [8, 9])
def test_fields_of_8_bytes_are_keyed_and_of_9_split(tmp_path, size):
    rows = [
        [chr(ord("a") + k) * size, str(k) * size, str(k + 1) * size, f"{k}." + "5" * (size - 2)]
        for k in range(3)
    ]
    with mock.patch.object(io, "_keyed", wraps=io._keyed) as keyed:
        obs = _read_encodings(tmp_path, read_observations, "user_id,item_id,trial,rating", rows,
                              OBSERVATION_COLUMNS)
    # four columns keyed in the plain text and four in the CRLF text
    assert keyed.call_count == (8 if size == 8 else 0)
    assert _keys(obs) == ([row[0] for row in rows], [row[1] for row in rows])
    assert obs.trial.tolist() == [int(row[2]) for row in rows]
    assert obs.value.tolist() == [float(row[3]) for row in rows]


@pytest.mark.parametrize("ids", [
    ["é", "e", "z", "ab€", "\U0001f600", "abcdefé", "abcdef"],  # all of 8 bytes or less
    ["abcdefgé", "abcdefg", "abcdefé", "abcdefgz"],  # a 2-byte character at bytes 8 and 9
])
def test_multibyte_ids_sort_by_code_point(tmp_path, ids):
    rows = [[name, name, "0", "1.5"] for name in ids]
    predictions = _read_encodings(
        tmp_path, read_predictions, "user_id,item_id,prediction",
        [[name, name, "1.5"] for name in ids], ("values",),
    )
    obs = _read_encodings(tmp_path, read_observations, "user_id,item_id,trial,rating", rows,
                          OBSERVATION_COLUMNS)
    assert _keys(obs) == _keys(predictions) == (sorted(ids), sorted(ids))


@pytest.mark.parametrize("chunk_chars", [1, 1 << 18])
def test_nul_keeps_ids_apart(tmp_path, chunk_chars):
    rows = [["a", "i", "0", "1.0"], ["a\x00", "i", "0", "2.0"], ["a", "i\x00", "0", "3.0"]]
    with mock.patch.object(io, "_CHUNK_CHARS", chunk_chars):
        obs = _read_encodings(tmp_path, read_observations, "user_id,item_id,trial,rating", rows,
                              OBSERVATION_COLUMNS)
    assert _keys(obs) == (["a", "a", "a\x00"], ["i", "i\x00", "i"])
    assert obs.value.tolist() == [1.0, 3.0, 2.0]


def test_equal_values_of_distinct_texts(tmp_path):
    texts = ["1", "01", "+1", " 1", "1.0"]
    rows = [[f"u{k}", "i", trial, rating]
            for k, (trial, rating) in enumerate(zip(texts[:4] + ["1"], texts))]
    obs = _read_encodings(tmp_path, read_observations, "user_id,item_id,trial,rating", rows,
                          OBSERVATION_COLUMNS)
    assert obs.trial.tolist() == [1] * 5
    assert obs.value.tolist() == [1.0] * 5
    feedback = _read_encodings(
        tmp_path, read_feedback, "user_id,item_id,mu,sigma",
        [[f"u{k}", "i", text, text] for k, text in enumerate(texts)], ("mu", "sigma"),
    )
    assert feedback.mu.tolist() == feedback.sigma.tolist() == [1.0] * 5


def test_column_keyed_in_one_piece_and_split_in_the_next(tmp_path):
    rows = [
        ["u", "i", "0", "1.5"],
        ["a-longer-user", "i", "1", "1.234567891"],
        ["u", "an-item-id", "123456789", "2.0"],
        ["b", "i", "2", "-0.0"],
    ]
    with mock.patch.object(io, "_CHUNK_CHARS", 1):
        obs = _read_encodings(tmp_path, read_observations, "user_id,item_id,trial,rating", rows,
                              OBSERVATION_COLUMNS)
    assert _keys(obs) == (["a-longer-user", "b", "u", "u"], ["i", "i", "an-item-id", "i"])
    assert obs.trial.tolist() == [1, 2, 123456789, 0]
    assert obs.value.tobytes() == np.array([1.234567891, -0.0, 2.0, 1.5]).tobytes()


@pytest.mark.parametrize("max_keys", [2, 1 << 16])
def test_texts_that_recur_across_pieces(tmp_path, max_keys):
    # pieces of about 9 rows: 4 users recur in every piece, sigma holds 3
    # texts of more than 8 bytes and the predictions are all distinct
    rng = np.random.default_rng(8)
    n = 200
    users = [f"user{r % 4}" for r in range(n)]
    items = [f"i{r // 4:03d}" for r in range(n)]
    mu = (rng.integers(1, 6, n) / 2).tolist()
    sigma = rng.choice([0.123456789, 0.5000000001, 2 ** 0.5], n).tolist()
    prediction = rng.normal(3.0, 1.0, n).tolist()
    feedback_rows = [[u, i, repr(m), repr(s)] for u, i, m, s in zip(users, items, mu, sigma)]
    prediction_rows = [[u, i, repr(p)] for u, i, p in zip(users, items, prediction)]
    repeats = io._repeats
    judged = []
    fed = []
    codes = Interner.codes

    def spy_repeats(fields):
        judged.append(repeats(fields))
        return judged[-1]

    def spy_codes(interner, names):
        fed.append(len(names))
        return codes(interner, names)

    with mock.patch.object(io, "_CHUNK_CHARS", 256), mock.patch.object(io, "_MAX_KEYS", max_keys):
        with mock.patch.object(io, "_repeats", side_effect=spy_repeats):
            feedback = _read_encodings(tmp_path, read_feedback, "user_id,item_id,mu,sigma",
                                       feedback_rows, ("mu", "sigma"))
            predictions = _read_encodings(tmp_path, read_predictions, "user_id,item_id,prediction",
                                          prediction_rows, ("values",))
        plain = tmp_path / "feedback.csv"
        text = _encodings("user_id,item_id,mu,sigma", feedback_rows)["plain"]
        plain.write_text(text, encoding="utf-8")
        with mock.patch.object(Interner, "codes", autospec=True, side_effect=spy_codes):
            read_feedback(plain)
    # the sigma texts repeat, the predictions do not
    assert set(judged) == {True, False}
    reference = FeedbackDataset.from_ids(users, items, mu, sigma)
    assert _keys(feedback) == _keys(predictions) == _keys(reference)
    assert feedback.mu.tobytes() == reference.mu.tobytes()
    assert feedback.sigma.tobytes() == reference.sigma.tobytes()
    expected = PredictionSet.from_ids(users, items, prediction)
    assert predictions.values.tobytes() == expected.values.tobytes()
    # kept keys decode each id once per file, others once per piece
    distinct = len(set(users)) + len(set(items))
    if max_keys > distinct:
        assert sum(fed) == distinct
    else:
        assert sum(fed) > distinct


@pytest.mark.parametrize("chunk_chars", [1, 1 << 18])
@pytest.mark.parametrize("column, text", [("trial", "x1"), ("rating", "1.2.3"), ("rating", "")])
def test_bad_number_in_a_keyed_column_names_its_line(tmp_path, chunk_chars, column, text):
    rows = [["u", "i", "0", "1.0"], ["u", "i", "1", "2.0"], ["v", "i", "0", "3.0"]]
    rows[2][2 if column == "trial" else 3] = text
    messages = []
    for name, encoded in _encodings("user_id,item_id,trial,rating", rows).items():
        path = tmp_path / f"{name}.csv"
        path.write_text(encoded, encoding="utf-8", newline="")
        with mock.patch.object(io, "_CHUNK_CHARS", chunk_chars), \
                mock.patch.object(io, "_keyed", wraps=io._keyed) as keyed:
            with pytest.raises(InputError) as raised:
                read_observations(path)
        assert keyed.called == (name != "quoted")
        messages.append(str(raised.value).replace(str(path), "PATH"))
    assert messages == [f"PATH:4: bad {column} value {text!r}"] * 3


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.text("abé", max_size=2), st.text("xyé", max_size=2)),
             min_size=1, max_size=9, unique=True),
    st.sampled_from([1, 2, 8]),
    st.sampled_from([1, 1000]),
    st.randoms(use_true_random=False),
)
def test_tables_and_orders_match_the_sorted_reference(pairs, repeats, spacing, random):
    rows = [(u, i, t * spacing) for t in range(repeats) for u, i in pairs]
    random.shuffle(rows)
    users, items, trials = (list(column) for column in zip(*rows))
    reference = sorted(set(zip(users, items)))
    keys, pair = KeyTable.intern(users, items)
    assert list(zip(keys.users.tolist(), keys.items.tolist())) == reference
    assert pair.tolist() == [reference.index(row) for row in zip(users, items)]
    obs = ObservationSet.from_columns(keys, pair, trials, np.arange(len(rows), dtype=float))
    order = sorted(range(len(rows)), key=lambda r: (pair[r], trials[r]))
    assert obs.value.tolist() == order


# Each reader, its header, the kinds of its number columns and the data set
# its rows build, for the mutation fuzz below.
FUZZ_FORMATS = [
    (read_observations, ["user_id", "item_id", "trial", "rating"], (int, float), ObservationSet,
     ("pair", "trial", "value")),
    (read_feedback, ["user_id", "item_id", "mu", "sigma"], (float, float), FeedbackDataset,
     ("mu", "sigma")),
    (read_predictions, ["user_id", "item_id", "prediction"], (float,), PredictionSet,
     ("values",)),
]
FUZZ_BYTES = [b",", b'"', b"\r", b"\n", b"\0", "é".encode()]


def _csv_reference(text: str, header, kinds, dataset):
    """The data set of ``text`` as ``csv.reader`` splits it, or None where a row is bad."""
    try:
        got, *rows = csv.reader(StringIO(text, newline=""))
    except (csv.Error, ValueError):
        return None
    if sorted(got) != sorted(header) or not rows:
        return None
    index = [got.index(column) for column in header]
    if any(len(row) != len(header) for row in rows):
        return None
    try:
        columns = [[kind(row[j]) for row in rows] for j, kind in zip(index, (str, str, *kinds))]
        return dataset.from_ids(*columns)
    except (InputError, ValueError):
        return None


def _mutated(data: bytes, rng: np.random.Generator) -> bytes:
    """``data`` with one to three bytes inserted, deleted or replaced."""
    for _ in range(int(rng.integers(1, 4))):
        at = int(rng.integers(0, len(data) + 1))
        new = FUZZ_BYTES[int(rng.integers(len(FUZZ_BYTES)))]
        action = int(rng.integers(3))
        if action == 0:
            data = data[:at] + new + data[at:]
        elif action == 1:
            data = data[:at] + data[at + 1 :]
        else:
            data = data[:at] + new + data[at + 1 :]
    return data


@pytest.mark.parametrize("chunk_chars", [16, 1 << 18])
@pytest.mark.parametrize("encoding", ["plain", "crlf", "quoted"])
def test_mutated_files_fail_or_read_like_csv_reader(tmp_path, encoding, chunk_chars):
    # a reader raises InputError exactly when the reference finds a bad row,
    # and otherwise reads what the reference reads
    rng = np.random.default_rng(["plain", "crlf", "quoted"].index(encoding) + chunk_chars)
    path = tmp_path / "data.csv"
    outcomes = []
    for read, header, kinds, dataset, columns in FUZZ_FORMATS:
        for _ in range(150):
            order = rng.permutation(len(header)).tolist()
            rows = []
            for n in range(int(rng.integers(1, 6))):
                numbers = [str(int(rng.integers(9))) if kind is int
                           else repr(int(rng.integers(50)) / 8) for kind in kinds]
                row = [f"u{rng.integers(3)}", f"i{n}é"[: int(rng.integers(2, 4))], *numbers]
                rows.append([row[j] for j in order])
            text = _encodings(",".join(header[j] for j in order), rows)[encoding]
            data = _mutated(text.encode(), rng)
            path.write_bytes(data)
            try:
                text = data.decode()
            except UnicodeDecodeError:
                with pytest.raises(InputError, match="cannot read"):
                    read(path)
                continue
            expected = _csv_reference(text, header, kinds, dataset)
            with mock.patch.object(io, "_CHUNK_CHARS", chunk_chars):
                try:
                    loaded = read(path)
                except InputError:
                    loaded = None
            outcomes.append(loaded is None)
            assert (loaded is None) == (expected is None), data
            if loaded is not None:
                assert _keys(loaded) == _keys(expected), data
                for column in columns:
                    a, b = getattr(loaded, column), getattr(expected, column)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), data
    # the mutations leave some files readable and break many others
    assert outcomes.count(False) >= 20 and outcomes.count(True) >= 20


@pytest.mark.parametrize("chunk_chars", range(1, 24))
def test_blank_last_line_is_a_bad_row_wherever_a_piece_ends(tmp_path, chunk_chars):
    path = tmp_path / "pred.csv"
    path.write_text("user_id,item_id,prediction\nu,i0,0.75\nu,i,4.125\n\n", encoding="utf-8")
    with mock.patch.object(io, "_CHUNK_CHARS", chunk_chars):
        with pytest.raises(InputError, match=r":4: row has too few fields$"):
            read_predictions(path)
