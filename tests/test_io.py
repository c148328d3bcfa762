import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncertain_eval import io
from uncertain_eval import (
    FeedbackDataset,
    FeedbackKey,
    InputError,
    KeyTable,
    ObservationSet,
    PredictionSet,
    RatingObservation,
    RatingScale,
    UncertainFeedback,
)
from uncertain_eval.io import (
    read_feedback,
    read_observations,
    read_predictions,
    write_feedback,
    write_observations,
    write_predictions,
    write_sample_dump,
)

SCALE = RatingScale(1.0, 5.0)


def test_observation_roundtrip(tmp_path):
    key_a = FeedbackKey("alice", "movie-1")
    key_b = FeedbackKey("bob", "movie-2")
    obs = ObservationSet(
        scale=SCALE,
        observations=(
            RatingObservation(key_b, 0, 4.0),
            RatingObservation(key_a, 1, 3.25),
            RatingObservation(key_a, 0, 3.0),
        ),
    )
    path = tmp_path / "obs.csv"
    write_observations(path, obs)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "user_id,item_id,trial,rating"
    assert "\r" not in text
    # rows come out in canonical (user, item, trial) order
    assert text.splitlines()[1].startswith("alice,movie-1,0")

    loaded = read_observations(path)
    assert sorted(loaded.observations, key=lambda o: (o.key, o.trial)) == sorted(
        obs.observations, key=lambda o: (o.key, o.trial)
    )


def test_feedback_roundtrip_preserves_floats(tmp_path):
    entries = (
        UncertainFeedback(FeedbackKey("u1", "i1"), 3.141592653589793, 0.1234567890123),
        UncertainFeedback(FeedbackKey("u2", "i1"), 4.0, 0.0),
    )
    data = FeedbackDataset(scale=SCALE, entries=entries)
    path = tmp_path / "feedback.csv"
    write_feedback(path, data)
    loaded = read_feedback(path)
    assert loaded.N == 2
    by_key = loaded.by_key()
    for entry in entries:
        assert by_key[entry.key].mu == entry.mu
        assert by_key[entry.key].sigma == entry.sigma


def test_prediction_roundtrip(tmp_path):
    predictions = PredictionSet(
        {FeedbackKey("u1", "i1"): 3.5, FeedbackKey("u2", "i9"): 1.25}
    )
    path = tmp_path / "pred.csv"
    write_predictions(path, predictions)
    assert path.read_text(encoding="utf-8").splitlines()[0] == (
        "user_id,item_id,prediction"
    )
    loaded = read_predictions(path)
    assert loaded.entries == predictions.entries


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
    assert obs.scale.min_value < obs.scale.max_value


@pytest.mark.parametrize("value", [2.0**53, -(2.0**60), sys.float_info.max, -sys.float_info.max])
def test_degenerate_scale_inference_beyond_unit_spacing(tmp_path, value):
    path = tmp_path / "obs.csv"
    path.write_text(
        f"user_id,item_id,trial,rating\nu,i,0,{value!r}\nu,i,1,{value!r}\n", encoding="utf-8"
    )
    scale = read_observations(path).scale
    assert scale.min_value < scale.max_value
    assert value in (scale.min_value, scale.max_value)


def test_sample_dump_format(tmp_path):
    path = tmp_path / "dump.csv"
    write_sample_dump(path, [0.5, 1.25])
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["sample_index,score", "0,0.5", "1,1.25"]


def test_histogram_format(tmp_path):
    from uncertain_eval import histogram
    from uncertain_eval.io import write_histogram

    path = tmp_path / "hist.csv"
    write_histogram(path, histogram([1.0, 2.0, 2.0, 5.0], 1.0))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert lines[1] == "1.0,2.0,1"
    assert lines[-1] == "5.0,6.0,1"
    assert len(lines) == 6


# Any character a UTF-8 file can hold, but the carriage return that
# csv.writer leaves unquoted.
id_chars = st.characters(blacklist_categories=("Cs",), blacklist_characters="\r")
finite = st.floats(allow_nan=False, allow_infinity=False)


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
        SCALE, keys, np.repeat(pair, 2), [0, 1] * n, np.repeat(values, 2)
    )
    feedback = FeedbackDataset.from_columns(
        SCALE, keys, pair, values, np.abs(values), np.zeros(n, dtype=np.int64)
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
    values = np.array(data.draw(st.lists(finite, min_size=len(pairs), max_size=len(pairs))))
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


def test_unquoted_carriage_return_in_id_is_rejected(tmp_path):
    obs = ObservationSet(SCALE, (RatingObservation(FeedbackKey("a\rb", "i"), 0, 3.0),))
    path = tmp_path / "obs.csv"
    write_observations(path, obs)
    with pytest.raises(InputError, match=r":2: row has too few fields"):
        read_observations(path)


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
    numbers = st.lists(finite, min_size=n, max_size=n)
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
                # each encoding must take its own tokeniser
                other = "_csv_pieces" if name == "plain" else "_split_pieces"
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
