import json
import math
import tempfile
import tracemalloc
import warnings
from decimal import Decimal
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratfm.dataset as dataset
from ratfm.dataset import (
    LabeledSeries,
    dump_metadata,
    load_dataset,
    make_windows,
    parse_ucr_file,
    standardize,
)
from ratfm.errors import (
    DatasetError,
    EmptySeriesError,
    MalformedNameError,
    NonNumericTokenError,
    SeriesTooShortError,
    SpanOutOfBoundsError,
)


def write_series(tmp_path, name, values):
    path = tmp_path / name
    path.write_text(" ".join(str(v) for v in values))
    return path


def float_path(name, tokens):
    """Values of ``tokens`` by ``float()``, or the error naming the first
    token that is not a finite number."""
    values = []
    for tok in tokens:
        try:
            value = float(tok)
        except ValueError:
            return NonNumericTokenError(f"{name}: bad token {tok!r}")
        if not math.isfinite(value):
            return NonNumericTokenError(f"{name}: non-finite token {tok!r}")
        values.append(value)
    return np.array(values)


def assert_parses_in_bounded_memory(tmp_path, sep):
    values = np.random.default_rng(0).normal(size=300_000)
    path = tmp_path / "a_b_100000_150000_150100.txt"
    path.write_bytes(sep.join(map(repr, values.tolist())).encode())
    tracemalloc.start()
    try:
        parsed = parse_ucr_file(path).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed.tobytes() == values.tobytes()
    assert peak < 32 * 2**20


def halfway(x):
    """The exact decimal midway between float ``x`` and the next float up."""
    return str((Decimal(x) + Decimal(np.nextafter(x, np.inf))) / 2)


_DIGITS = st.text("0123456789", min_size=1, max_size=40)
_SIGN = st.sampled_from(["", "-"])
_EXPONENT = st.one_of(
    st.just(""),
    st.builds("{}{}".format, st.sampled_from(["e", "E"]), st.integers(-345, 330)),
    st.integers(0, 330).map("e+{}".format),
)
# JSON floats, which orjson parses, and JSON ints it returns as ints
_NUMBER = st.one_of(
    st.builds("{}{}.{}{}".format, _SIGN, _DIGITS, _DIGITS, _EXPONENT),
    st.builds("{}{}{}".format, _SIGN, _DIGITS, _EXPONENT),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds("{}{}".format, _SIGN, st.floats(0.0, 1.7e308).map(halfway)),
)
# big ints, tokens JSON rejects, and tokens float() rejects or reads as
# non-finite
_ODD = st.one_of(
    st.integers(-(10**400), 10**400).map(str),
    st.sampled_from(
        ["-0", "1_000", "+1", ".5", "1.", "01.5", "\u0661\u0662\u0663", "\uff11\uff12"]
        + ["nan", "-inf", "Infinity", "0x1f", "abc", "1,2", "[1", "1]", '"1"', "true"]
        + ["[1]", "[1.5]", "1.5,", ",2.5", "{}"]
    ),
)
_TOKEN = st.integers(0, 9).flatmap(lambda k: _ODD if k == 0 else _NUMBER)
# one float per line, blank lines, two tokens on a line, CRLF, padded lines and
# whitespace that JSON rejects but str.split() splits at
_SEPARATOR = st.sampled_from(
    ["\n", "\n", "\r\n", "\n\n", " \n", "\n ", " ", "\t", "\x0c", "\x1c", "\u2003"]
)


def make_series(values, train_end, spans=(), sid="s", domain="d"):
    return LabeledSeries(
        id=sid,
        domain=domain,
        values=np.asarray(values, dtype=float),
        train_end=train_end,
        anomaly_spans=tuple(spans),
    )


class TestParse:
    def test_filename_decode(self, tmp_path):
        path = write_series(tmp_path, "001_ECG_100_150_160.txt", range(300))
        s = parse_ucr_file(path)
        assert s.train_end == 100
        assert s.anomaly_spans == ((150, 160),)
        assert len(s.values) == 300
        assert s.domain == "ECG"
        assert s.id == "001_ECG_100_150_160"

    def test_span_before_train_end(self, tmp_path):
        path = write_series(tmp_path, "x_50_10_20.txt", range(100))
        with pytest.raises(SpanOutOfBoundsError):
            parse_ucr_file(path)

    def test_non_numeric_token(self, tmp_path):
        path = tmp_path / "a_b_10_20_30.txt"
        path.write_text("1 2 abc 4")
        with pytest.raises(NonNumericTokenError):
            parse_ucr_file(path)

    def test_nan_token_rejected(self, tmp_path):
        path = tmp_path / "a_b_2_3_3.txt"
        path.write_text("1 2 nan 4 5")
        with pytest.raises(NonNumericTokenError):
            parse_ucr_file(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "a_b_1_2_3.txt"
        path.write_text("   \n ")
        with pytest.raises(EmptySeriesError):
            parse_ucr_file(path)

    def test_too_few_tokens(self, tmp_path):
        path = write_series(tmp_path, "100_150_160.txt", range(300))
        with pytest.raises(MalformedNameError):
            parse_ucr_file(path)

    def test_non_integer_suffix(self, tmp_path):
        path = write_series(tmp_path, "a_b_c_d.txt", range(10))
        with pytest.raises(MalformedNameError):
            parse_ucr_file(path)

    def test_extra_trailing_integers_take_last_three(self, tmp_path):
        path = write_series(tmp_path, "007_EPG_2_10_15_18.txt", range(30))
        s = parse_ucr_file(path)
        assert s.train_end == 10
        assert s.anomaly_spans == ((15, 18),)

    def test_train_end_out_of_bounds(self, tmp_path):
        path = write_series(tmp_path, "a_b_500_600_700.txt", range(100))
        with pytest.raises(SpanOutOfBoundsError):
            parse_ucr_file(path)

    def test_values_order_preserved(self, tmp_path):
        vals = [3.5, -1.25, 0.75, 9.0, 2.0, 4.0]
        path = write_series(tmp_path, "a_b_3_4_5.txt", vals)
        s = parse_ucr_file(path)
        assert np.array_equal(s.values, vals)

    def test_values_are_float_of_each_token_bitwise(self, tmp_path):
        tokens = ["0.1", "5e-324", "2.4703282292062328e-324", "1e-400", "-0",
                  "1.7976931348623157e308", "0.1000000000000000055511151231257827",
                  "1_000", "+.5", "1.", "\uff11\uff12", "-3E+2", "7"]
        path = tmp_path / "a_b_3_4_5.txt"
        path.write_text(" \n".join(tokens))
        expected = np.array([float(tok) for tok in tokens])
        assert parse_ucr_file(path).values.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from(["{!r}", "{:.17g}", "{:.25e}", "{:.3f}", "{:.0f}"]),
            ),
            min_size=6,
            max_size=40,
        )
    )
    def test_fuzzed_values_are_float_of_each_token_bitwise(self, numbers):
        tokens = [fmt.format(x) for x, fmt in numbers]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "a_b_3_4_5.txt"
            path.write_text(" ".join(tokens))
            values = parse_ucr_file(path).values
        assert values.tobytes() == np.array([float(t) for t in tokens]).tobytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 2 abc nan 4", "bad token 'abc'"),
            ("1 2 nan abc 4", "non-finite token 'nan'"),
            ("1 -inf 0x1f 4", "non-finite token '-inf'"),
            ("1 0x1f 1e999 4", "bad token '0x1f'"),
            ("1 1e999 2 nan", "non-finite token '1e999'"),
            # a comma of the file's own adds a JSON value: read as one
            # float per line or as joined tokens, the count tells
            ("1.5\n2.5 ,3.5\n4.5", "bad token ',3.5'"),
            ("0.5 1.5,2.5 3.5", "bad token '1.5,2.5'"),
            ("0.5\n[1.5]\n2.5", "bad token '[1.5]'"),
        ],
    )
    def test_first_offending_token_is_named(self, tmp_path, text, message):
        path = tmp_path / "a_b_1_2_3.txt"
        path.write_text(text)
        with pytest.raises(NonNumericTokenError) as info:
            parse_ucr_file(path)
        assert str(info.value) == f"a_b_1_2_3.txt: {message}"

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["", " ", "\n", " \t"]),
        st.lists(st.tuples(_TOKEN, _SEPARATOR), min_size=6, max_size=40),
        st.booleans(),
        st.integers(1, 64),
    )
    def test_values_or_error_are_those_of_float(self, lead, tokens, final_sep, chunk):
        # chunks of 1-64 bytes cut through the lines; each chunk holds whole
        # lines, or the pieces of a long line cut at blanks
        text = lead + "".join(tok + sep for tok, sep in tokens)
        if not final_sep:
            text = text[: -len(tokens[-1][1])]
        expected = float_path("a_b_3_4_5.txt", text.split())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "a_b_3_4_5.txt"
            path.write_bytes(text.encode())
            with mock.patch.object(dataset, "_PARSE_CHUNK_BYTES", chunk):
                if isinstance(expected, Exception):
                    with pytest.raises(type(expected)) as info:
                        parse_ucr_file(path)
                    assert str(info.value) == str(expected)
                else:
                    values = parse_ucr_file(path).values
                    assert values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1.5 2.5 -0 3.5 4.5 5.5", [1.5, 2.5, -0.0, 3.5, 4.5, 5.5]),
            ("1.5 2.5 1_000 \u0661\u0662\u0663 4.5 5", [1.5, 2.5, 1e3, 123.0, 4.5, 5.0]),
            ("1.5 2.5 3.5 1e400 4.5 5.5", "non-finite token '1e400'"),
            ("1.5 2.5 nan 3.5 4.5 5.5", "non-finite token 'nan'"),
            ("1.5 2.5 3.5 4.5 abc 5.5", "bad token 'abc'"),
        ],
    )
    def test_two_token_chunks(self, tmp_path, monkeypatch, text, expected):
        # a chunk ends at the first blank from its fifth byte on, so
        # each holds two tokens: on one line, or on two lines
        monkeypatch.setattr(dataset, "_PARSE_CHUNK_BYTES", 4)
        path = tmp_path / "a_b_3_4_5.txt"
        for sep in (" ", "\n"):
            path.write_text(text.replace(" ", sep), encoding="utf-8")
            if isinstance(expected, str):
                with pytest.raises(NonNumericTokenError) as info:
                    parse_ucr_file(path)
                assert str(info.value) == f"a_b_3_4_5.txt: {expected}"
            else:
                values = parse_ucr_file(path).values
                assert values.tobytes() == np.array(expected).tobytes()
                assert np.signbit(values).tolist() == np.signbit(expected).tolist()

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("final_newline", [True, False])
    def test_one_float_per_line_never_reaches_the_token_path(
        self, tmp_path, monkeypatch, newline, final_newline
    ):
        def refuse(chunk):
            raise AssertionError(f"token path reached for {chunk[:20]!r}")

        monkeypatch.setattr(dataset, "_parse_tokens", refuse)
        monkeypatch.setattr(dataset, "_PARSE_CHUNK_BYTES", 64)
        values = np.random.default_rng(1).normal(size=200) * 10.0 ** np.arange(-100, 100)
        text = newline.join(map(repr, values.tolist())) + newline * final_newline
        path = tmp_path / "a_b_100_150_160.txt"
        path.write_bytes(text.encode())
        assert parse_ucr_file(path).values.tobytes() == values.tobytes()

    def test_300k_tokens_in_bounded_memory(self, tmp_path):
        # the split tokens of all 300 000 lines, parsed in 65 536-token
        # chunks, peaked near 30 MB; 1 MiB chunks of lines near 14 MB, and
        # 128 KiB chunks near 11 MB, most of it the file's bytes and values
        assert_parses_in_bounded_memory(tmp_path, "\n")

    def test_300k_crlf_lines_in_bounded_memory(self, tmp_path):
        assert_parses_in_bounded_memory(tmp_path, "\r\n")

    def test_300k_tokens_on_one_line_in_bounded_memory(self, tmp_path):
        # the line is cut at blanks into ~128 KiB chunks; peaks near 11 MB
        # (near 17 MB at 1 MiB chunks)
        assert_parses_in_bounded_memory(tmp_path, " ")

    def test_load_dataset_sorted(self, tmp_path):
        write_series(tmp_path, "002_B_3_5_6.txt", range(10))
        write_series(tmp_path, "001_A_3_5_6.txt", range(10))
        series = load_dataset(tmp_path)
        assert [s.id for s in series] == ["001_A_3_5_6", "002_B_3_5_6"]

    def test_unreadable_files_are_dataset_errors(self, tmp_path):
        path = tmp_path / "a_b_1_2_3.txt"
        path.write_bytes(b"1 2 \xff 4")
        with pytest.raises(DatasetError, match="a_b_1_2_3.txt"):
            parse_ucr_file(path)
        folder = tmp_path / "x_dom_5_6_7.txt"
        folder.mkdir()
        with pytest.raises(DatasetError, match="x_dom_5_6_7.txt"):
            parse_ucr_file(folder)

    def test_load_dataset_skips_directories(self, tmp_path):
        write_series(tmp_path, "001_A_3_5_6.txt", range(10))
        (tmp_path / "x_dom_5_6_7.txt").mkdir()
        assert [s.id for s in load_dataset(tmp_path)] == ["001_A_3_5_6"]

    def test_dump_metadata(self, tmp_path):
        write_series(tmp_path, "001_A_3_5_6.txt", range(10))
        series = load_dataset(tmp_path)
        out = tmp_path / "meta.json"
        dump_metadata(series, out)
        meta = json.loads(out.read_text())
        assert meta["series"][0]["train_end"] == 3
        assert meta["series"][0]["anomaly_spans"] == [[5, 6]]


class TestStandardize:
    def test_hand_computed(self):
        # train [1,2,3]: mean 2, population std sqrt(2/3)
        s = make_series([1.0, 2.0, 3.0, 4.0], train_end=3)
        out, params = standardize(s)
        std = np.sqrt(2.0 / 3.0)
        assert params.mean == pytest.approx(2.0)
        assert params.std == pytest.approx(std)
        assert out.values[-1] == pytest.approx((4.0 - 2.0) / std)
        assert out.train_values.mean() == pytest.approx(0.0, abs=1e-9)
        assert out.train_values.std() == pytest.approx(1.0, abs=1e-9)

    def test_constant_train_region_guard(self):
        s = make_series([5.0, 5.0, 5.0, 5.0, 7.0], train_end=4)
        out, params = standardize(s)
        assert params.std == 0.0
        assert np.all(np.isfinite(out.values))
        assert params.divisor == params.epsilon

    def test_idempotent_on_standardized_stats(self):
        s = make_series([-1.0, 1.0, -1.0, 1.0, 0.5], train_end=4)
        out, _ = standardize(s)
        assert np.allclose(out.values, s.values, atol=1e-9)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(5.0, 2.5, size=200)
        s = make_series(vals, train_end=120)
        out, params = standardize(s)
        assert np.allclose(out.values * params.divisor + params.mean, vals, atol=1e-9)

    def test_params_from_train_only(self):
        rng = np.random.default_rng(4)
        train = rng.normal(size=50)
        a = make_series(np.concatenate([train, [1.0, 2.0]]), train_end=50)
        b = make_series(np.concatenate([train, [99.0, -99.0]]), train_end=50)
        _, pa = standardize(a)
        _, pb = standardize(b)
        assert pa == pb

    def test_too_short(self):
        s = make_series([1.0, 2.0], train_end=1)
        with pytest.raises(SeriesTooShortError):
            standardize(s)

    @pytest.mark.parametrize("train, rest", [
        ([1e307, 1.5e307, 1.2e307], [1e307]),  # the mean overflows
        ([1e307, -1e307, 1e307, -1e307], [0.0]),  # the std overflows
        ([0.0, 1e-9, 0.0], [1e307]),  # a z-score overflows
    ])
    def test_overflow_is_a_dataset_error(self, train, rest):
        s = make_series(train + rest, train_end=len(train))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetError, match="overflow float64 when"):
                standardize(s)


class TestWindows:
    def test_count_formula(self):
        s = make_series(np.arange(20.0), train_end=10)
        wins = make_windows(s, "train", input_len=3, horizon=2, stride=5)
        assert [w.start for w in wins] == [0, 5]

    def test_region_too_short_is_empty(self):
        s = make_series(np.arange(14.0), train_end=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wins = make_windows(s, "train", input_len=3, horizon=2, stride=1)
        assert wins == []

    def test_count_formula_horizon96(self):
        s = make_series(np.arange(400.0), train_end=300)
        wins = make_windows(s, "train", input_len=96, horizon=96, stride=96)
        expected = (300 - 96 - 96) // 96 + 1
        assert len(wins) == expected == 2

    def test_window_contents_contiguous(self):
        s = make_series(np.arange(30.0), train_end=20)
        wins = make_windows(s, "test", input_len=4, horizon=3, stride=2)
        for w in wins:
            assert np.array_equal(w.input, np.arange(w.start, w.start + 4))
            assert np.array_equal(w.future, np.arange(w.start + 4, w.start + 7))
            assert w.start >= 20 and w.start + 7 <= 30

    def test_coverage_stays_inside_region(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(10, 60))
            train_end = int(rng.integers(4, n - 4))
            t = int(rng.integers(1, 6))
            h = int(rng.integers(1, 5))
            stride = int(rng.integers(1, 7))
            s = make_series(np.arange(float(n)), train_end=train_end)
            for region, lo, hi in (("train", 0, train_end), ("test", train_end, n)):
                wins = make_windows(s, region, t, h, stride)
                if hi - lo >= t + h:
                    assert len(wins) == (hi - lo - t - h) // stride + 1
                for w in wins:
                    assert lo <= w.start and w.start + t + h <= hi

    def test_bad_params(self):
        s = make_series(np.arange(20.0), train_end=10)
        with pytest.raises(ValueError):
            make_windows(s, "train", 0, 2, 1)
        with pytest.raises(ValueError):
            make_windows(s, "nowhere", 3, 2, 1)


class TestInvariants:
    def test_anomaly_span_must_be_in_test_region(self):
        with pytest.raises(SpanOutOfBoundsError):
            make_series(np.arange(20.0), train_end=10, spans=[(5, 12)])

    def test_values_read_only(self):
        s = make_series(np.arange(10.0), train_end=5)
        with pytest.raises(ValueError):
            s.values[0] = 99.0


_STEMS = st.text("abcXYZ0123456789_-.", min_size=1, max_size=24) | st.builds(
    "{}_{}_{}_{}".format,
    st.text("abcXYZ0123456789_-.", max_size=8),
    *[st.integers(-2, 50)] * 3,
)
_TOKENS = st.sampled_from(["nan", "inf", "-inf", "1e999", "abc", "0x1f", "--", "1_0"]) | (
    st.floats(allow_nan=False, allow_infinity=False).map(repr)
) | st.integers(-(10**6), 10**6).map(str)
_CONTENTS = (
    st.lists(_TOKENS, max_size=40).map(lambda toks: " ".join(toks).encode())
    | st.binary(max_size=40)
    | st.just(b"1 2 \xff\xfe 3")
)
# (subdirectory, stem, content or None for a directory named like a file)
_FILES = st.lists(
    st.tuples(st.sampled_from(["", "sub"]), _STEMS, st.none() | _CONTENTS), max_size=5
)


@settings(max_examples=200, deadline=None)
@given(_FILES)
def test_fuzzed_series_files_raise_only_dataset_errors(files):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for sub, stem, content in files:
            folder = root / sub
            folder.mkdir(exist_ok=True)
            path = folder / f"{stem}.txt"
            if path.exists():
                continue
            if content is None:
                path.mkdir()
            else:
                path.write_bytes(content)
        try:
            load_dataset(root)
        except DatasetError:
            pass
