import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratfm.dataset import (
    LabeledSeries,
    dump_metadata,
    destandardize,
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
    RegionTooShortWarning,
    SeriesTooShortError,
    SpanOutOfBoundsError,
)


def write_series(tmp_path, name, values):
    path = tmp_path / name
    path.write_text(" ".join(str(v) for v in values))
    return path


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
        assert np.allclose(destandardize(out.values, params), vals, atol=1e-9)

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


class TestWindows:
    def test_count_formula(self):
        s = make_series(np.arange(20.0), train_end=10)
        wins = make_windows(s, "train", input_len=3, horizon=2, stride=5)
        assert [w.start for w in wins] == [0, 5]

    def test_region_too_short_warns_empty(self):
        s = make_series(np.arange(14.0), train_end=4)
        with pytest.warns(RegionTooShortWarning):
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
                import warnings

                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
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
