import csv
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratfm.scoring as scoring
from oracles import mu_3sigma_labels, refine_peak_dense, sma_formula
from ratfm.errors import InvalidWindowError, LengthMismatchError, SeriesTooShortError
from ratfm.scoring import (
    anomaly_scores,
    dump_scores_csv,
    estimate_period,
    sma_smooth,
    threshold_labels,
)


def floats(values):
    return np.asarray(values, dtype=np.float64)


class TestAnomalyScores:
    def test_identical_gives_zeros(self):
        out = anomaly_scores(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(out, np.zeros(3))

    def test_absolute_value(self):
        out = anomaly_scores(np.array([1.0, -1.0]), np.array([0.0, 0.0]))
        assert np.array_equal(out, [1.0, 1.0])

    def test_random_pair_oracle(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=100)
        t = rng.normal(size=100)
        out = anomaly_scores(f, t)
        assert np.array_equal(out, np.abs(f - t))
        assert out.dtype == np.float64 and out.shape == (100,)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            anomaly_scores(np.ones(3), np.ones(4))


class TestEstimatePeriod:
    def test_sine_period_50(self):
        t = np.arange(1000)
        est = estimate_period(np.sin(2 * np.pi * t / 50))
        assert est.period == 50
        assert not est.fallback_used

    def test_white_noise_falls_back(self):
        rng = np.random.default_rng(123)
        est = estimate_period(rng.standard_normal(1024))
        assert est.fallback_used
        assert est.period == 10

    def test_constant_signal_falls_back(self):
        est = estimate_period(np.full(64, 5.0))
        assert est.fallback_used
        assert est.period == 10

    def test_too_short(self):
        with pytest.raises(SeriesTooShortError):
            estimate_period(np.ones(7))

    def test_period_clamped(self):
        # period estimate never exceeds half the signal length
        t = np.arange(64)
        est = estimate_period(np.sin(2 * np.pi * t / 30) + 0.01 * np.cos(t))
        assert 2 <= est.period <= 32

    def test_non_divisor_period_exact(self):
        t = np.arange(2000)
        est = estimate_period(np.sin(2 * np.pi * t / 96))
        assert est.period == 96


    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(64, 20_000),
        period_share=st.floats(0.0, 1.0),
        noise=st.floats(0.0, 1.0),
        phases=st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_refine_peak_matches_dense_oracle(self, n, period_share, noise, phases, seed):
        # a non-integer period in [2.5, n / 4], its second harmonic and noise
        period = 2.5 + period_share * (n / 4 - 2.5)
        t = np.arange(n)
        x = (
            np.sin(2 * np.pi * t / period + phases[0])
            + 0.3 * np.sin(4 * np.pi * t / period + phases[1])
            + noise * np.random.default_rng(seed).standard_normal(n)
        )
        centered = x - x.mean()
        k_star = 1 + int(np.argmax(np.abs(np.fft.rfft(centered))[1 : n // 2 + 1]))
        assert scoring._refine_peak(centered, k_star) == refine_peak_dense(
            centered, k_star
        )
        with mock.patch.object(scoring, "_refine_peak", refine_peak_dense):
            expected = estimate_period(x)
        assert estimate_period(x) == expected

    def test_million_points_in_bounded_memory(self):
        n = 1_000_000
        t = np.arange(n)
        noise = np.random.default_rng(6).standard_normal(n)
        x = np.sin(2 * np.pi * t / 250 + 0.3) + 0.2 * noise
        tracemalloc.start()
        try:
            est = estimate_period(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a dense (41, n) complex grid matrix alone would take 0.66 GB
        assert peak < 64 * 2**20
        assert est.period == 250 and not est.fallback_used


class TestSmaSmooth:
    def test_window_one_is_identity(self):
        s = floats([0.5, 1.5, 0.25])
        out = sma_smooth(s, 1)
        assert np.array_equal(out, s)
        assert out.dtype == np.float64 and out.shape == s.shape

    def test_hand_computed_partial_head(self):
        out = sma_smooth(floats([0.0, 2.0, 4.0]), 2)
        assert np.array_equal(out, [0.0, 1.0, 3.0])

    def test_constant_scores_unchanged(self):
        out = sma_smooth(floats([0.7] * 10), 4)
        assert np.allclose(out, 0.7)

    def test_invalid_window(self):
        with pytest.raises(InvalidWindowError):
            sma_smooth(floats([1.0, 2.0]), 0)

    def test_matches_verbatim_formula_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(1, 12))
            values = rng.random(int(rng.integers(2, 60)))
            out = sma_smooth(floats(values), n)
            expected = sma_formula(values, n)
            assert np.array_equal(out, expected)

    def test_window_longer_than_series(self):
        values = np.array([1.0, 3.0, 5.0])
        out = sma_smooth(floats(values), 10)
        assert np.array_equal(out, sma_formula(values, 10))

    def test_peak_contraction(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            values = rng.random(50)
            out = sma_smooth(floats(values), int(rng.integers(1, 10)))
            assert out.max() <= values.max() + 1e-15

    def test_mass_approximately_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            values = rng.random(80)
            n = int(rng.integers(1, 12))
            out = sma_smooth(floats(values), n)
            assert abs(out.sum() - values.sum()) <= n * values.max()


class TestThresholdLabels:
    def test_all_equal_scores_no_detections(self):
        labels, threshold = threshold_labels(floats([0.3] * 20))
        assert threshold == pytest.approx(0.3)
        assert labels.sum() == 0

    def test_single_spike_detected(self):
        values = [0.0] * 99 + [100.0]
        labels, threshold = threshold_labels(floats(values))
        # mean 1, population std sqrt(99): threshold ~ 30.85
        assert threshold == pytest.approx(1.0 + 3.0 * np.sqrt(99.0))
        assert labels.sum() == 1 and labels[-1] == 1

    def test_no_point_above_threshold(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(0.4, 0.6, size=50)
        labels, threshold = threshold_labels(floats(values))
        assert np.array_equal(labels, (values > threshold).astype(np.uint8))

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            values = rng.random(int(rng.integers(2, 200)))
            labels, threshold = threshold_labels(floats(values))
            exp_labels, exp_threshold = mu_3sigma_labels(values)
            assert np.array_equal(labels, exp_labels)
            assert threshold == pytest.approx(exp_threshold, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(SeriesTooShortError):
            threshold_labels(floats([1.0]))


class TestCsvDump:
    def test_columns_and_rows(self, tmp_path):
        path = tmp_path / "scores.csv"
        raw = np.array([0.1, 0.2])
        smoothed = np.array([0.1, 0.15])
        labels = np.array([0, 1], dtype=np.uint8)
        dump_scores_csv(path, "abc", 100, raw, smoothed, labels, 0.12)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "series_id", "t_absolute", "raw_score", "smoothed_score", "label", "threshold",
        ]
        assert rows[1][:2] == ["abc", "100"]
        assert rows[2][4] == "1"
        assert float(rows[2][2]) == 0.2

    @pytest.mark.parametrize(
        "series_id",
        ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rlf", " lead", "",
         "séries_ü_日本"],
    )
    def test_bytes_match_csv_writer_per_row(self, tmp_path, series_id, monkeypatch):
        # two-row chunks: row counts before, at and across chunk ends, up to
        # two chunks and one row
        monkeypatch.setattr(scoring, "_CSV_CHUNK_ROWS", 2)
        raw = np.array([0.0, 5e-324, 0.1, 1e300, 2.5])
        smoothed = np.array([1e300, 0.1, 5e-324, 0.0, 1.0 / 3.0])
        for labels in (np.array([0, 1, 1, 0, 1], dtype=np.uint8),
                       np.array([True, False, True, False, False])):
            for n_rows in range(len(raw) + 1):
                args = (series_id, 7, raw[:n_rows], smoothed[:n_rows],
                        labels[:n_rows], 0.30000000000000004)
                dump_scores_csv(tmp_path / "fast.csv", *args)
                per_row_csv(tmp_path / "ref.csv", *args)
                expected = (tmp_path / "ref.csv").read_bytes()
                assert (tmp_path / "fast.csv").read_bytes() == expected

    def test_bytes_match_csv_writer_over_two_chunks_and_a_row(self, tmp_path):
        n = 2 * scoring._CSV_CHUNK_ROWS + 1
        rng = np.random.default_rng(12)
        raw = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 20, n)
        raw[::97] = np.nan
        smoothed = np.abs(raw[::-1])
        args = ("s", 3, raw, smoothed, smoothed > 1.0, 0.5)
        dump_scores_csv(tmp_path / "fast.csv", *args)
        per_row_csv(tmp_path / "ref.csv", *args)
        expected = (tmp_path / "ref.csv").read_bytes()
        assert (tmp_path / "fast.csv").read_bytes() == expected

    @pytest.mark.parametrize("chunk", [1, 7, scoring._CSV_CHUNK_ROWS, 32_768])
    def test_bytes_do_not_depend_on_the_chunk_size(self, tmp_path, monkeypatch, chunk):
        # odd values (written by repr between orjson's runs) on, before and
        # after every edge of the shipped chunks and of 7-row chunks
        n = 3 * scoring._CSV_CHUNK_ROWS + 5
        rng = np.random.default_rng(14)
        raw = np.abs(rng.standard_normal(n))
        smoothed = sma_smooth(raw, 5)
        odd = [np.nan, np.inf, -np.inf, 1e-7, 3e17, -0.0, 5e-324]
        edges = [*range(0, n, 7), *range(0, n, scoring._CSV_CHUNK_ROWS)]
        for k, edge in enumerate(edges):
            for at in (edge - 1, edge, edge + 1):
                if 0 <= at < n:
                    raw[at] = odd[(k + at) % len(odd)]
                    smoothed[at] = odd[(k + 2 * at) % len(odd)]
        args = ("s", 11, raw, smoothed, smoothed > 1.0, 0.75)
        per_row_csv(tmp_path / "ref.csv", *args)
        monkeypatch.setattr(scoring, "_CSV_CHUNK_ROWS", chunk)
        dump_scores_csv(tmp_path / "fast.csv", *args)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_200k_rows_in_bounded_memory(self, tmp_path):
        n = 200_000
        raw = np.abs(np.random.default_rng(13).standard_normal(n))
        smoothed = sma_smooth(raw, 50)
        labels = (smoothed > 1.0).astype(np.uint8)
        tracemalloc.start()
        try:
            dump_scores_csv(tmp_path / "s.csv", "series", 0, raw, smoothed, labels, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # holding the whole file's text and row strings at once peaks near
        # 45 MB; 32 768-row chunks of tuples for orjson near 13 MB, 2 048-row
        # chunks near 1 MB
        assert peak < 20 * 2**20

    def test_bytes_match_csv_writer_at_notation_edges(self, tmp_path, monkeypatch):
        # three-row chunks: rows written by repr open, close and split them
        monkeypatch.setattr(scoring, "_CSV_CHUNK_ROWS", 3)
        edges = []
        for edge in (1e-4, 1e16):
            edges += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)]
        edges += [0.0, 5e-324, np.finfo(np.float64).max]
        a = floats(edges + [-v for v in edges])
        args = ("s", 0, a, np.roll(a, 1), np.signbit(a), 0.5)
        dump_scores_csv(tmp_path / "fast.csv", *args)
        per_row_csv(tmp_path / "ref.csv", *args)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# any float64: hypothesis' floats (NaN, inf, subnormals) and raw bit patterns
_FLOAT_ARRAYS = st.one_of(
    st.lists(st.floats(), max_size=40).map(floats),
    st.lists(st.integers(0, 2**64 - 1), max_size=40).map(
        lambda bits: np.array(bits, dtype=np.uint64).view(np.float64)
    ),
)


@settings(max_examples=400, deadline=None)
@given(_FLOAT_ARRAYS, _FLOAT_ARRAYS, st.integers(1, 8))
def test_bytes_match_csv_writer_on_any_floats(raw, smoothed, chunk):
    n = min(len(raw), len(smoothed))
    args = ("s", 5, raw[:n], smoothed[:n], np.signbit(raw[:n]), 0.25)
    with tempfile.TemporaryDirectory() as tmp:
        fast, ref = Path(tmp) / "fast.csv", Path(tmp) / "ref.csv"
        with mock.patch.object(scoring, "_CSV_CHUNK_ROWS", chunk):
            dump_scores_csv(fast, *args)
        per_row_csv(ref, *args)
        assert fast.read_bytes() == ref.read_bytes()


def per_row_csv(path, series_id, t_absolute_start, raw, smoothed, labels, threshold):
    """The score CSV written one ``csv.writer`` row per point."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["series_id", "t_absolute", "raw_score", "smoothed_score", "label", "threshold"]
        )
        for i in range(len(raw)):
            writer.writerow([
                series_id,
                t_absolute_start + i,
                repr(float(raw[i])),
                repr(float(smoothed[i])),
                int(labels[i]),
                repr(threshold),
            ])
