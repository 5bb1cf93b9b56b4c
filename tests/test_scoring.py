import contextlib
import csv
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ratfm.scoring as scoring
from oracles import mu_3sigma_labels, phase_powers_exact, refine_peak_dense, sma_formula
from ratfm.errors import InvalidWindowError, LengthMismatchError, SeriesTooShortError
from ratfm.harness import prepare_series
from ratfm.scoring import (
    anomaly_scores,
    dump_scores_csv,
    estimate_period,
    sma_smooth,
    threshold_labels,
)
from ratfm.synth import SynthSpec, generate_synthetic


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
    # the consumers_default shapes: n = 2 400, periods 96 and 72
    @example(n=2_400, period_share=93.5 / 597.5, noise=0.1, phases=(0.0, 0.0), seed=1)
    @example(n=2_400, period_share=69.5 / 597.5, noise=0.1, phases=(1.0, 2.0), seed=2)
    # period 96.505, 0.005 from the half-integer where the rounding flips (B = 317)
    @example(n=100_000, period_share=94.005 / 24_997.5, noise=0.2, phases=(0.5, 0.0), seed=3)
    # the period, phase and noise of test_million_points_in_bounded_memory's
    # series, period 250.45 (B = 1 000)
    @example(n=1_000_000, period_share=247.95 / 249_997.5, noise=0.2, phases=(0.3, 0.0), seed=6)
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
        freq = refine_peak_dense(centered, k_star)
        # every stage run, the frequency bit for bit; every exit taken, the period
        with _stages() as stages, _exits_off():
            assert scoring._refine_peak(centered, k_star) == scoring._clamped_period(n, freq)
        assert len(stages) == 2 and stages[-1] == freq
        with _stages() as stages:
            assert scoring._refine_peak(centered, k_star) == scoring._clamped_period(n, freq)
        assert len(stages) < 2 or stages[-1] == freq

        def dense(called_with, called_k):
            # the oracle's answer for these very arguments, found above
            assert called_k == k_star and np.array_equal(called_with, centered)
            return scoring._clamped_period(n, freq)

        with mock.patch.object(scoring, "_refine_peak", dense):
            expected = estimate_period(x)
        assert estimate_period(x) == expected

    def test_million_points_in_bounded_memory(self):
        n = 1_000_000
        t = np.arange(n)
        noise = np.random.default_rng(6).standard_normal(n)
        # bins 3991.8 and 3994.2 give periods 251 and 250, so the grid is
        # searched; 0.12 bins either side of its first winner give 250 only
        x = np.sin(2 * np.pi * t / 250.45 + 0.3) + 0.2 * noise
        tracemalloc.start()
        try:
            with _stages() as stages:
                est = estimate_period(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(stages) == 1
        # a dense (41, n) complex grid matrix alone would take 0.66 GB
        assert peak < 64 * 2**20
        assert est.period == 250 and not est.fallback_used

    @pytest.mark.parametrize("n", [64, 2_400, 100_000, 1_000_000, 10_000_000])
    def test_phase_powers_match_exponentials(self, n):
        # both tables of a zoom stage over B columns, at 41 frequencies
        # spanning [0.5, n / 2]; entry k may drift 3 * k * 2**-52 from its
        # exponential, and the reference carries 4 * 2**-52 of its own
        block = math.isqrt(n - 1) + 1
        grid = np.concatenate(([0.5, n / 2], np.random.default_rng(n).uniform(0.5, n / 2, 39)))
        bound = (3 * np.arange(block) + 4) * 2.0**-52
        for phase in (-2 * np.pi * grid / n, -2 * np.pi * grid * block / n):
            table = scoring._phase_powers(phase, block)
            assert table.shape == (41, block) and np.all(table[:, 0] == 1)
            assert np.all(np.abs(table - phase_powers_exact(phase, block)) <= bound)

    def test_zoom_stage_does_not_depend_on_blas_threads(self):
        # the stage's (41, B) x (B, Q) product is set-up's one BLAS call;
        # OpenBLAS may split it over threads at n = 10**6
        env = dict(os.environ, PYTHONPATH=str(Path(scoring.__file__).parents[1]))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _MILLION_POINT_STAGES],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=dict(env, OPENBLAS_NUM_THREADS=threads),
            )
            for threads in ("1", "2")
        ]
        outputs = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            outputs.append(out)
        period, stages = outputs[0].split()
        assert period == "250" and len(stages.split(",")) == 1
        assert outputs[0] == outputs[1]

    @settings(max_examples=300, deadline=None)
    @given(
        n_k_j=st.integers(8, 10**7).flatmap(
            lambda n: st.tuples(
                st.just(n),
                # log-uniform, so bins that settle (k* >~ sqrt(2.4 n)) and
                # bins that do not are both drawn often
                st.floats(0.0, 1.0).map(lambda u: max(1, round((n // 2) ** u))),
                # -1: the first stage's check; j: the second's, centred on
                # the first stage's j-th grid frequency
                st.integers(-1, 40),
            )
        )
    )
    @example(n_k_j=(100_000, 1042, -1))
    @example(n_k_j=(100_000, 1389, -1))
    @example(n_k_j=(2_400, 25, -1))
    @example(n_k_j=(2_400, 25, 19))  # centre 24.95, 0.12 bins straddle 96.5
    @example(n_k_j=(2_400, 33, 27))  # centre 33.35: period 72 either side
    @example(n_k_j=(1_000_000, 3993, -1))
    @example(n_k_j=(1_000_000, 3993, 16))  # centre 3992.8: period 250 either side
    def test_settled_period_matches_a_dense_scan(self, n_k_j):
        # the clamped rounded period over a dense grid of every frequency the
        # stages left could return; the exit must name it exactly when it is one
        n, k_star, j = n_k_j
        centre, half_width = float(k_star), 1.0
        if j >= 0:
            stage_one = np.linspace(max(k_star - 1.0, 0.5), min(k_star + 1.0, n / 2), 41)
            centre, half_width = float(stage_one[j]), 0.1
        lo, hi = max(centre - 1.2 * half_width, 0.5), min(centre + 1.2 * half_width, n / 2)
        periods = {max(2, min(round(n / f), n // 2)) for f in np.linspace(lo, hi, 4001).tolist()}
        expected = periods.pop() if len(periods) == 1 else None
        assert scoring._settled_period(n, centre, half_width) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(64, 50_000),
        period_share=st.floats(0.0, 1.0),
        near_half=st.booleans(),
        offset=st.floats(-0.05, 0.05),
        phase=st.floats(0.0, 2 * np.pi),
    )
    def test_exit_changes_no_period(self, n, period_share, near_half, offset, phase):
        # periods within 0.05 of a half-integer sit at a rounding boundary,
        # where the grid decides; periods near an integer are far from one
        whole = math.floor(3 + period_share * (n / 4 - 4))
        period = whole + offset + (0.5 if near_half else 0.0)
        x = np.sin(2 * np.pi * np.arange(n) / period + phase)
        with _stages() as stages, _exits_off():
            expected = estimate_period(x)
        assert estimate_period(x) == expected
        # from each stage's centre, the stages left return a frequency within
        # 1.1 half-widths of it: the range each exit checks holds them all
        if stages:
            k_star = 1 + int(np.argmax(np.abs(np.fft.rfft(x - x.mean()))[1 : n // 2 + 1]))
            first, second = stages
            assert abs(first - k_star) <= 1.0 and abs(second - first) <= 0.1 + 1e-12
            assert abs(second - k_star) <= 1.1 + 1e-9

    @pytest.mark.parametrize(
        "train_len, test_len, zoom_stages",
        [(100_000, 200_000, 0), (2_400, 1_600, 3)],
    )
    def test_refinement_runs_only_where_it_can_change_the_period(
        self, train_len, test_len, zoom_stages
    ):
        # series shaped as in the archive_zero_shot and consumers_default
        # benchmark workloads: both archive periods settle before the grid,
        # period 72 after its first stage, period 96 after both
        spec = SynthSpec(
            domains=2,
            series_per_domain=1,
            train_len=train_len,
            test_len=test_len,
            seed=1,
        )
        with _stages() as stages:
            periods = [prepare_series(s)[1] for s in generate_synthetic(spec)]
        assert len(stages) == zoom_stages
        assert periods == [96, 72]


# the series of test_million_points_in_bounded_memory: period, then each
# zoom stage's frequency as float.hex
_MILLION_POINT_STAGES = """
import numpy as np
from unittest import mock
import ratfm.scoring as scoring
n = 1_000_000
t = np.arange(n)
noise = np.random.default_rng(6).standard_normal(n)
x = np.sin(2 * np.pi * t / 250.45 + 0.3) + 0.2 * noise
real, found = scoring._grid_peak, []
def grid_peak(xt, n, grid):
    found.append(real(xt, n, grid))
    return found[-1]
with mock.patch.object(scoring, "_grid_peak", grid_peak):
    est = scoring.estimate_period(x)
print(est.period, ",".join(f.hex() for f in found))
"""


@contextlib.contextmanager
def _stages():
    """The frequency each zoom stage returns, in order, while in the block."""
    real, found = scoring._grid_peak, []

    def grid_peak(xt, n, grid):
        found.append(real(xt, n, grid))
        return found[-1]

    with mock.patch.object(scoring, "_grid_peak", grid_peak):
        yield found


def _exits_off():
    """Run every zoom stage, as if no period were ever settled."""
    return mock.patch.object(scoring, "_settled_period", return_value=None)


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
