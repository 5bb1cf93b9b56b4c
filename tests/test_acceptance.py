"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import auc_enum, mu_3sigma_labels, ncc_direct, sma_formula, vus_enum
from ratfm.cli import main as cli_main
from ratfm.forecast import Budget
from ratfm.harness import ExperimentConfig, run_setting, similarity_diagnostics, sweep_pool_fraction
from ratfm.metrics import GroundTruth, auc_weighted, vus
from ratfm.retrieval import ncc_max
from ratfm.scoring import estimate_period, sma_smooth, threshold_labels
from ratfm.synth import SynthSpec


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS: {description}")


# the seeded multi-domain benchmark shared by criteria 6-8
BENCH_SPEC = SynthSpec(
    domains=3,
    series_per_domain=8,
    train_len=800,
    test_len=2000,
    noise_std=0.05,
    anomaly_len=(40, 70),
    seed=7,
)
BENCH_CONFIG = ExperimentConfig(
    synth=BENCH_SPEC,
    budget=Budget(128, 32, 128),
    pool_stride=8,
    bootstrap_iterations=1000,
    seed=7,
)

_bench_reports: dict = {}


def bench_report(setting: str):
    if setting not in _bench_reports:
        _bench_reports[setting] = run_setting(BENCH_CONFIG, setting)
    return _bench_reports[setting]


def test_c01_ncc_fft_path_matches_direct_sum_oracle():
    with criterion(1, "ncc_max FFT path vs O(L^2) direct-sum oracle (500 pairs, <=1e-6, <10s)"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(500):
            L = int(rng.integers(2, 513))
            x = rng.normal(size=L)
            y = rng.normal(size=L)
            expected, _lag = ncc_direct(x, y)
            got = ncc_max(x, y).score
            worst = max(worst, abs(got - expected))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-6, f"max abs diff {worst}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_c02_weighted_areas_match_enumeration_oracle():
    with criterion(2, "auc_weighted and vus vs threshold-enumeration oracle (50 fixtures, <=1e-12, <5s)"):
        rng = np.random.default_rng(202)
        start = time.perf_counter()
        for _ in range(50):
            n = int(rng.integers(4, 65))
            scores = np.round(rng.random(n), 2)  # induce ties
            soft = rng.random(n)
            soft[int(rng.integers(0, n))] = 1.0
            for kind in ("roc", "pr"):
                diff = abs(auc_weighted(scores, soft, kind) - auc_enum(scores, soft, kind))
                assert diff <= 1e-12, f"auc {kind} diff {diff}"
            a = int(rng.integers(0, n - 1))
            b = int(rng.integers(a, n))
            w_max = int(rng.integers(0, 8))
            steps = int(rng.integers(1, 6))
            gt = GroundTruth.from_spans([(a, b)], length=n)
            got = vus(scores, gt, w_max, steps)
            expected = vus_enum(scores, [(a, b)], n, w_max, steps)
            assert abs(got[0] - expected[0]) <= 1e-12
            assert abs(got[1] - expected[1]) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_c03_sma_matches_verbatim_formula():
    with criterion(3, "sma_smooth equals the trailing-mean formula exactly on 100 random series"):
        rng = np.random.default_rng(303)
        for _ in range(100):
            length = int(rng.integers(2, 120))
            window = int(rng.integers(1, 20))
            values = rng.random(length)
            got = sma_smooth(values, window)
            expected = sma_formula(values, window)
            # exact for t >= window-1 and for the documented head extension
            assert np.array_equal(got, expected)


def test_c04_period_estimation_exact_and_noise_fallback():
    with criterion(4, "periods {10,25,50,96} at N=2000 exact; white noise falls back >=95/100"):
        t = np.arange(2000)
        for period in (10, 25, 50, 96):
            est = estimate_period(np.sin(2.0 * np.pi * t / period))
            assert est.period == period, f"period {period} -> {est.period}"
            assert not est.fallback_used
        rng = np.random.default_rng(404)
        fallbacks = sum(
            estimate_period(rng.standard_normal(1024)).fallback_used
            for _ in range(100)
        )
        assert fallbacks >= 95, f"only {fallbacks}/100 trials fell back"


def test_c05_sma_mechanism_on_periodic_spikes_plus_plateau():
    with criterion(5, "SMA suppresses periodic spikes: VUS-ROC(smoothed) > VUS-ROC(raw), plateau is smoothed argmax"):
        start = time.perf_counter()
        p, n = 20, 600
        scores = np.zeros(n)
        scores[p::p] = 1.0  # periodic unit spikes (false positives)
        scores[401:421] = 0.9  # sustained width-p anomaly plateau
        smoothed = sma_smooth(scores, p)
        gt = GroundTruth.from_spans([(401, 420)], length=n)
        vus_raw, _ = vus(scores, gt, w_max=p, steps=min(p, 20))
        vus_smoothed, _ = vus(smoothed, gt, w_max=p, steps=min(p, 20))
        assert vus_smoothed > vus_raw
        argmax = int(np.argmax(smoothed))
        assert 401 <= argmax <= 420, f"smoothed argmax {argmax} outside plateau"
        spikes = np.zeros(n, dtype=bool)
        spikes[p::p] = True
        spikes[401:421] = False
        assert smoothed[401:421].max() > smoothed[spikes].max()
        # on raw scores the spikes dominate the plateau
        raw_argmax = int(np.argmax(scores))
        assert not 401 <= raw_argmax <= 420
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_c06_retrieval_beats_zero_shot_on_benchmark():
    with criterion(6, "benchmark mean VUS-ROC: ratfm_copy >= zero_shot_naive + 0.05 and ratfm_linear >= zero_shot_naive (<60s)"):
        start = time.perf_counter()
        zs = bench_report("zero_shot_naive")
        copy = bench_report("ratfm_copy")
        linear = bench_report("ratfm_linear")
        elapsed = time.perf_counter() - start
        assert zs.overall["n_series"] == 24 and not zs.skipped
        gap = copy.overall["vus_roc"] - zs.overall["vus_roc"]
        assert gap >= 0.05, f"copy-vs-zero-shot gap {gap:.4f}"
        assert linear.overall["vus_roc"] >= zs.overall["vus_roc"], (
            f"linear {linear.overall['vus_roc']:.4f} < zero-shot {zs.overall['vus_roc']:.4f}"
        )
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_c07_similarity_diagnostics_ordering():
    with criterion(7, "mean similarity: example future > best history segment > aligned segment (near 0)"):
        diag = similarity_diagnostics(BENCH_CONFIG)
        a = diag.overall["example_future"]
        c = diag.overall["best_segment"]
        b = diag.overall["aligned_segment"]
        assert a > c > b, f"ordering violated: a={a:.3f} c={c:.3f} b={b:.3f}"
        assert abs(b) < 0.5, f"aligned segment not near zero: {b:.3f}"


def test_c08_pool_fraction_sweep(tmp_path):
    with criterion(8, "pool sweep: fraction 1.0 mean VUS-ROC >= fraction 0.25; curve emitted as CSV"):
        sweep = sweep_pool_fraction(
            BENCH_CONFIG, [1.0, 0.75, 0.5, 0.25], setting="ratfm_copy"
        )
        full = sweep.reports[1.0].overall["vus_roc"]
        quarter = sweep.reports[0.25].overall["vus_roc"]
        assert full >= quarter, f"fraction 1.0 ({full:.4f}) < fraction 0.25 ({quarter:.4f})"
        csv_path = tmp_path / "sweep.csv"
        sweep.write_csv(csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "fraction,domain,vus_roc,n_series"
        assert len(lines) == 1 + 4 * 3


def test_c09_threshold_rule_matches_independent_recomputation():
    with criterion(9, "mu+3sigma binarization matches independent recomputation on 100 random vectors"):
        rng = np.random.default_rng(909)
        for _ in range(100):
            values = rng.random(int(rng.integers(2, 300)))
            labels, threshold = threshold_labels(values)
            expected_labels, expected_threshold = mu_3sigma_labels(values)
            assert np.array_equal(labels, expected_labels)
            assert abs(threshold - expected_threshold) <= 1e-12
        labels, _ = threshold_labels(np.full(50, 0.42))
        assert labels.sum() == 0


def test_c10_run_determinism(tmp_path):
    with criterion(10, "two identical `run` invocations produce byte-identical report.json"):
        config = {
            "synth": {
                "domains": 2,
                "series_per_domain": 3,
                "train_len": 700,
                "test_len": 600,
                "noise_std": 0.03,
                "seed": 17,
            },
            "budget": [64, 16, 64],
            "pool_stride": 8,
            "bootstrap_iterations": 200,
            "seed": 17,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out_a = tmp_path / "run_a"
        out_b = tmp_path / "run_b"
        for out in (out_a, out_b):
            code = cli_main([
                "run", "--setting", "ratfm_linear",
                "--config", str(cfg_path), "--out", str(out),
            ])
            assert code == 0
        bytes_a = (out_a / "report.json").read_bytes()
        bytes_b = (out_b / "report.json").read_bytes()
        assert bytes_a == bytes_b
