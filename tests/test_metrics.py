import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ReferenceMassError,
    auc_enum,
    confusion_prf,
    soft_labels_direct,
    vus_enum,
    vus_reference,
)
from ratfm.errors import EmptyInputError, LengthMismatchError, NoPositiveMassError
from ratfm.metrics import (
    EvalReport,
    GroundTruth,
    _sorted_blocks,
    auc_weighted,
    bootstrap,
    continuous_labels,
    pointwise_prf,
    vus,
)


class TestPointwisePrf:
    def test_perfect(self):
        v = np.array([0, 1, 1, 0])
        assert pointwise_prf(v, v) == (1.0, 1.0, 1.0)

    def test_half_overlap(self):
        p, r, f1 = pointwise_prf(np.array([0, 1, 1, 0]), np.array([0, 0, 1, 1]))
        assert (p, r, f1) == (0.5, 0.5, 0.5)

    def test_all_zero_predictions(self):
        assert pointwise_prf(np.zeros(4), np.array([0, 1, 1, 0])) == (0.0, 0.0, 0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            pred = rng.integers(0, 2, size=1000)
            truth = rng.integers(0, 2, size=1000)
            assert pointwise_prf(pred, truth) == confusion_prf(pred, truth)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            pointwise_prf(np.ones(3), np.ones(4))


class TestContinuousLabels:
    def test_zero_width_is_binary(self):
        gt = GroundTruth.from_spans([(3, 5)], length=10)
        assert np.array_equal(continuous_labels(gt, 0), gt.labels.astype(float))

    def test_single_point_span_decay(self):
        gt = GroundTruth.from_spans([(10, 10)], length=16)
        soft = continuous_labels(gt, 2)
        assert soft[10] == 1.0
        assert soft[11] == pytest.approx(np.sqrt(0.5))
        assert soft[12] == pytest.approx(0.0)
        assert soft[9] == pytest.approx(np.sqrt(0.5))

    def test_overlapping_buffers_take_max(self):
        gt = GroundTruth.from_spans([(2, 2), (6, 6)], length=10)
        soft = continuous_labels(gt, 4)
        expected = soft_labels_direct([(2, 2), (6, 6)], 10, 4)
        assert np.allclose(soft, expected)
        # the midpoint is closest to both spans at distance 2
        assert soft[4] == pytest.approx(np.sqrt(1 - 2 / 4))

    def test_monotone_in_width(self):
        gt = GroundTruth.from_spans([(5, 8), (20, 21)], length=30)
        prev = continuous_labels(gt, 0)
        for w in (1, 2, 4, 8, 16):
            cur = continuous_labels(gt, w)
            assert np.all(cur >= prev - 1e-15)
            prev = cur

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(10, 60))
            a = int(rng.integers(0, n - 2))
            b = int(rng.integers(a, n - 1))
            w = int(rng.integers(0, 12))
            gt = GroundTruth.from_spans([(a, b)], length=n)
            assert np.allclose(
                continuous_labels(gt, w), soft_labels_direct([(a, b)], n, w)
            )

    def test_span_clipping(self):
        gt = GroundTruth.from_spans([(95, 120)], length=20, offset=90)
        assert gt.spans == ((5, 19),)
        assert gt.labels[5:].all() and not gt.labels[:5].any()
        empty = GroundTruth.from_spans([(0, 4)], length=10, offset=90)
        assert empty.spans == () and not empty.labels.any()


class TestAucWeighted:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.1, 0.2])
        labels = np.array([1.0, 1.0, 0.0, 0.0])
        assert auc_weighted(scores, labels, "roc") == pytest.approx(1.0)

    def test_anti_separation(self):
        scores = np.array([0.1, 0.2, 0.9, 0.8])
        labels = np.array([1.0, 1.0, 0.0, 0.0])
        assert auc_weighted(scores, labels, "roc") == pytest.approx(0.0)

    def test_ties_match_enumeration_oracle(self):
        scores = np.array([0.5, 0.5, 0.3, 0.3, 0.9, 0.1, 0.3, 0.9])
        soft = np.array([1.0, 0.5, 0.0, 0.25, 1.0, 0.0, 0.75, 0.0])
        for kind in ("roc", "pr"):
            assert abs(
                auc_weighted(scores, soft, kind) - auc_enum(scores, soft, kind)
            ) <= 1e-12

    def test_random_fixtures_match_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 64))
            scores = np.round(rng.random(n), 2)  # induce ties
            soft = rng.random(n)
            soft[int(rng.integers(0, n))] = 1.0
            for kind in ("roc", "pr"):
                assert abs(
                    auc_weighted(scores, soft, kind) - auc_enum(scores, soft, kind)
                ) <= 1e-12

    def test_monotone_transform_invariance_exact(self):
        rng = np.random.default_rng(3)
        scores = rng.random(50)
        soft = rng.random(50)
        for kind in ("roc", "pr"):
            base = auc_weighted(scores, soft, kind)
            assert auc_weighted(3.0 * scores + 2.0, soft, kind) == base
            assert auc_weighted(np.exp(scores), soft, kind) == base
            assert auc_weighted(scores**3, soft, kind) == base

    def test_no_positive_mass(self):
        with pytest.raises(NoPositiveMassError):
            auc_weighted(np.ones(4), np.zeros(4), "roc")

    def test_no_negative_mass_convention(self):
        assert auc_weighted(np.array([1.0, 2.0]), np.ones(2), "roc") == 1.0
        assert auc_weighted(np.array([1.0, 2.0]), np.ones(2), "pr") == 1.0

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            auc_weighted(np.ones(2), np.ones(2), "nope")


class TestSortedBlocks:
    @settings(max_examples=1000, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, -np.nan]),
                st.floats(),
            ),
            min_size=1,
            max_size=300,
        )
    )
    def test_equals_stable_argsort_and_inequality_blocks(self, values):
        # heavy ties, NaNs (each its own block under !=), signed zeros and
        # infinities; the sort that repairs tie order treats NaNs as one run
        scores = np.array(values)
        order, block_end = _sorted_blocks(scores)
        expected = np.argsort(-scores, kind="stable")
        ranked = scores[expected]
        assert order.dtype == expected.dtype
        assert np.array_equal(order, expected)
        assert np.array_equal(
            block_end, np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
        )


class TestVus:
    def test_zero_width_equals_plain_aucs(self):
        rng = np.random.default_rng(4)
        scores = rng.random(40)
        gt = GroundTruth.from_spans([(10, 15)], length=40)
        roc, pr = vus(scores, gt, w_max=0, steps=5)
        soft = gt.labels.astype(float)
        assert roc == auc_weighted(scores, soft, "roc")
        assert pr == auc_weighted(scores, soft, "pr")

    def test_perfect_scores_zero_width(self):
        scores = np.zeros(30)
        scores[10:16] = 1.0
        gt = GroundTruth.from_spans([(10, 15)], length=30)
        roc, pr = vus(scores, gt, w_max=0, steps=1)
        assert roc == pytest.approx(1.0) and pr == pytest.approx(1.0)

    def test_fixture_matches_per_slice_oracle(self):
        rng = np.random.default_rng(5)
        scores = rng.random(30)
        spans = [(8, 12), (20, 22)]
        gt = GroundTruth.from_spans(spans, length=30)
        got = vus(scores, gt, w_max=4, steps=4)
        expected = vus_enum(scores, spans, 30, 4, 4)
        assert got[0] == pytest.approx(expected[0], abs=1e-12)
        assert got[1] == pytest.approx(expected[1], abs=1e-12)

    @pytest.mark.parametrize("spans", [[(5, 9), (30, 33)], [(0, 59)]])
    def test_sorts_once_and_equals_per_width_auc(self, spans, monkeypatch):
        # the second case labels every point: no width has negative mass
        scores = np.round(np.random.default_rng(8).random(60), 1)
        gt = GroundTruth.from_spans(spans, length=60)
        w_max, steps = 7, 5
        widths = np.unique(np.rint(np.linspace(0.0, w_max, steps + 1)).astype(int))
        expected = [
            np.trapezoid(
                [auc_weighted(scores, continuous_labels(gt, int(w)), kind) for w in widths],
                widths,
            )
            / float(widths[-1] - widths[0])
            for kind in ("roc", "pr")
        ]
        real_argsort = np.argsort
        sorts = []

        def counting_argsort(*args, **kwargs):
            sorts.append(1)
            return real_argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        got = vus(scores, gt, w_max=w_max, steps=steps)
        assert len(sorts) == 1
        assert got == (expected[0], expected[1])
        if spans == [(0, 59)]:
            assert got == (1.0, 1.0)

    @pytest.mark.parametrize("n_scores", [4, 6])
    def test_length_mismatch(self, n_scores):
        gt = GroundTruth.from_spans([(1, 2)], length=5)
        with pytest.raises(LengthMismatchError):
            vus(np.ones(n_scores), gt, w_max=2, steps=2)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 300),
        decimals=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        spans=st.lists(
            st.tuples(st.integers(-40, 340), st.integers(0, 80)), max_size=3
        ),
        cover_all=st.booleans(),
        w_max=st.integers(0, 150),
        steps=st.integers(1, 25),
    )
    def test_matches_frozen_reference_bitwise(
        self, n, decimals, seed, spans, cover_all, w_max, steps
    ):
        # rounding forces tied blocks; spans may start before 0, end past
        # n - 1, or (cover_all) label every point
        scores = np.round(np.random.default_rng(seed).random(n), decimals)
        spans = [(a, a + length) for a, length in spans]
        if cover_all:
            spans.append((-1, n))
        gt = GroundTruth.from_spans(spans, length=n)
        try:
            expected = vus_reference(scores, gt, w_max, steps)
        except ReferenceMassError:
            with pytest.raises(NoPositiveMassError):
                vus(scores, gt, w_max, steps)
            return
        assert vus(scores, gt, w_max, steps) == expected

    def test_long_series_matches_frozen_reference_bitwise(self):
        rng = np.random.default_rng(21)
        n = 50_000
        scores = np.round(rng.gamma(2.0, size=n), 3)
        gt = GroundTruth.from_spans([(-5, 40), (31_000, 31_180), (49_990, 50_020)], n)
        assert vus(scores, gt, w_max=150, steps=20) == vus_reference(scores, gt, 150, 20)

    @pytest.mark.parametrize("decimals", [None, 2])
    def test_archive_scale_matches_frozen_reference_bitwise(self, decimals):
        # an archive-sized series with one short anomaly; rounding forces ties
        n = 200_000
        scores = np.random.default_rng(22).random(n)
        if decimals is not None:
            scores = np.round(scores, decimals)
        gt = GroundTruth.from_spans([(150_000, 150_039)], n)
        assert vus(scores, gt, w_max=96, steps=20) == vus_reference(scores, gt, 96, 20)

    @pytest.mark.parametrize("span", [(120_000, 120_039), (0, 149_999), (0, 199_999)])
    def test_archive_scale_in_bounded_memory(self, span):
        # the dense per-width evaluation peaked at ten float64 arrays of n
        # points, whatever the span; the near-span one stays below it
        n = 200_000
        scores = np.random.default_rng(23).random(n)
        gt = GroundTruth.from_spans([span], n)
        expected = vus(scores, gt, w_max=96, steps=20)
        tracemalloc.start()
        try:
            got = vus(scores, gt, w_max=96, steps=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected
        assert peak < 10 * n * 8

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(6)
        scores = rng.random(10_000)
        labels = rng.integers(0, 2, size=10_000)
        spans = []
        in_span = False
        for i, v in enumerate(labels):
            if v and not in_span:
                start = i
                in_span = True
            elif not v and in_span:
                spans.append((start, i - 1))
                in_span = False
        if in_span:
            spans.append((start, len(labels) - 1))
        gt = GroundTruth.from_spans(spans, length=10_000)
        roc, _ = vus(scores, gt, w_max=4, steps=4)
        assert 0.4 <= roc <= 0.6


class TestBootstrap:
    def test_constant_values(self):
        mean, std = bootstrap(np.full(10, 3.5), iterations=100, seed=0)
        assert mean == 3.5 and std == 0.0

    def test_clt_scale(self):
        rng = np.random.default_rng(7)
        values = rng.normal(10.0, 2.0, size=250)
        _, std = bootstrap(values, iterations=1000, seed=1)
        expected = values.std() / np.sqrt(len(values))
        assert abs(std - expected) / expected < 0.10

    def test_deterministic(self):
        values = np.arange(20.0)
        assert bootstrap(values, 500, seed=42) == bootstrap(values, 500, seed=42)

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            bootstrap(np.array([]), 10, seed=0)


class TestEvalReport:
    def _report(self):
        rep = EvalReport(setting="x")
        rep.per_series = {
            "b": {"domain": "d1", "f1": 0.2, "precision": 0.4, "recall": 0.1,
                  "vus_roc": 0.8, "vus_pr": 0.3, "threshold": 1.0, "n_windows": 3},
            "a": {"domain": "d0", "f1": 0.4, "precision": 0.2, "recall": 0.5,
                  "vus_roc": 0.6, "vus_pr": 0.5, "threshold": 2.0, "n_windows": 3},
        }
        return rep

    def test_aggregates_are_means(self):
        rep = self._report()
        rep.finalize()
        assert rep.overall["vus_roc"] == pytest.approx(0.7)
        assert rep.overall["n_series"] == 2
        assert rep.per_domain["d0"]["f1"] == pytest.approx(0.4)
        assert list(rep.per_series) == ["a", "b"]  # sorted

    def test_bootstrap_block(self):
        rep = self._report()
        rep.finalize(bootstrap_iterations=200, seed=3)
        assert set(rep.bootstrap) == {"f1", "precision", "recall", "vus_roc", "vus_pr"}
        assert rep.bootstrap["f1"]["std"] >= 0.0

    def test_json_and_csv(self, tmp_path):
        rep = self._report()
        rep.finalize()
        text = rep.to_json()
        assert '"schema_version": 1' in text
        assert '"global"' in text
        rep.write_per_series_csv(tmp_path / "per_series.csv")
        lines = (tmp_path / "per_series.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("series_id,domain,f1")
