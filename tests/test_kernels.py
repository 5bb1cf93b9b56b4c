import numpy as np
import pytest

from oracles import auc_enum, sma_formula
from ratfm import _kernels


class TestSmaKernel:
    def test_numpy_matches_formula_bitwise(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            values = rng.random(int(rng.integers(1, 80)))
            n = int(rng.integers(1, 15))
            assert np.array_equal(_kernels.sma_trailing(values, n), sma_formula(values, n))


class TestBestLagKernel:
    def _priority_best(self, cc):
        half = (len(cc) - 1) // 2
        best_j = None
        best = -np.inf
        for lag in sorted(range(-half, half + 1), key=lambda k: (abs(k), k >= 0)):
            j = lag + half
            if cc[j] > best:
                best = cc[j]
                best_j = j
        return best_j

    def test_numpy_matches_priority_definition(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            L = int(rng.integers(2, 20))
            rows = int(rng.integers(1, 6))
            cc = np.round(rng.random((rows, 2 * L - 1)), 1)  # force ties
            got = _kernels.best_lag_batch(cc)
            assert got.dtype == np.int64
            assert got.tolist() == [self._priority_best(row) for row in cc]


class TestWeightedAreasKernel:
    def test_matches_enumeration_oracle_on_tied_scores(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 100))
            scores = np.round(rng.random(n), 1)  # force tied blocks
            soft = rng.random(n)
            soft[0] = 1.0
            soft[-1] = 0.0
            order = np.argsort(-scores, kind="stable")
            ranked = scores[order]
            block_end = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
            plan = _kernels.AreaPlan(block_end, np.arange(n))
            roc, pr = _kernels.weighted_areas(soft[order], plan)
            assert roc == pytest.approx(auc_enum(scores, soft, "roc"), abs=1e-12)
            assert pr == pytest.approx(auc_enum(scores, soft, "pr"), abs=1e-12)
            # a reused plan, its buffers dirty from another call, changes nothing
            _kernels.weighted_areas(rng.random(n), plan)
            assert _kernels.weighted_areas(soft[order], plan) == (roc, pr)


class TestLag0ScanKernel:
    def test_numpy_matches_direct(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            hay = rng.normal(size=int(rng.integers(8, 60)))
            m = int(rng.integers(2, 8))
            needle = rng.normal(size=m)
            score, off = _kernels.lag0_scan(hay, needle)
            direct = [
                float(np.dot(hay[o : o + m], needle))
                / (np.linalg.norm(hay[o : o + m]) * np.linalg.norm(needle))
                for o in range(len(hay) - m + 1)
            ]
            assert score == pytest.approx(max(direct), abs=1e-12)
            assert direct[off] == pytest.approx(max(direct), abs=1e-12)

    def test_zero_norm_segments_never_win(self):
        # offset 0 is all-zero; every other offset correlates negatively
        hay = np.array([0.0, 0.0, -1.0, -1.0])
        score, off = _kernels.lag0_scan(hay, np.array([1.0, 1.0]))
        assert (score, off) == (pytest.approx(-np.sqrt(0.5)), 1)

    def test_zero_norm_needle_flagged(self):
        score, _ = _kernels.lag0_scan(np.ones(10), np.zeros(3))
        assert score < -1.0

    def test_haystack_too_short(self):
        with pytest.raises(ValueError):
            _kernels.lag0_scan(np.ones(2), np.ones(3))
