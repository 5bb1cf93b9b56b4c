import sys
import threading
import time

import numpy as np
import pytest

from oracles import ncc_direct
from ratfm.dataset import Window
from ratfm.errors import (
    EmptyPoolError,
    InconsistentWindowLengthError,
    InvalidFractionError,
    LengthMismatchError,
    ZeroNormVectorError,
)
from ratfm.retrieval import (
    _CHUNK_ROWS,
    CandidatePool,
    best_candidate,
    candidate_scores,
    ncc_max,
    retrieve_best,
    subsample_indices,
    subsample_pool,
)


def win(sid, start, inp, fut=(0.0, 0.0)):
    return Window(series_id=sid, start=start, input=np.asarray(inp, float),
                  future=np.asarray(fut, float))


class TestNccMax:
    def test_self_similarity(self):
        r = ncc_max([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r.score == pytest.approx(1.0, abs=1e-12)
        assert r.best_lag == 0

    def test_shifted_impulse(self):
        r = ncc_max([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        assert r.score == pytest.approx(1.0, abs=1e-12)
        assert r.best_lag == -1

    def test_negative_pair_matches_oracle(self):
        x = np.array([1.0, 2.0])
        y = np.array([-2.0, -4.0])
        expected_score, expected_lag = ncc_direct(x, y)
        r = ncc_max(x, y)
        assert r.score == pytest.approx(expected_score, abs=1e-12)
        assert r.best_lag == expected_lag == -1

    def test_matches_direct_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            L = int(rng.integers(2, 64))
            x = rng.normal(size=L)
            y = rng.normal(size=L)
            score, lag = ncc_direct(x, y)
            r = ncc_max(x, y)
            assert abs(r.score - score) < 1e-9
            assert r.best_lag == lag

    def test_scaled_copy_scores_one(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=32)
        r = ncc_max(x, 2.5 * x)
        assert r.score == pytest.approx(1.0, abs=1e-12)
        assert r.best_lag == 0

    def test_scaled_shifted_copy_scores_one(self):
        # zero-padding truncates shifted content, so the score reaches 1
        # at a lag only when the lost tail is zero
        rng = np.random.default_rng(41)
        x = rng.normal(size=32)
        x[-3:] = 0.0
        y = np.zeros(32)
        y[3:] = 2.5 * x[:-3]
        r = ncc_max(x, y)
        assert r.score == pytest.approx(1.0, abs=1e-9)
        assert r.best_lag == -3

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        base = ncc_max(x, y).score
        for a, b in [(2.0, 3.0), (0.01, 250.0), (7.5, 0.3)]:
            assert ncc_max(a * x, b * y).score == pytest.approx(base, abs=1e-9)

    def test_score_bounded_property(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            L = int(rng.integers(2, 40))
            r = ncc_max(rng.normal(size=L), rng.normal(size=L))
            assert -1.0 <= r.score <= 1.0

    def test_lag_zero_only(self):
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0])
        r = ncc_max(x, y, lag_zero_only=True)
        assert r.score == pytest.approx(0.0, abs=1e-12)
        assert r.best_lag == 0

    def test_errors(self):
        with pytest.raises(LengthMismatchError):
            ncc_max([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(LengthMismatchError):
            ncc_max([1.0], [1.0])
        with pytest.raises(ZeroNormVectorError):
            ncc_max([0.0, 0.0], [1.0, 2.0])


class TestRetrieveBest:
    def test_exact_copy_wins(self):
        rng = np.random.default_rng(2)
        q = win("query", 0, rng.normal(size=16))
        entries = [win(f"c{i}", 0, rng.normal(size=16)) for i in range(4)]
        entries.insert(2, win("twin", 0, q.input.copy(), fut=(9.0, 9.0)))
        pool = CandidatePool(domain="d", entries=entries)
        best, sim = retrieve_best(q, pool)
        assert best.series_id == "twin"
        assert sim.score == pytest.approx(1.0, abs=1e-9)
        assert sim.candidate_index == 2
        assert np.array_equal(best.future, [9.0, 9.0])

    def test_singleton_pool(self):
        rng = np.random.default_rng(3)
        q = win("q", 0, rng.normal(size=8))
        only = win("other", 0, rng.normal(size=8))
        best, _ = retrieve_best(q, CandidatePool(domain="d", entries=[only]))
        assert best is only

    def test_matches_exhaustive_argmax(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            q = win("q", 0, rng.normal(size=24))
            entries = [win(f"c{i}", 0, rng.normal(size=24)) for i in range(5)]
            pool = CandidatePool(domain="d", entries=entries)
            scores = [ncc_direct(q.input, e.input)[0] for e in entries]
            best, sim = retrieve_best(q, pool)
            assert sim.candidate_index == int(np.argmax(scores))
            assert sim.score == pytest.approx(max(scores), abs=1e-9)

    def test_never_returns_own_series(self):
        rng = np.random.default_rng(29)
        q = win("mine", 0, rng.normal(size=12))
        entries = [win("mine", 0, q.input.copy()), win("other", 0, rng.normal(size=12))]
        best, _ = retrieve_best(q, CandidatePool(domain="d", entries=entries))
        assert best.series_id == "other"

    def test_empty_pool(self):
        q = win("q", 0, np.ones(4))
        with pytest.raises(EmptyPoolError):
            retrieve_best(q, CandidatePool(domain="d", entries=[]))
        with pytest.raises(EmptyPoolError):
            retrieve_best(q, CandidatePool(domain="d", entries=[win("q", 0, np.ones(4))]))

    def test_inconsistent_window_length(self):
        q = win("q", 0, np.ones(4))
        pool = CandidatePool(domain="d", entries=[win("o", 0, np.ones(6))])
        with pytest.raises(InconsistentWindowLengthError):
            retrieve_best(q, pool)

    def test_ragged_pool_rejected(self):
        q = win("q", 0, np.ones(4))
        pool = CandidatePool(
            domain="d", entries=[win("a", 0, np.ones(4)), win("b", 0, np.ones(6))]
        )
        for _ in range(2):  # a failed build is not kept
            with pytest.raises(InconsistentWindowLengthError):
                retrieve_best(q, pool)
            with pytest.raises(InconsistentWindowLengthError):
                candidate_scores(q, pool)

    def test_zero_norm_query(self):
        pool = CandidatePool(domain="d", entries=[win("o", 0, np.ones(4))])
        with pytest.raises(ZeroNormVectorError):
            retrieve_best(win("q", 0, np.zeros(4)), pool)


def oracle_best(query, entries):
    """Exhaustive direct-sum retrieval: (index, score, lag), lowest index on ties."""
    best = (-1, -np.inf, 0)
    for i, e in enumerate(entries):
        if e.series_id == query.series_id:
            continue
        score, lag = ncc_direct(query.input, e.input)
        if score > best[1]:
            best = (i, score, lag)
    return best


def filler(rng, query, n, length, below):
    """``n`` other-series entries that each score below ``below`` against the query."""
    out = []
    while len(out) < n:
        cand = rng.normal(size=length)
        if ncc_direct(query.input, cand)[0] < below:
            out.append(win(f"f{len(out) % 7}", len(out), cand))
    return out


class TestRetrieveBestAcrossBlocks:
    """Pools spanning several ``_CHUNK_ROWS`` blocks, ending in a partial one."""

    def assert_matches_oracle(self, query, entries):
        assert len(entries) > 2 * _CHUNK_ROWS and len(entries) % _CHUNK_ROWS
        idx, score, lag = oracle_best(query, entries)
        best, sim = retrieve_best(query, CandidatePool(domain="d", entries=entries))
        assert sim.candidate_index == idx
        assert best is entries[idx]
        assert sim.best_lag == lag
        assert abs(sim.score - score) < 1e-9
        return sim

    @pytest.mark.parametrize("n", [150, 173, 200])
    def test_random_pool_with_planted_duplicates(self, n):
        rng = np.random.default_rng(n)
        L = 24
        query = win("q", 0, rng.normal(size=L))
        entries = [win(f"c{i % 9}", i, rng.normal(size=L)) for i in range(n)]
        # the strongest candidate twice, in different blocks: the first wins
        strong = np.roll(query.input, 3) + 0.1 * rng.normal(size=L)
        entries[_CHUNK_ROWS - 5] = win("a", 0, strong)
        entries[2 * _CHUNK_ROWS + 7] = win("b", 0, strong.copy())
        # copies of the query from its own series, one in the partial block
        for i in (3, _CHUNK_ROWS, n - 1):
            entries[i] = win("q", i, query.input.copy())
        sim = self.assert_matches_oracle(query, entries)
        assert sim.candidate_index == _CHUNK_ROWS - 5

    def test_tie_between_lag_zero_and_negative_lag_goes_to_zero(self):
        # cc([1, 0], [1, 1]) is 1 at lags -1 and 0; the FFT is exact at L = 2
        rng = np.random.default_rng(1)
        query = win("q", 0, [1.0, 0.0])
        entries = filler(rng, query, 170, 2, below=0.6)
        for i in (0, 2 * _CHUNK_ROWS, 169):
            entries[i] = win("q", i, [1.0, 0.0])
        entries[_CHUNK_ROWS + 1] = win("w", 0, [1.0, 1.0])
        entries[2 * _CHUNK_ROWS + 3] = win("w", 1, [2.0, 2.0])
        sim = self.assert_matches_oracle(query, entries)
        assert (sim.candidate_index, sim.best_lag) == (_CHUNK_ROWS + 1, 0)

    def test_tie_between_opposite_lags_goes_to_negative(self):
        # cc([1, -1], [-1, 1]) is 1 at lags -1 and +1 and -2 at lag 0
        rng = np.random.default_rng(2)
        query = win("q", 0, [1.0, -1.0])
        entries = filler(rng, query, 190, 2, below=0.45)
        for i in (5, _CHUNK_ROWS + 9, 189):
            entries[i] = win("q", i, [1.0, -1.0])
        entries[2 * _CHUNK_ROWS] = win("w", 0, [-1.0, 1.0])
        entries[2 * _CHUNK_ROWS + 40] = win("w", 1, [-0.5, 0.5])
        sim = self.assert_matches_oracle(query, entries)
        assert (sim.candidate_index, sim.best_lag) == (2 * _CHUNK_ROWS, -1)


class TestCandidateScores:
    def grouped_pool(self, rng, L=40):
        """Entries grouped by series like a domain pool, with the query's
        own series spanning whole blocks and a few all-zero entries."""
        entries = []
        for sid, n in (("a", 70), ("q", 2 * _CHUNK_ROWS + 5), ("b", 90)):
            entries += [win(sid, i, rng.normal(size=L)) for i in range(n)]
        for i in (3, 100, len(entries) - 1):
            entries[i] = win(entries[i].series_id, i, np.zeros(L))
        return CandidatePool(domain="d", entries=entries)

    def test_unusable_rows_score_minus_inf_and_the_rest_match_all_rows(self):
        rng = np.random.default_rng(5)
        pool = self.grouped_pool(rng)
        query = win("q", 0, rng.normal(size=40))
        scores = candidate_scores(query, pool)
        stack = np.stack([e.input for e in pool.entries])
        norms = np.linalg.norm(stack, axis=1)
        usable = (norms > 0) & np.array([e.series_id != "q" for e in pool.entries])
        assert np.all(scores[~usable] == -np.inf)
        # the same arithmetic over every row at once
        L, nfft = 40, 128
        fq = np.fft.rfft(query.input, nfft)
        spectra = np.conj(np.fft.rfft(stack, nfft, axis=1))
        circ = np.fft.irfft(fq * spectra, nfft, axis=1)
        peaks = np.maximum(circ[:, :L].max(axis=1), circ[:, nfft - L + 1 :].max(axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            full = peaks / (np.linalg.norm(query.input) * norms)
        assert np.array_equal(scores[usable], full[usable])
        for i in np.flatnonzero(usable)[::17]:
            assert abs(scores[i] - ncc_direct(query.input, stack[i])[0]) < 1e-9

    def test_correlates_only_usable_rows_plus_the_winner(self, monkeypatch):
        rng = np.random.default_rng(6)
        pool = self.grouped_pool(rng)
        queries = [win("q", i, rng.normal(size=40)) for i in range(3)]
        n_usable = sum(
            e.series_id != "q" and np.any(e.input) for e in pool.entries
        )
        retrieve_best(queries[0], pool)  # builds the pool's spectra
        real_irfft = np.fft.irfft
        rows = []

        def counting_irfft(a, *args, **kwargs):
            rows.append(len(a) if np.ndim(a) == 2 else 1)
            return real_irfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", counting_irfft)
        for q in queries:
            rows.clear()
            candidate_scores(q, pool)
            assert sum(rows) == n_usable
            rows.clear()
            retrieve_best(q, pool)
            assert sum(rows) == n_usable + 1

    def test_best_candidate_lowest_index_and_no_usable_row(self):
        pool = CandidatePool(domain="d", entries=[win("o", 0, np.ones(4))])
        query = win("q", 0, np.ones(4))
        assert best_candidate(np.array([-np.inf, 0.5, 0.9, 0.9]), query, pool) == 2
        with pytest.raises(EmptyPoolError, match="no candidate outside series 'q'"):
            best_candidate(np.full(3, -np.inf), query, pool)

    def test_no_usable_row_raises_before_correlating(self):
        pool = CandidatePool(
            domain="d", entries=[win("q", 0, np.ones(4)), win("o", 0, np.zeros(4))]
        )
        with pytest.raises(EmptyPoolError, match="domain 'd' has no candidate outside"):
            candidate_scores(win("q", 1, np.ones(4)), pool)


def test_concurrent_first_touch_builds_spectra_once(monkeypatch):
    rng = np.random.default_rng(31)
    pool = CandidatePool(
        domain="d", entries=[win(f"c{i}", i, rng.normal(size=32)) for i in range(40)]
    )
    n_threads = 4  # more threads than the CPUs of a small test host
    queries = [win("q", i, rng.normal(size=32)) for i in range(n_threads)]
    real_rfft = np.fft.rfft
    pool_builds = []

    def slow_rfft(a, *args, **kwargs):
        if np.ndim(a) == 2:  # the pool's spectra, not a query's
            pool_builds.append(1)
            time.sleep(0.05)  # widen the window in which a second build could start
        return real_rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", slow_rfft)
    start = threading.Barrier(n_threads)
    results = [None] * n_threads

    def touch(k):
        start.wait(timeout=10)
        results[k] = retrieve_best(queries[k], pool)[1]

    threads = [threading.Thread(target=touch, args=(k,)) for k in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(pool_builds) == 1
    for k in range(n_threads):
        assert results[k] == retrieve_best(queries[k], pool)[1]


class TestSubsample:
    def _pool(self, n):
        rng = np.random.default_rng(1)
        return CandidatePool(
            domain="d", entries=[win(f"s{i}", i, rng.normal(size=8)) for i in range(n)]
        )

    def test_quarter_of_hundred(self):
        sub = subsample_pool(self._pool(100), 0.25, seed=0)
        assert len(sub) == 25

    def test_identity_fraction(self):
        pool = self._pool(10)
        sub = subsample_pool(pool, 1.0, seed=99)
        assert [e.series_id for e in sub.entries] == [e.series_id for e in pool.entries]

    def test_deterministic(self):
        pool = self._pool(50)
        a = subsample_pool(pool, 0.5, seed=7)
        b = subsample_pool(pool, 0.5, seed=7)
        assert [e.series_id for e in a.entries] == [e.series_id for e in b.entries]

    def test_order_preserved(self):
        pool = self._pool(30)
        sub = subsample_pool(pool, 0.4, seed=3)
        positions = [int(e.series_id[1:]) for e in sub.entries]
        assert positions == sorted(positions)

    def test_invalid_fraction(self):
        pool = self._pool(5)
        for f in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidFractionError):
                subsample_pool(pool, f, seed=0)

    def test_ceil_size_and_metadata(self):
        sub = subsample_pool(self._pool(10), 0.11, seed=4)
        assert len(sub) == 2  # ceil(1.1)
        assert sub.fraction == 0.11 and sub.seed == 4

    @pytest.mark.parametrize("fraction", [1.0, 0.75, 0.3, 0.01])
    def test_indices_are_the_pools_entries(self, fraction):
        pool = self._pool(40)
        idx = subsample_indices(len(pool), fraction, seed=9)
        sub = subsample_pool(pool, fraction, seed=9)
        assert len(sub.entries) == len(idx)
        assert all(pool.entries[i] is e for i, e in zip(idx, sub.entries))
