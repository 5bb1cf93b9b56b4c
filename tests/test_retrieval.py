import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratfm.retrieval as retrieval
from oracles import exhaustive_best, exhaustive_scores, ncc_direct
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
    best_candidates,
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

    def test_shifted_impulse(self):
        r = ncc_max([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        assert r.score == pytest.approx(1.0, abs=1e-12)

    def test_negative_pair_matches_oracle(self):
        x = np.array([1.0, 2.0])
        y = np.array([-2.0, -4.0])
        expected_score, _ = ncc_direct(x, y)
        r = ncc_max(x, y)
        assert r.score == pytest.approx(expected_score, abs=1e-12)

    def test_matches_direct_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            L = int(rng.integers(2, 64))
            x = rng.normal(size=L)
            y = rng.normal(size=L)
            score, _ = ncc_direct(x, y)
            r = ncc_max(x, y)
            assert abs(r.score - score) < 1e-9

    def test_scaled_copy_scores_one(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=32)
        r = ncc_max(x, 2.5 * x)
        assert r.score == pytest.approx(1.0, abs=1e-12)

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
        with pytest.raises(InconsistentWindowLengthError):
            CandidatePool(
                domain="d", entries=[win("a", 0, np.ones(4)), win("b", 0, np.ones(6))]
            )

    def test_zero_norm_query(self):
        pool = CandidatePool(domain="d", entries=[win("o", 0, np.ones(4))])
        with pytest.raises(ZeroNormVectorError):
            retrieve_best(win("q", 0, np.zeros(4)), pool)


def oracle_best(query, entries):
    """Exhaustive direct-sum retrieval: (index, score), lowest index on ties."""
    best = (-1, -np.inf)
    for i, e in enumerate(entries):
        if e.series_id == query.series_id:
            continue
        score, _ = ncc_direct(query.input, e.input)
        if score > best[1]:
            best = (i, score)
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
        idx, score = oracle_best(query, entries)
        best, sim = retrieve_best(query, CandidatePool(domain="d", entries=entries))
        assert sim.candidate_index == idx
        assert best is entries[idx]
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
        # cc([1, 0], [1, 1]) is 1 at lags -1 and 0; the FFT is exact at L = 2,
        # so the two scaled copies tie and the first wins
        rng = np.random.default_rng(1)
        query = win("q", 0, [1.0, 0.0])
        entries = filler(rng, query, 170, 2, below=0.6)
        for i in (0, 2 * _CHUNK_ROWS, 169):
            entries[i] = win("q", i, [1.0, 0.0])
        entries[_CHUNK_ROWS + 1] = win("w", 0, [1.0, 1.0])
        entries[2 * _CHUNK_ROWS + 3] = win("w", 1, [2.0, 2.0])
        sim = self.assert_matches_oracle(query, entries)
        assert sim.candidate_index == _CHUNK_ROWS + 1

    def test_tie_between_opposite_lags_goes_to_negative(self):
        # cc([1, -1], [-1, 1]) is 1 at lags -1 and +1 and -2 at lag 0, so the
        # two scaled copies tie and the first wins
        rng = np.random.default_rng(2)
        query = win("q", 0, [1.0, -1.0])
        entries = filler(rng, query, 190, 2, below=0.45)
        for i in (5, _CHUNK_ROWS + 9, 189):
            entries[i] = win("q", i, [1.0, -1.0])
        entries[2 * _CHUNK_ROWS] = win("w", 0, [-1.0, 1.0])
        entries[2 * _CHUNK_ROWS + 40] = win("w", 1, [-0.5, 0.5])
        sim = self.assert_matches_oracle(query, entries)
        assert sim.candidate_index == 2 * _CHUNK_ROWS


def spy_blocks(monkeypatch):
    """List of (rows, scores) per block ``best_candidates`` scores in float64."""
    return _spy(monkeypatch, "_block_scores")


def spy_screens(monkeypatch):
    """List of (rows, screen scores) per block ``best_candidates`` screens."""
    return _spy(monkeypatch, "_screen_scores")


def _spy(monkeypatch, name):
    blocks = []
    real = getattr(retrieval, name)

    def spy(*args):
        scores = real(*args)
        blocks.append((args[-1].copy(), scores))
        return scores

    monkeypatch.setattr(retrieval, name, spy)
    return blocks


def rows_of(blocks):
    return np.concatenate([rows for rows, _ in blocks] or [np.array([], dtype=int)])


def screen_eps(query):
    q = np.asarray(query.input, dtype=np.float64)
    return retrieval._screen_query(
        np.fft.rfft(q, retrieval._fft_size(len(q))), float(np.linalg.norm(q))
    )[1]


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

    def test_unusable_rows_score_minus_inf_and_the_rest_match_all_rows(self, monkeypatch):
        rng = np.random.default_rng(5)
        pool = self.grouped_pool(rng)
        blocks = spy_blocks(monkeypatch)
        screens = spy_screens(monkeypatch)
        subsets = [np.arange(len(pool)), np.arange(0, len(pool), 3), np.arange(60, 80)]
        for _ in range(10):
            query = win("q", 0, rng.normal(size=40))
            full = exhaustive_scores(query, pool.entries)
            usable = full > -np.inf
            blocks.clear()
            screens.clear()
            winners = best_candidates(query, pool, subsets)
            assert blocks and screens
            for rows, scores in blocks:
                assert np.all(usable[rows]) and np.all(np.diff(rows) > 0)
                # every computed score is bitwise the all-rows one
                assert np.array_equal(scores, full[rows])
            for rows, screened in screens:
                assert np.all(usable[rows]) and np.all(np.diff(rows) > 0)
                assert np.all(np.abs(screened - full[rows]) <= screen_eps(query))
            for subset, won in zip(subsets, winners):
                idx = exhaustive_best(full, subset)
                assert won == (idx, full[idx])
            for i in np.flatnonzero(usable)[::17]:
                direct = ncc_direct(query.input, pool.entries[i].input)[0]
                assert abs(full[i] - direct) < 1e-9

    def test_correlates_only_usable_rows(self, monkeypatch):
        rng = np.random.default_rng(6)
        pool = self.grouped_pool(rng)
        queries = [win("q", i, rng.normal(size=40)) for i in range(3)]
        usable = {
            i for i, e in enumerate(pool.entries) if e.series_id != "q" and np.any(e.input)
        }
        retrieve_best(queries[0], pool)  # builds the pool's spectra
        real_rfft, real_irfft = np.fft.rfft, np.fft.irfft
        rows = {"rfft": 0, "1-d rfft": 0, "irfft32": 0, "irfft64": 0}

        def counting_rfft(a, *args, **kwargs):
            rows["rfft" if np.ndim(a) == 2 else "1-d rfft"] += len(np.atleast_2d(a))
            return real_rfft(a, *args, **kwargs)

        def counting_irfft(a, *args, **kwargs):
            precision = "32" if a.dtype == np.complex64 else "64"
            rows["irfft" + precision] += len(np.atleast_2d(a))
            return real_irfft(a, *args, **kwargs)

        blocks = spy_blocks(monkeypatch)
        screens = spy_screens(monkeypatch)
        monkeypatch.setattr(np.fft, "rfft", counting_rfft)
        monkeypatch.setattr(np.fft, "irfft", counting_irfft)
        n_screened = n_scored = 0
        for q in queries:
            rows.update(dict.fromkeys(rows, 0))
            blocks.clear()
            screens.clear()
            best_candidates(q, pool, [np.arange(len(pool))])
            screened, scored = rows_of(screens), rows_of(blocks)
            # no row is screened twice or scored twice, none is unusable,
            # and float64 work goes only to screened rows, in one block
            assert len(set(screened)) == len(screened) <= len(usable)
            assert len(blocks) == 1 and len(set(scored)) == len(scored)
            assert set(scored) <= set(screened) <= usable
            # the screen's rows are its float32 irfft's; the scored rows
            # are the float64 rfft's and irfft's, besides the query's rfft
            assert rows == {
                "rfft": len(scored),
                "1-d rfft": 1,
                "irfft32": len(screened),
                "irfft64": len(scored),
            }
            n_screened, n_scored = n_screened + len(screened), n_scored + len(scored)
            # retrieve_best correlates nothing beyond best_candidates
            expected = dict(rows)
            rows.update(dict.fromkeys(rows, 0))
            retrieve_best(q, pool)
            assert rows == expected
        # random windows score low, so many bounds pass but few screens do
        assert n_scored < n_screened / 2

    def test_first_block_is_small_when_the_top_bound_wins(self, monkeypatch):
        # one row has the query's shape (score 1, the highest bound); the
        # other 240 are noise, whose bounds stay below 1
        rng = np.random.default_rng(8)
        L = 32
        query = win("q", 0, rng.normal(size=L))
        entries = [win(f"c{i % 6}", i, rng.normal(size=L)) for i in range(240)]
        entries.insert(150, win("t", 0, 2.0 * query.input))
        pool = CandidatePool(domain="d", entries=entries)
        q = np.asarray(query.input)
        fq = np.fft.rfft(q, retrieval._fft_size(L))
        bounds = retrieval._score_bounds(fq, float(np.linalg.norm(q)), pool.mags)
        assert int(np.argmax(bounds)) == 150
        blocks = spy_blocks(monkeypatch)
        screens = spy_screens(monkeypatch)
        ((idx, score),) = best_candidates(query, pool, [np.arange(len(pool))])
        assert idx == 150
        correlated = set(rows_of(blocks)) | set(rows_of(screens))
        assert len(correlated) <= 8 + np.count_nonzero(bounds >= score)

    def test_winners_survive_any_screen_within_eps(self, monkeypatch):
        # shifted copies of the query under noise far below eps: their
        # scores are near-ties the screen cannot order, so a screen that is
        # off by almost eps against every winner must still keep them
        rng = np.random.default_rng(12)
        L = 48
        shape = np.sin(2 * np.pi * np.arange(L) / 11.0)
        query = win("q", 0, shape + 1e-3 * rng.normal(size=L))
        entries = [
            win(f"c{i % 4}", i, np.roll(shape, i % 3) + 1e-3 * rng.normal(size=L))
            for i in range(300)
        ]
        pool = CandidatePool(domain="d", entries=entries)
        full = exhaustive_scores(query, entries)
        subsets = [np.arange(300), subsample_indices(300, 0.5, 3), np.arange(7, 300, 5)]
        winners = [exhaustive_best(full, subset) for subset in subsets]
        eps = screen_eps(query)
        assert np.count_nonzero(full >= full[winners[0]] - eps) > 10
        push = (1.0 - 1e-6) * eps

        def adversary(fq32, L, spectra, block):
            return full[block] + np.where(np.isin(block, winners), -push, push)

        monkeypatch.setattr(retrieval, "_screen_scores", adversary)
        got = best_candidates(query, pool, subsets)
        assert got == [(i, full[i]) for i in winners]

    def test_best_candidate_lowest_index_and_no_usable_row(self):
        rng = np.random.default_rng(7)
        L = 16
        query = win("q", 0, rng.normal(size=L))
        entries = [win(f"c{i % 5}", i, rng.normal(size=L)) for i in range(256)]
        strong = np.roll(query.input, 2) + 0.05 * rng.normal(size=L)
        # more copies of one window than a block holds: equal bounds and
        # scores, so the copies are scored in index order over two blocks
        for i in range(_CHUNK_ROWS + 7, len(entries), 2):
            entries[i] = win("t", i, strong.copy())
        entries[5] = win("q", 5, strong.copy())  # own series never wins
        pool = CandidatePool(domain="d", entries=entries)
        subsets = [
            np.arange(len(entries)),
            np.array([5, 2 * _CHUNK_ROWS + 51, 2 * _CHUNK_ROWS + 1]),
            np.array([5]),
            np.array([], dtype=int),
        ]
        (full, late, own, empty) = best_candidates(query, pool, subsets)
        assert full[0] == _CHUNK_ROWS + 7
        assert late[0] == 2 * _CHUNK_ROWS + 1 and late[1] == full[1]
        assert own is None and empty is None
        pool = CandidatePool(domain="d", entries=[win("q", 0, strong)])
        with pytest.raises(EmptyPoolError, match="no candidate outside series 'q'"):
            retrieve_best(query, pool)

    def test_no_usable_row_raises_before_correlating(self, monkeypatch):
        pool = CandidatePool(
            domain="d", entries=[win("q", 0, np.ones(4)), win("o", 0, np.zeros(4))]
        )
        blocks = spy_blocks(monkeypatch)
        screens = spy_screens(monkeypatch)
        query = win("q", 1, np.ones(4))
        with pytest.raises(EmptyPoolError, match="domain 'd' has no candidate outside"):
            retrieve_best(query, pool)
        assert best_candidates(query, pool, [np.arange(2), [1]]) == [None, None]
        assert blocks == [] and screens == []


# windows of one length: random, scaled, offset and exactly duplicated
_POOL_CASES = st.integers(2, 48).flatmap(
    lambda L: st.tuples(
        st.just(L),
        st.lists(
            st.tuples(
                st.sampled_from(["noise", "scaled", "offset", "duplicate", "zero"]),
                st.floats(-1e3, 1e3, allow_nan=False).filter(lambda a: abs(a) > 1e-6),
                st.integers(0, 2**31 - 1),
            ),
            min_size=1,
            max_size=40,
        ),
        st.integers(0, 2**31 - 1),
        st.sampled_from([1e-30, 1e-8, 1.0, 1e8, 1e30]),
    )
)


def pool_case(case):
    """The query and pool entries a ``_POOL_CASES`` example describes."""
    L, kinds, seed, magnitude = case
    rng = np.random.default_rng(seed)
    query = win("q", 0, magnitude * rng.normal(size=L))
    entries = []
    for i, (kind, a, row_seed) in enumerate(kinds):
        base = np.random.default_rng(row_seed).normal(size=L)
        earlier = entries[row_seed % len(entries)].input if entries else query.input
        row = {
            "noise": magnitude * base,
            "scaled": a * query.input,
            "offset": query.input + a,
            "duplicate": earlier.copy(),
            "zero": np.zeros(L),
        }[kind]
        entries.append(win(f"s{i % 3}", i, row))
    return query, entries


@settings(max_examples=150, deadline=None)
@given(_POOL_CASES)
def test_stored_bound_covers_every_usable_score(case):
    query, entries = pool_case(case)
    pool = CandidatePool(domain="d", entries=entries)
    q = np.asarray(query.input, dtype=np.float64)
    fq = np.fft.rfft(q, retrieval._fft_size(len(q)))
    bounds = retrieval._score_bounds(fq, float(np.linalg.norm(q)), pool.mags)
    scores = exhaustive_scores(query, entries)
    usable = scores > -np.inf
    assert np.all(bounds[usable] >= scores[usable])


@settings(max_examples=150, deadline=None)
@given(_POOL_CASES)
def test_screen_is_within_eps_of_every_usable_score(case):
    query, entries = pool_case(case)
    pool = CandidatePool(domain="d", entries=entries)
    q = np.asarray(query.input, dtype=np.float64)
    fq = np.fft.rfft(q, retrieval._fft_size(len(q)))
    fq32, eps = retrieval._screen_query(fq, float(np.linalg.norm(q)))
    scores = exhaustive_scores(query, entries)
    rows = np.flatnonzero(scores > -np.inf)
    screened = retrieval._screen_scores(fq32, len(q), pool.spectra, rows)
    assert np.all(np.abs(screened - scores[rows]) <= eps)


def test_threads_sharing_a_pool_screen_and_score_the_serial_rows(monkeypatch):
    rng = np.random.default_rng(31)
    n_rows = _CHUNK_ROWS + 36
    pool = CandidatePool(
        domain="d", entries=[win(f"c{i}", i, rng.normal(size=32)) for i in range(n_rows)]
    )
    n_threads = 4  # more threads than the CPUs of a small test host
    queries = [win("q", i, rng.normal(size=32)) for i in range(n_threads)]
    screens = spy_screens(monkeypatch)
    blocks = spy_blocks(monkeypatch)
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

    def stage_rows():
        return [sorted(tuple(rows) for rows, _ in stage) for stage in (screens, blocks)]

    # each query screens and scores the same rows again on one thread
    racing = stage_rows()
    assert all(racing)
    screens.clear()
    blocks.clear()
    for k in range(n_threads):
        assert results[k] == retrieve_best(queries[k], pool)[1]
    assert stage_rows() == racing


def test_pool_build_peaks_near_its_stored_arrays():
    # 4096 windows of 512 points, 8 apart in one series; a whole-pool
    # float64 stack and complex128 spectrum would add about 24 MB
    L, n, stride = 512, 4096, 8
    x = np.random.default_rng(41).normal(size=n * stride + L)
    entries = [win(f"s{i // 1000}", i, x[i * stride : i * stride + L]) for i in range(n)]
    tracemalloc.start()
    try:
        pool = CandidatePool(domain="d", entries=entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    spectra, mags = pool.spectra, pool.mags
    nbins = retrieval._fft_size(L) // 2 + 1
    stored = pool.norms.nbytes + pool.series_ids.nbytes + spectra.nbytes + mags.nbytes
    chunk = _CHUNK_ROWS * nbins * np.dtype(np.complex128).itemsize
    assert peak <= stored + 4 * chunk
    # 12 bytes per pool row and bin: complex64 spectra, float32 magnitudes
    assert spectra.shape == mags.shape == (n, nbins)
    assert (spectra.dtype, mags.dtype) == (np.complex64, np.float32)


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
