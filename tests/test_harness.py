import collections
import csv
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratfm.harness as harness
import ratfm.retrieval as retrieval
from oracles import exhaustive_best, exhaustive_scores
from pools import pool_of, row_window
from ratfm.dataset import LabeledSeries, Window, make_windows
from ratfm.errors import (
    ConfigError,
    DatasetError,
    InvalidFractionError,
    PeriodTooLongError,
    RatfmError,
    ZeroNormVectorError,
)
from ratfm.forecast import (
    Budget,
    ContextWindow,
    ExampleCopyForecaster,
    LinearForecaster,
    SeasonalNaiveForecaster,
    assemble_context,
    forecast,
    train_linear,
    zero_shot_context,
)
from ratfm.harness import (
    ExperimentConfig,
    PreparedRun,
    emit_reports,
    prepare_run,
    run_setting,
    similarity_diagnostics,
    sweep_pool_fraction,
)
from ratfm.metrics import EvalReport
from ratfm.retrieval import retrieve_best, subsample_pool
from ratfm.scoring import anomaly_scores
from ratfm.synth import DomainTemplate, SynthSpec, write_synthetic

# small desk-scale benchmark reused across tests
BUDGET = Budget(64, 16, 64)
SPEC = SynthSpec(
    domains=2,
    series_per_domain=4,
    train_len=960,
    test_len=700,
    noise_std=0.02,
    seed=13,
)


def domain_pools(data):
    """Every domain's pool of ``data``, cut as its first retrieval cuts it."""
    domains = sorted({s.domain for s in data.series})
    return {dom: harness._domain_pool(data, dom) for dom in domains}


def forbid_threads(monkeypatch):
    """Make starting any thread raise: a run must stay on the calling thread."""

    def start(thread):
        raise AssertionError(f"a run started thread {thread.name!r}")

    monkeypatch.setattr(threading.Thread, "start", start)


def subsampled(cfg, data, fraction):
    """``data`` with every pool passed through ``subsample_pool``."""
    pools = {
        dom: subsample_pool(p, fraction, cfg.seed)
        for dom, p in domain_pools(data).items()
    }
    return PreparedRun(
        config=cfg, series=data.series, periods=data.periods, pools=pools
    )


def query_window(cfg, series, start):
    """The retrieval query of the window at ``start``: the last
    ``example_len`` points of its input, and its future."""
    te, h, tt = cfg.budget
    at = start + h + tt
    return Window(series.id, at, series.values[at : at + te], series.values[at + te : at + te + h])


def retrieval_queries(cfg, data):
    """(series id, query values) of every test window's retrieval query."""
    return {
        (s.id, query_window(cfg, s, start).input.tobytes())
        for s in data.series
        for start in harness._window_starts(cfg, s, "test")
    }


def spy_scores(monkeypatch):
    """List that records (series id, query values) per query of each
    best_candidates batch."""
    calls = []
    real = retrieval.best_candidates

    def spy(queries, series_id, pool, subsets):
        calls.extend((series_id, query.tobytes()) for query in queries)
        return real(queries, series_id, pool, subsets)

    monkeypatch.setattr(retrieval, "best_candidates", spy)
    monkeypatch.setattr(harness, "best_candidates", spy)
    return calls


# JSON-like values (integers within the range JSON tools exchange exactly)
_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-(2**53), 2**53) | st.floats() | st.text(max_size=6)
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _objects(cls, values):
    """JSON objects keyed by ``cls``'s field names."""
    names = [f.name for f in dataclasses.fields(cls)]
    return st.dictionaries(st.sampled_from(names), values, max_size=6)


_TEMPLATES = st.lists(_objects(DomainTemplate, _JSON), max_size=3)
_CONFIGS = _objects(ExperimentConfig, _JSON | _objects(SynthSpec, _JSON | _TEMPLATES))


@st.composite
def _split_series(draw):
    """(length, train end, anomaly start, anomaly end, shape), mostly in bounds."""
    n = draw(st.integers(1, 160))
    train_end = draw(st.integers(-1, n + 1))
    start = draw(st.integers(train_end - 1, n))
    end = draw(st.integers(start - 1, n))
    return n, train_end, start, end, draw(st.sampled_from(["sine", "constant", "noise"]))


def config(**overrides):
    base = dict(
        synth=SPEC,
        budget=BUDGET,
        bootstrap_iterations=50,
        seed=13,
        pool_stride=8,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ConfigError):
            ExperimentConfig().validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(dataset_root="x", synth=SPEC).validate()

    def test_json_round_trip(self, tmp_path):
        cfg = config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        loaded = ExperimentConfig.from_json(path)
        assert loaded.budget == cfg.budget
        assert loaded.synth == cfg.synth
        assert loaded.seed == cfg.seed

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"dataset_root": "x", "bogus": 1}')
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(path)

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            config(budget=Budget(0, 16, 64)).validate()
        with pytest.raises(ConfigError):
            config(eval_stride=32).validate()  # stride > horizon
        with pytest.raises(ConfigError):
            config(pool_fraction=0.0).validate()
        with pytest.raises(ConfigError):
            config(fractions=(1.5,)).validate()
        with pytest.raises(ConfigError):
            config(retrieval_region="nowhere").validate()
        with pytest.raises(ConfigError):
            config(workers=0).validate()

    @pytest.mark.parametrize(
        "raw",
        [
            {"budget": [1, 2]},
            {"fractions": 5},
            {"synth": 5},
            {"dataset_root": "/tmp", "workers": "2"},
            [1, 2],
            {"synth": {"templates": [{"periods": [8.0], "phases": [0.0]}]}},
            {"dataset_root": "x", "budget": ["64", 16, 64]},
            {"dataset_root": "x", "sma": 1},
            {"dataset_root": "x", "seed": True},
            {"dataset_root": "x", "fractions": [0.5, "1"]},
            {"synth": {"anomaly_len": [30]}},
            {"synth": {"templates": [{"periods": [8.0], "amplitudes": ["1"], "phases": [0]}]}},
            {"dataset_root": ""},
            {"dataset_root": "x", "out_dir": ""},
        ],
    )
    def test_malformed_values_rejected(self, raw):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw).validate()

    @settings(max_examples=300, deadline=None)
    @given(_CONFIGS | _JSON)
    def test_fuzzed_configs_raise_only_config_errors(self, raw):
        try:
            ExperimentConfig.from_dict(raw).validate()
        except ConfigError:
            pass

    def test_snapshot_excludes_out_dir(self):
        snap = config(out_dir="/somewhere").to_dict()
        assert "out_dir" not in snap


class TestPrepareRun:
    def test_duplicate_series_ids_rejected(self, tmp_path):
        # the same file name in two subdirectories would share one id
        spec = dataclasses.replace(SPEC, domains=1, series_per_domain=2)
        name = write_synthetic(spec, tmp_path / "a")[0].name
        write_synthetic(spec, tmp_path / "b")
        with pytest.raises(DatasetError) as err:
            prepare_run(config(synth=None, dataset_root=str(tmp_path)))
        assert str(tmp_path / "a" / name) in str(err.value)
        assert str(tmp_path / "b" / name) in str(err.value)

    def test_series_too_short_names_the_series(self, tmp_path):
        write_synthetic(dataclasses.replace(SPEC, domains=1, series_per_domain=2), tmp_path)
        (tmp_path / "003_dom0_5_6_7.txt").write_text(" ".join(map(str, range(20))))
        with pytest.raises(DatasetError, match="'003_dom0_5_6_7'"):
            prepare_run(config(synth=None, dataset_root=str(tmp_path)))

    @settings(max_examples=150, deadline=None)
    @given(
        series=st.lists(_split_series(), min_size=1, max_size=3),
        budget=st.tuples(st.integers(0, 40), st.integers(1, 20), st.integers(1, 40)),
        period_source=st.sampled_from(["train", "test"]),
    )
    def test_fuzzed_series_lengths_raise_only_dataset_or_config_errors(
        self, series, budget, period_source
    ):
        rng = np.random.default_rng(0)
        with tempfile.TemporaryDirectory() as tmp:
            for i, (n, train_end, start, end, kind) in enumerate(series):
                t = np.arange(n)
                values = {
                    "sine": np.sin(2 * np.pi * t / 12),
                    "constant": np.full(n, 3.0),
                    "noise": rng.normal(size=n),
                }[kind]
                name = f"{i:03d}_dom{i % 2}_{train_end}_{start}_{end}.txt"
                (Path(tmp) / name).write_text(" ".join(map(repr, values.tolist())))
            cfg = ExperimentConfig(
                dataset_root=tmp, budget=Budget(*budget), period_source=period_source
            )
            try:
                prepare_run(cfg)
            except (DatasetError, ConfigError):
                pass


class TestLazyPools:
    def test_zero_shot_cuts_no_pool(self, monkeypatch):
        cfg = config()
        cuts = []
        real = harness.window_starts

        def spy(series, region, input_len, horizon, stride):
            cuts.append((region, input_len))
            return real(series, region, input_len, horizon, stride)

        monkeypatch.setattr(harness, "window_starts", spy)
        data = prepare_run(cfg)
        assert run_setting(cfg, "zero_shot_naive", data=data).per_series
        assert data.pools == {}
        # seasonal naive reads the test region at the windows' starts only
        assert set(cuts) == {("test", cfg.budget.total)}

    @pytest.mark.parametrize("region", ["train", "full"])
    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    def test_pools_hold_each_series_windows_in_load_order(self, region, fraction):
        cfg = config(retrieval_region=region, pool_fraction=fraction, pool_stride=None)
        data = prepare_run(cfg)
        te, h, _ = cfg.budget
        regions = ["train", "test"] if region == "full" else ["train"]
        for s in data.series:
            harness._retrieved(data, s, "test")
        assert sorted(data.pools) == ["dom0", "dom1"]
        for dom, pool in data.pools.items():
            cut = [
                w
                for s in data.series
                if s.domain == dom
                for r in regions
                for w in make_windows(s, r, te, h, max(1, h // 12))
            ]
            kept = retrieval.subsample_indices(len(cut), fraction, cfg.seed)
            assert (len(kept) < len(cut)) == (fraction < 1.0)
            rows = [row_window(pool, row) for row in range(len(pool))]
            assert [(w.series_id, w.start) for w in rows] == [
                (cut[i].series_id, cut[i].start) for i in kept
            ]
            for w, i in zip(rows, kept):
                assert w.input.tobytes() == cut[i].input.tobytes()
                assert w.future.tobytes() == cut[i].future.tobytes()

    def test_threads_touching_a_domain_first_cut_its_pool_once(self, monkeypatch):
        cfg = config()
        data = prepare_run(cfg)
        domain = data.series[0].domain
        calls = []
        real = harness.window_starts

        def slow(series, region, *args):
            calls.append((series.id, region))
            time.sleep(0.02)
            return real(series, region, *args)

        monkeypatch.setattr(harness, "window_starts", slow)
        built = []
        real_pool = harness.CandidatePool

        def counted_pool(pool_domain, *args):
            built.append(pool_domain)
            return real_pool(pool_domain, *args)

        monkeypatch.setattr(harness, "CandidatePool", counted_pool)
        n = 8
        barrier = threading.Barrier(n)
        pools = [None] * n

        def touch(i):
            barrier.wait(timeout=30)
            pools[i] = harness._domain_pool(data, domain)

        threads = [threading.Thread(target=touch, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert pools[0] is not None and all(p is pools[0] for p in pools)
        assert data.pools == {domain: pools[0]}
        ids = [s.id for s in data.series if s.domain == domain]
        assert collections.Counter(calls) == {(sid, "train"): 1 for sid in ids}
        assert built == [domain]

    def test_a_pool_retains_little_per_row_beyond_its_spectra(self):
        # one domain of the benchmark's consumers_default workload: 900 rows
        # of 512 points, 8 apart.  Window objects, their list and a per-row
        # series-id string array retained 460 B a row; values held once
        # and int starts, 104.  Float32 magnitudes took 4 B per bin more
        cfg = config(
            synth=SynthSpec(domains=1, series_per_domain=4, seed=1),
            budget=Budget(512, 96, 512),
            pool_stride=8,
        )
        data = prepare_run(cfg)
        tracemalloc.start()
        try:
            pool = harness._domain_pool(data, "dom0")
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(pool) == 900
        nbins = retrieval._fft_size(512) // 2 + 1
        assert retained / len(pool) <= 8 * nbins + 128

    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    def test_pools_record_their_fraction_and_seed(self, fraction):
        # perfbench/tracer.py keys each retrieval by its pool's fraction and seed
        cfg = config(pool_fraction=fraction)
        for pool in domain_pools(prepare_run(cfg)).values():
            assert (pool.fraction, pool.seed) == (fraction, cfg.seed)


class TestSharedRetrieval:
    """Every consumer of a prepared run scores a test query once."""

    def test_copy_linear_diagnostics_score_each_test_window_once(self, monkeypatch):
        # workers is accepted and changes nothing
        cfg = config(workers=4)
        data = prepare_run(cfg)
        calls = spy_scores(monkeypatch)
        run_setting(cfg, "ratfm_copy", data=data)
        run_setting(cfg, "ratfm_linear", data=data)
        similarity_diagnostics(cfg, data=data)
        counts = collections.Counter(calls)
        assert retrieval_queries(cfg, data) <= set(counts)
        assert max(counts.values()) == 1  # training queries included

    def test_sweep_scores_each_test_window_once(self, monkeypatch):
        cfg = config(workers=2)
        queries = retrieval_queries(cfg, prepare_run(cfg))
        calls = spy_scores(monkeypatch)
        sweep_pool_fraction(cfg, [1.0, 0.75, 0.5, 0.25])
        assert collections.Counter(calls) == dict.fromkeys(queries, 1)

    def test_examples_are_retrieve_best_winners(self):
        cfg = config(workers=4)
        te, h, _ = cfg.budget
        data = prepare_run(cfg)
        run_setting(cfg, "ratfm_linear", data=data)
        by_id = {s.id: s for s in data.series}
        n_examples = 0
        for s in data.series:
            for region in ("test", "train"):
                (examples,) = harness._retrieved(data, s, region)
                starts = harness._window_starts(cfg, s, region)
                for start, example in zip(starts, examples):
                    query = query_window(cfg, s, start)
                    try:
                        best, sim = retrieve_best(query, data.pools[s.domain])
                    except RatfmError as exc:
                        assert example == str(exc)
                        continue
                    assert example == sim.candidate_index
                    # the returned window is its series' values at its start
                    values = by_id[best.series_id].values[best.start :]
                    assert best.input.tobytes() == values[:te].tobytes()
                    assert best.future.tobytes() == values[te : te + h].tobytes()
                    n_examples += 1
        assert n_examples > 0

    def test_fractions_are_cached_one_by_one(self, monkeypatch):
        cfg = config()
        data = prepare_run(cfg)
        s = data.series[0]
        calls = spy_scores(monkeypatch)
        both = harness._retrieved(data, s, "test", (1.0, 0.5))
        n_windows = len(harness._window_starts(cfg, s, "test"))
        assert len(calls) == n_windows == len(both[0]) > 0
        calls.clear()
        assert harness._retrieved(data, s, "test", (0.5,))[0] is both[1]
        assert harness._retrieved(data, s, "test", (1.0,))[0] is both[0]
        assert calls == []
        harness._retrieved(data, s, "test", (0.25,))
        assert collections.Counter(calls) == dict.fromkeys(calls, 1)
        assert len(calls) == n_windows

    def test_sweep_on_a_prepared_run_reuses_its_examples(self, monkeypatch):
        cfg = config(bootstrap_iterations=0)
        data = prepare_run(cfg)
        copy = run_setting(cfg, "ratfm_copy", data=data)
        prepares = []
        monkeypatch.setattr(harness, "prepare_run", lambda c: prepares.append(c))
        calls = spy_scores(monkeypatch)
        sweep = sweep_pool_fraction(cfg, [1.0], data=data)
        assert calls == [] and prepares == []
        assert sweep.reports[1.0].to_json() == copy.to_json()
        sweep_pool_fraction(cfg, [1.0, 0.5], data=data)
        queries = retrieval_queries(cfg, data)
        assert collections.Counter(calls) == dict.fromkeys(queries, 1)
        assert prepares == []

    def test_runs_build_no_window_objects(self, monkeypatch):
        # pool rows, test windows and contexts are starts into arrays
        cfg = config(workers=4)
        data = prepare_run(cfg)

        def forbidden(self, *args, **kwargs):
            raise AssertionError(f"a run built a {type(self).__name__}")

        monkeypatch.setattr(Window, "__init__", forbidden)
        monkeypatch.setattr(ContextWindow, "__init__", forbidden)
        run_setting(cfg, "ratfm_copy", data=data)
        run_setting(cfg, "ratfm_linear", data=data)
        similarity_diagnostics(cfg, data=data)
        sweep_pool_fraction(cfg, [1.0, 0.5])  # prepares its own run
        assert data.pools

    @pytest.mark.parametrize(
        "field, value",
        [
            ("eval_stride", 8),
            ("budget", Budget(32, 16, 32)),
            ("pool_stride", 16),
            ("seed", 14),
            ("synth", dataclasses.replace(SPEC, series_per_domain=3)),
        ],
    )
    def test_a_run_prepared_from_another_config_is_a_config_error(self, field, value):
        data = prepare_run(config())
        other = config(**{field: value})
        calls = [
            lambda: run_setting(other, "ratfm_copy", data=data),
            lambda: similarity_diagnostics(other, data=data),
            lambda: sweep_pool_fraction(other, [1.0, 0.5], data=data),
        ]
        for call in calls:
            with pytest.raises(ConfigError, match=rf"differs in \['{field}'\]$"):
                call()

    def test_a_run_serves_a_config_that_differs_only_in_out_dir(self):
        data = prepare_run(config())
        run_setting(config(), "ratfm_copy", data=data)
        elsewhere = config(out_dir="elsewhere")
        shared = run_setting(elsewhere, "ratfm_copy", data=data).to_json()
        assert shared == run_setting(elsewhere, "ratfm_copy").to_json()


class TestPrunedRetrieval:
    def test_winners_match_the_exhaustive_oracle_for_every_fraction(self):
        # every pool entry twice (exact ties across blocks), plus copies of
        # test queries planted under other series
        cfg = config(workers=4)
        data = prepare_run(cfg)
        pools, entries = {}, {}
        for dom, pool in domain_pools(data).items():
            rows = [row_window(pool, row) for row in range(len(pool))]
            entries[dom] = rows + rows
            ids = [s.id for s in data.series if s.domain == dom]
            for s in data.series:
                if s.domain == dom:
                    start = harness._window_starts(cfg, s, "test")[1]
                    query = query_window(cfg, s, start)
                    other = next(sid for sid in ids if sid != s.id)
                    planted = dataclasses.replace(query, series_id=other)
                    entries[dom].insert(len(entries[dom]) // 3, planted)
            assert len(entries[dom]) > 4 * retrieval._CHUNK_ROWS
            pools[dom] = pool_of(entries[dom], domain=dom)
        data = PreparedRun(
            config=cfg, series=data.series, periods=data.periods, pools=pools
        )
        fractions = (1.0, 0.5, 0.1)
        sweep_pool_fraction(cfg, list(fractions), data=data)
        n_ties = 0
        for s in data.series:
            pool = pools[s.domain]
            found = harness._retrieved(data, s, "test", fractions)
            for i, start in enumerate(harness._window_starts(cfg, s, "test")):
                scores = exhaustive_scores(query_window(cfg, s, start), entries[s.domain])
                for f, examples in zip(fractions, found):
                    kept = retrieval.subsample_indices(len(pool), f, cfg.seed)
                    idx = exhaustive_best(scores, kept)
                    assert examples[i] == idx
                    n_ties += int(np.sum(scores[kept] == scores[idx]) > 1)
        assert n_ties > 0

    def test_bound_spares_most_usable_rows(self, monkeypatch):
        # periodic same-domain series: a query's best score is high, so few
        # bounds reach it (about 7% of usable rows are screened here)
        cfg = config()
        data = prepare_run(cfg)
        correlated, usable = [0], [0]
        real_screen, real_best = retrieval._screen_scores, retrieval.best_candidates

        def screen_spy(*args):
            correlated[0] += len(args[-1])
            return real_screen(*args)

        def best_spy(queries, series_id, pool, subsets):
            own = pool.series_ids.index(series_id)
            usable[0] += len(queries) * int(np.sum((pool.norms > 0) & (pool.series != own)))
            return real_best(queries, series_id, pool, subsets)

        monkeypatch.setattr(retrieval, "_screen_scores", screen_spy)
        monkeypatch.setattr(harness, "best_candidates", best_spy)
        run_setting(cfg, "ratfm_linear", data=data)
        assert 0 < correlated[0] < usable[0] / 2


@st.composite
def _retrieval_cases(draw):
    """A one-domain run of 2-3 drawn series whose drawn region holds 3-10
    windows each, the first series' middle query there all zero; the
    region, fractions to retrieve, and queries per batch."""
    budget = Budget(draw(st.integers(2, 10)), draw(st.integers(2, 4)), draw(st.integers(1, 6)))
    te, h, tt = budget
    stride = draw(st.integers(1, h))
    cfg = ExperimentConfig(
        synth=_DIFF_SPEC,  # unread: the run below is built from drawn series
        budget=budget,
        eval_stride=stride,
        pool_stride=draw(st.integers(1, 4)),
        pool_fraction=draw(st.sampled_from([1.0, 0.5])),
        retrieval_region=draw(st.sampled_from(["train", "full"])),
        seed=draw(st.integers(0, 99)),
    )
    # train and test regions of one span each
    span = budget.total + h + stride * (draw(st.integers(3, 10)) - 1)
    series = []
    for k in range(draw(st.integers(2, 3))):
        values = np.random.default_rng(draw(st.integers(0, 2**31 - 1))).normal(size=2 * span)
        if draw(st.booleans()):  # periodic, so that many rows score near the best
            period = draw(st.integers(3, 12))
            values = np.sin(2 * np.pi * np.arange(2 * span) / period) + 1e-3 * values
        values *= draw(st.sampled_from([1e-3, 1.0, 1e3]))
        series.append(LabeledSeries(f"s{k}", "d", values, span, ()))
    region = draw(st.sampled_from(["train", "test"]))
    starts = harness._window_starts(cfg, series[0], region)
    at = starts[len(starts) // 2] + h + tt
    values = series[0].values.copy()
    values[at : at + te] = 0.0
    series[0] = dataclasses.replace(series[0], values=values)
    data = PreparedRun(config=cfg, series=series, periods={}, pools={})
    fractions = draw(
        st.lists(st.sampled_from([1.0, 0.5, 0.1]), min_size=1, max_size=3, unique=True)
    )
    return data, region, tuple(fractions), draw(st.integers(1, 2))


@settings(max_examples=60, deadline=None)
@given(_retrieval_cases())
def test_retrieved_matches_the_exhaustive_oracle_across_batches(case):
    # batches of one or two queries, so a series' windows span several
    data, region, fractions, per_batch = case
    cfg, s = data.config, data.series[0]
    pool = harness._domain_pool(data, s.domain)
    entries = [row_window(pool, row) for row in range(len(pool))]
    cells = per_batch * max(len(pool), retrieval._fft_size(cfg.budget.example_len))
    starts = harness._window_starts(cfg, s, region)
    assert len(starts) > per_batch
    with mock.patch.object(retrieval, "_BATCH_CELLS", cells):
        found = harness._retrieved(data, s, region, fractions)
    subsets = [retrieval.subsample_indices(len(pool), f, cfg.seed) for f in fractions]
    n_zero = 0
    for i, start in enumerate(starts):
        query = query_window(cfg, s, start)
        if not np.any(query.input):
            n_zero += 1
            (error,) = retrieval.best_candidates([query.input], s.id, pool, subsets)
            assert isinstance(error, ZeroNormVectorError)
            assert [examples[i] for examples in found] == [str(error)] * len(fractions)
            continue
        scores = exhaustive_scores(query, entries)
        for kept, examples in zip(subsets, found):
            idx = exhaustive_best(scores, kept)
            if idx is None:
                assert examples[i] == str(retrieval.no_candidate(s.id, pool))
            elif np.sum(scores[kept] >= scores[idx] - 1e-9) > 1:
                # a near-tie: any row within 1e-9 of the best may win
                assert examples[i] in kept and scores[examples[i]] >= scores[idx] - 1e-9
            else:
                assert examples[i] == idx
    assert n_zero == 1


def test_a_series_retrieves_in_batches_of_bounded_memory(monkeypatch):
    # a pool of 4 166 rows of 16 points: a batch holds 62 queries, and a
    # series of four batches peaks as high as a series of one
    budget = Budget(16, 2, 2)
    te, h, tt = budget
    rng = np.random.default_rng(3)

    def series(sid, train_end, windows):
        n = train_end + budget.total + h * windows
        return LabeledSeries(sid, "d", rng.normal(size=n), train_end, ())

    cfg = config(budget=budget, pool_stride=1)
    sources = [series("a", 2100, 1), series("b", 2100, 1)]
    data = PreparedRun(config=cfg, series=sources, periods={}, pools={})
    per_batch = retrieval._BATCH_CELLS // len(harness._domain_pool(data, "d"))
    assert len(data.pools["d"]) == 2 * (2100 - te - h + 1) and per_batch == 62
    # query series whose train regions are too short for a pool row, so
    # that the pool stays the same
    queries = {"one": series("one", 10, per_batch), "four": series("four", 10, 4 * per_batch)}
    data = PreparedRun(config=cfg, series=sources + list(queries.values()), periods={}, pools={})
    assert len(harness._domain_pool(data, "d")) == len(data.pools["d"])
    batches = []
    real = retrieval._score_bounds

    def spy(fqs, *args):
        batches.append(len(fqs))
        return real(fqs, *args)

    monkeypatch.setattr(retrieval, "_score_bounds", spy)
    harness._retrieved(data, sources[0], "test")  # FFT plans and first calls
    peaks = {}
    for name, s in queries.items():
        batches.clear()
        tracemalloc.start()
        try:
            found = harness._retrieved(data, s, "test")
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(found[0]) == per_batch * len(batches)
        assert batches == [per_batch] * len(batches)
    assert peaks["four"] <= 1.1 * peaks["one"]


def test_a_series_queries_are_not_gathered(monkeypatch):
    # 1 000 queries of 1 024 points: gathered, they would take 8 MB, and their
    # index array as much again (a 16.4 MB peak); as a strided view of the
    # series they take none, and batches of 32 queries peak near 1.8 MB
    monkeypatch.setattr(retrieval, "_BATCH_CELLS", 1 << 16)
    budget = Budget(1024, 4, 4)
    h = budget.horizon
    rng = np.random.default_rng(5)
    source = LabeledSeries("a", "d", rng.normal(size=1300), 1128, ())
    long = LabeledSeries("q", "d", rng.normal(size=10 + budget.total + h + 999), 10, ())
    cfg = config(budget=budget, pool_stride=1, eval_stride=1)
    data = PreparedRun(config=cfg, series=[source, long], periods={}, pools={})
    harness._retrieved(data, source, "test")  # FFT plans and first calls
    tracemalloc.start()
    try:
        (examples,) = harness._retrieved(data, long, "test")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    queries_bytes = len(examples) * budget.example_len * 8
    assert len(examples) == 1000 and queries_bytes > 8e6
    assert peak < queries_bytes / 2


def test_a_series_shorter_than_a_query_retrieves_nothing():
    rng = np.random.default_rng(4)
    source = LabeledSeries("a", "d", rng.normal(size=300), 200, ())
    short = LabeledSeries("s", "d", rng.normal(size=BUDGET.example_len - 24), 20, ())
    data = PreparedRun(config=config(), series=[source, short], periods={}, pools={})
    assert harness._retrieved(data, short, "test") == [[]]


class TestRunSetting:
    def test_unknown_setting(self):
        with pytest.raises(ConfigError):
            run_setting(config(), "nope")

    def test_duplicate_example_copy_scores_zero_outside_anomaly(self):
        # noise-free shared templates: every anomaly-free target window has
        # an exact twin, so raw deviations vanish away from the anomaly;
        # windows whose input still contains the anomaly may mis-retrieve,
        # which is why the clean zone resumes one input length after it
        cfg = config(synth=dataclasses.replace(SPEC, noise_std=0.0), sma=False)
        report = run_setting(cfg, "ratfm_copy")
        assert report.per_series and not report.skipped
        input_len = cfg.budget.total
        for sid, dump in report.score_dumps.items():
            raw = dump.raw
            # locate the anomaly span from the id encoding
            parts = sid.split("_")
            a_start, a_end = int(parts[-2]), int(parts[-1])
            t0 = dump.t_absolute_start
            idx = np.arange(t0, t0 + len(raw))
            clean = (idx < a_start) | (idx > a_end + input_len)
            in_span = (idx >= a_start) & (idx <= a_end)
            assert np.allclose(raw[clean], 0.0, atol=1e-9)
            assert raw[in_span].max() > 0.1
            # buffer mass and post-anomaly retrieval misses keep the
            # soft-label area below an exact 1.0 even for clean scores
            assert report.per_series[sid]["vus_roc"] > 0.8

    def test_copy_beats_naive_on_frequency_change(self):
        cfg = config(
            synth=dataclasses.replace(
                SPEC, noise_std=0.0, anomaly_kinds=("frequency_change",)
            )
        )
        copy = run_setting(cfg, "ratfm_copy")
        naive = run_setting(cfg, "zero_shot_naive")
        assert copy.overall["vus_roc"] > naive.overall["vus_roc"]

    def test_empty_dataset_yields_empty_report(self, tmp_path):
        cfg = ExperimentConfig(dataset_root=str(tmp_path), budget=BUDGET)
        with pytest.warns(UserWarning):
            report = run_setting(cfg, "ratfm_copy")
        assert report.overall == {"n_series": 0}
        assert report.per_series == {}

    def test_deterministic_reports(self):
        cfg = config()
        a = run_setting(cfg, "ratfm_copy").to_json()
        b = run_setting(cfg, "ratfm_copy").to_json()
        assert a == b

    def test_workers_do_not_change_results(self, monkeypatch):
        cfg = config()
        seq = run_setting(cfg, "zero_shot_naive").to_json()
        forbid_threads(monkeypatch)
        par = run_setting(config(workers=4), "zero_shot_naive").to_json()
        assert seq == par

    @pytest.mark.parametrize("setting", ["ratfm_copy", "ratfm_linear"])
    def test_workers_do_not_change_retrieval_results(self, setting, monkeypatch):
        # ratfm_linear also pins the order of the training contexts
        seq = run_setting(config(), setting).to_json()
        forbid_threads(monkeypatch)
        for workers in (2, 4):
            assert run_setting(config(workers=workers), setting).to_json() == seq

    @pytest.mark.parametrize("setting", ["zero_shot_naive", "ratfm_linear"])
    def test_workers_leave_warning_filters_alone(self, setting):
        # warning filters are process-wide: a run that enters and leaves
        # catch_warnings can restore the "ignore" of a run on another thread
        before = list(warnings.filters)
        for _ in range(3):
            run_setting(config(workers=4), setting)
            assert warnings.filters == before

    def test_concurrent_runs_leave_warning_filters_alone(self, monkeypatch):
        # run A is inside its evaluation when run B enters its own, and
        # returns before B does: had each run saved the filters on entry and
        # restored them on exit, B would restore the "ignore" A had set
        cfg = config(bootstrap_iterations=0)
        data = prepare_run(cfg)
        expected = run_setting(cfg, "zero_shot_naive", data=data).to_json()
        b_inside, a_returned = threading.Event(), threading.Event()
        real = harness.anomaly_scores

        def spy(forecast, truth):
            if threading.current_thread().name == "A":
                if not b_inside.wait(30):
                    raise RuntimeError("run B never reached its evaluation")
            else:
                b_inside.set()
                if not a_returned.wait(30):
                    raise RuntimeError("run A never returned")
            return real(forecast, truth)

        monkeypatch.setattr(harness, "anomaly_scores", spy)
        before = list(warnings.filters)
        reports, errors = {}, []

        def run(name):
            try:
                reports[name] = run_setting(cfg, "zero_shot_naive", data=data).to_json()
            except Exception as exc:
                errors.append(exc)
            finally:
                if name == "A":
                    a_returned.set()

        threads = [threading.Thread(target=run, args=(n,), name=n) for n in "AB"]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
            assert not t.is_alive()
        assert not errors
        assert reports == {"A": expected, "B": expected}
        assert warnings.filters == before

    def test_pipeline_order_smoothing_before_threshold_and_metrics(self, monkeypatch):
        calls = []

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(harness, "sma_smooth", spy("sma", harness.sma_smooth))
        monkeypatch.setattr(
            harness, "threshold_labels", spy("thr", harness.threshold_labels)
        )
        monkeypatch.setattr(
            harness, "pointwise_prf", spy("prf", harness.pointwise_prf)
        )
        monkeypatch.setattr(harness, "vus", spy("vus", harness.vus))
        report = run_setting(config(bootstrap_iterations=0), "ratfm_copy")
        n = len(report.per_series)
        assert calls == ["sma", "thr", "prf", "vus"] * n

    def test_training_metadata_recorded(self):
        report = run_setting(config(), "ratfm_linear")
        assert report.training is not None
        assert report.training["n_contexts"] > 0
        assert report.training["final_mse"] >= 0.0

    def test_full_retrieval_region_grows_pools(self):
        cfg, full_cfg = config(), config(retrieval_region="full")
        train_only = domain_pools(prepare_run(cfg))
        full = domain_pools(prepare_run(full_cfg))
        assert set(train_only) == set(full) != set()
        for domain in train_only:
            assert len(full[domain]) > len(train_only[domain])

    def test_period_source_test_region(self):
        cfg = config(period_source="test")
        data = prepare_run(cfg)
        assert all(p >= 2 for p in data.periods.values())
        report = run_setting(cfg, "zero_shot_naive", data=data)
        assert report.per_series

    def test_vus_width_override(self):
        base = run_setting(config(bootstrap_iterations=0), "ratfm_copy")
        wide = run_setting(
            config(bootstrap_iterations=0, vus_w_max=0), "ratfm_copy"
        )
        sid = next(iter(base.per_series))
        assert base.per_series[sid]["vus_roc"] != wide.per_series[sid]["vus_roc"]

    def test_overlapping_eval_stride_averages_scores(self):
        cfg = config(bootstrap_iterations=0, eval_stride=8)
        report = run_setting(cfg, "ratfm_copy")
        assert report.per_series
        for rec in report.per_series.values():
            assert rec["n_windows"] > 0

    def test_skips_series_with_unusable_budget(self):
        # a budget larger than the test region skips every series but
        # does not raise
        big = config(budget=Budget(512, 96, 512), pool_stride=96)
        with pytest.warns(UserWarning):
            report = run_setting(big, "zero_shot_naive")
        assert report.overall["n_series"] == 0
        assert len(report.skipped) == 8


def per_window_raw(series, budget, forecaster, windows, examples):
    """Raw scores of ``series`` forecast, scored and summed one window at a time."""
    h, total = budget.horizon, budget.total
    acc = np.zeros(len(series.values) - series.train_end)
    cnt = np.zeros(len(acc), dtype=np.int64)
    for i, w in enumerate(windows):
        if examples is None:
            ctx = zero_shot_context(w, budget)
        else:
            ctx = assemble_context(w, examples[i], budget)
        local = w.start + total - series.train_end
        acc[local : local + h] += anomaly_scores(forecast(forecaster, ctx), w.future)
        cnt[local : local + h] += 1
    scored = np.flatnonzero(cnt)
    return acc[scored[0] : scored[-1] + 1] / cnt[scored[0] : scored[-1] + 1]


class TestSeriesAtATime:
    """``_eval_series`` forecasts and scores a block of windows at once."""

    ROWS = 5  # windows per block, so every series spans many blocks

    def case(self, monkeypatch, stride):
        cfg = config(eval_stride=stride, bootstrap_iterations=0)
        monkeypatch.setattr(harness, "_EVAL_BLOCK_POINTS", self.ROWS * BUDGET.horizon)
        data = prepare_run(cfg)
        series = data.series[0]
        windows = make_windows(series, "test", BUDGET.total, BUDGET.horizon, stride)
        assert len(windows) > 2 * self.ROWS
        # any rows of the domain pool serve as examples; retrieval is not under test
        pool = harness._domain_pool(data, series.domain)
        picks = np.random.default_rng(stride).integers(0, len(pool), len(windows))
        return cfg, series, data.periods[series.id], windows, pool, picks.tolist()

    @pytest.mark.parametrize("stride", [1, BUDGET.horizon - 1, BUDGET.horizon])
    @pytest.mark.parametrize("setting", harness.SETTINGS)
    def test_raw_scores_equal_a_per_window_loop(self, monkeypatch, setting, stride):
        # overlapping windows (a stride below the horizon) add several terms
        # to one point, which must be summed in window order
        cfg, series, period, windows, pool, rows = self.case(monkeypatch, stride)
        examples = [row_window(pool, row) for row in rows]
        if setting == "zero_shot_naive":
            pool, rows, examples = None, None, None
            forecaster = SeasonalNaiveForecaster(period)
        elif setting == "ratfm_copy":
            forecaster = ExampleCopyForecaster()
        else:
            weights = np.random.default_rng(5).standard_normal((BUDGET.horizon, BUDGET.total + 1))
            forecaster = LinearForecaster(weights / BUDGET.total, BUDGET)
        _, dump = harness._eval_series(series, cfg, setting, period, pool, rows, forecaster)
        expected = per_window_raw(series, BUDGET, forecaster, windows, examples)
        assert dump.raw.tobytes() == expected.tobytes()

    def test_first_failed_retrieval_is_raised(self, monkeypatch):
        cfg, series, period, _, pool, examples = self.case(monkeypatch, BUDGET.horizon)
        examples[2 * self.ROWS + 1] = "second"
        examples[self.ROWS + 3] = "first"
        with pytest.raises(RatfmError, match="^first$"):
            harness._eval_series(series, cfg, "ratfm_copy", period, pool, examples, None)

    def test_non_finite_forecast_before_a_failed_retrieval_is_raised(self, monkeypatch):
        cfg, series, period, _, pool, examples = self.case(monkeypatch, BUDGET.horizon)
        examples[self.ROWS + 3] = "failed"
        weights = np.zeros((BUDGET.horizon, BUDGET.total + 1))
        weights[0, -1] = np.nan
        trained = LinearForecaster(weights, BUDGET)
        with pytest.raises(ValueError, match="linear produced non-finite values"):
            harness._eval_series(
                series, cfg, "ratfm_linear", period, pool, examples, trained
            )

    def test_period_longer_than_the_target_input_is_raised(self, monkeypatch):
        cfg, series, *_ = self.case(monkeypatch, BUDGET.horizon)
        with pytest.raises(PeriodTooLongError, match="exceeds target input length"):
            harness._eval_series(
                series, cfg, "zero_shot_naive", BUDGET.total + 1, None, None, None
            )


# a small dataset and budget the differential test runs many configs on
_DIFF_BUDGET = Budget(16, 8, 16)
_DIFF_SPEC = SynthSpec(
    domains=2, series_per_domain=2, train_len=200, test_len=160, noise_std=0.05,
    anomaly_len=(8, 16), seed=7,
)


def loop_rows(cfg, data, domain):
    """A domain's pool rows as windows, cut and subsampled to ``pool_fraction``."""
    te, h, _ = cfg.budget
    stride = cfg.pool_stride or max(1, h // 12)
    regions = ["train"] if cfg.retrieval_region == "train" else ["train", "test"]
    rows = [
        w
        for s in data.series
        if s.domain == domain
        for r in regions
        for w in make_windows(s, r, te, h, stride)
    ]
    return [rows[i] for i in retrieval.subsample_indices(len(rows), cfg.pool_fraction, cfg.seed)]


def loop_examples(cfg, series, region, rows, fraction):
    """Per window of ``series``' region: the window, its example among the
    rows ``subsample_indices`` keeps of ``rows`` (None if none is usable),
    and whether that example ties its runner-up within 1e-9."""
    te, h, tt = cfg.budget
    kept = retrieval.subsample_indices(len(rows), fraction, cfg.seed)
    stride = cfg.eval_stride or h
    out = []
    for w in make_windows(series, region, te + h + tt, h, stride):
        query = dataclasses.replace(w, start=w.start + h + tt, input=w.input[h + tt :])
        scores = exhaustive_scores(query, rows)
        idx = exhaustive_best(scores, kept)
        tie = idx is not None and np.sum(scores[kept] >= scores[idx] - 1e-9) > 1
        out.append((w, None if idx is None else rows[idx], tie))
    return out


def loop_forecaster(cfg, data, rows):
    """The linear forecaster fit on the loop's retrieval-augmented training
    contexts, and whether any training example tied."""
    contexts, tied = [], False
    for s in data.series:
        for w, example, tie in loop_examples(cfg, s, "train", rows[s.domain], 1.0):
            tied |= tie
            if example is not None:
                contexts.append(assemble_context(w, example, cfg.budget))
    X = np.array([c.flat() for c in contexts])
    Y = np.array([c.target_future for c in contexts])
    return train_linear(X, Y, cfg.ridge_reg, cfg.budget)[0], tied


@settings(max_examples=12, deadline=None)
@given(
    eval_stride=st.integers(1, _DIFF_BUDGET.horizon),
    pool_stride=st.integers(1, 12),
    pool_fraction=st.sampled_from([1.0, 0.6, 0.15]),
    sweep_fraction=st.sampled_from([0.5, 0.05]),
    region=st.sampled_from(["train", "full"]),
)
def test_raw_scores_equal_a_per_window_retrieve_and_forecast_loop(
    eval_stride, pool_stride, pool_fraction, sweep_fraction, region
):
    # the retrieval and forecast slice, end to end: run_setting and a
    # sweep's subsampled pools against exhaustive retrieval, assemble_context
    # and forecast, one window at a time
    cfg = ExperimentConfig(
        synth=_DIFF_SPEC,
        budget=_DIFF_BUDGET,
        bootstrap_iterations=0,
        seed=3,
        eval_stride=eval_stride,
        pool_stride=pool_stride,
        pool_fraction=pool_fraction,
        retrieval_region=region,
    )
    data = prepare_run(cfg)
    rows = {s.domain: loop_rows(cfg, data, s.domain) for s in data.series}
    linear, train_tied = loop_forecaster(cfg, data, rows)
    for setting in ("ratfm_copy", "ratfm_linear"):
        reports = {
            1.0: run_setting(cfg, setting, data=data),
            sweep_fraction: sweep_pool_fraction(
                cfg, [sweep_fraction], setting, data=data
            ).reports[sweep_fraction],
        }
        forecaster = ExampleCopyForecaster() if setting == "ratfm_copy" else linear
        for fraction, report in reports.items():
            for s in data.series:
                found = loop_examples(cfg, s, "test", rows[s.domain], fraction)
                windows, examples, ties = zip(*found)
                if None in examples:
                    assert s.id in report.skipped
                    continue
                raw = report.score_dumps[s.id].raw
                expected = per_window_raw(s, cfg.budget, forecaster, windows, examples)
                if setting == "ratfm_linear" and train_tied:
                    assert np.allclose(raw, expected, rtol=1e-6, atol=1e-6)
                    continue
                # points a tied window touches may take either example
                touched = np.zeros(len(raw), dtype=bool)
                first = windows[0].start + cfg.budget.total
                for w, tie in zip(windows, ties):
                    if tie:
                        local = w.start + cfg.budget.total - first
                        touched[local : local + cfg.budget.horizon] = True
                assert raw.shape == expected.shape
                assert raw[~touched].tobytes() == expected[~touched].tobytes()


class TestSweep:
    def test_identity_fraction_matches_plain_run(self):
        cfg = config(bootstrap_iterations=0)
        sweep = sweep_pool_fraction(cfg, [1.0, 0.5], setting="ratfm_copy")
        plain = run_setting(cfg, "ratfm_copy")
        assert sweep.reports[1.0].to_json() == plain.to_json()

    def test_row_shape_and_csv(self, tmp_path):
        cfg = config(bootstrap_iterations=0)
        sweep = sweep_pool_fraction(cfg, [1.0, 0.75, 0.5, 0.25], setting="ratfm_copy")
        assert len(sweep.rows) == 4 * 2  # fractions x domains
        path = tmp_path / "sweep.csv"
        sweep.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "fraction,domain,vus_roc,n_series"
        assert len(lines) == 9

    def test_invalid_fraction(self):
        with pytest.raises(InvalidFractionError):
            sweep_pool_fraction(config(), [0.0])

    @pytest.mark.parametrize("setting", ["ratfm_copy", "ratfm_linear"])
    def test_matches_run_setting_on_subsampled_pools(self, setting):
        cfg = config()
        fractions = [0.75, 0.5, 0.25]
        sweep = sweep_pool_fraction(cfg, fractions, setting=setting)
        data = prepare_run(cfg)
        trained = None
        if setting == "ratfm_linear":
            # the sweep's forecaster is trained on the full pools
            trained, _ = harness._train_forecaster(data)
        for f in fractions:
            report = EvalReport(setting=setting, config=cfg.to_dict())
            harness._evaluate(report, subsampled(cfg, data, f), trained)
            assert sweep.reports[f].to_json() == report.to_json()
        assert len({sweep.reports[f].to_json() for f in fractions}) == len(fractions)

    def test_one_series_domain_is_skipped(self, tmp_path):
        spec = dataclasses.replace(SPEC, series_per_domain=2)
        paths = write_synthetic(spec, tmp_path)
        lone, gone = [p for p in paths if "_dom1_" in p.name]
        gone.unlink()
        cfg = config(synth=None, dataset_root=str(tmp_path), bootstrap_iterations=0)
        message = (
            f"pool for domain 'dom1' has no candidate outside series {lone.stem!r}"
        )
        sweep = sweep_pool_fraction(cfg, [1.0, 0.5])
        for report in (*sweep.reports.values(), run_setting(cfg, "ratfm_copy")):
            assert report.skipped == {lone.stem: message}
            assert len(report.per_series) == 2
        data = prepare_run(cfg)
        diag = similarity_diagnostics(cfg, data=data)
        assert set(diag.per_domain) == {"dom0"}
        dom0 = [s for s in data.series if s.domain == "dom0"]
        assert diag.overall["n_windows"] == sum(
            len(harness._window_starts(cfg, s, "test")) for s in dom0
        )

    def test_fraction_without_a_usable_row(self):
        cfg = config(bootstrap_iterations=0)
        data = prepare_run(cfg)
        fraction = 0.001  # keeps one entry per domain
        sub = subsampled(cfg, data, fraction)
        assert all(len(pool) == 1 for pool in sub.pools.values())
        owners = {pool.series_ids[pool.series[0]]: dom for dom, pool in sub.pools.items()}
        sweep = sweep_pool_fraction(cfg, [1.0, fraction])
        report = sweep.reports[fraction]
        assert report.skipped == {
            sid: f"pool for domain {dom!r} has no candidate outside series {sid!r}"
            for sid, dom in owners.items()
        }
        assert report.to_json() == run_setting(cfg, "ratfm_copy", data=sub).to_json()
        assert sweep.reports[1.0].skipped == {}
        n_windows = {s.id: len(harness._window_starts(cfg, s, "test")) for s in data.series}
        full = similarity_diagnostics(cfg, data=data).overall["n_windows"]
        assert full == sum(n_windows.values())
        kept = similarity_diagnostics(cfg, data=sub).overall["n_windows"]
        assert kept == full - sum(n_windows[sid] for sid in owners)

    def test_workers_do_not_change_results(self, monkeypatch):
        seq = sweep_pool_fraction(config(), [1.0, 0.5])
        forbid_threads(monkeypatch)
        par = sweep_pool_fraction(config(workers=4), [1.0, 0.5])
        assert seq.rows == par.rows
        for f in (1.0, 0.5):
            assert seq.reports[f].to_json() == par.reports[f].to_json()


def test_csvs_quote_a_domain_holding_a_comma_and_a_quote(tmp_path):
    data_dir = tmp_path / "data"
    for path in write_synthetic(dataclasses.replace(SPEC, domains=1), data_dir):
        path.rename(path.with_name(path.name.replace("_dom0_", '_d,"x_')))
    cfg = config(synth=None, dataset_root=str(data_dir), bootstrap_iterations=0)
    data = prepare_run(cfg)
    sweep = sweep_pool_fraction(cfg, [1.0, 0.5], data=data)
    diag = similarity_diagnostics(cfg, data=data)
    sweep.write_csv(tmp_path / "sweep.csv")
    diag.write_csv(tmp_path / "diagnostics.csv")
    with open(tmp_path / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[1:] == [[repr(f), 'd,"x', repr(v), str(n)] for f, _, v, n in sweep.rows]
    with open(tmp_path / "diagnostics.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rec = diag.per_domain['d,"x']
    assert rows[1:] == [['d,"x', *(repr(rec[k]) for k in rows[0][1:4]), str(rec["n_windows"])]]


class TestDiagnostics:
    def test_best_segment_at_least_aligned(self):
        diag = similarity_diagnostics(config())
        for rec in diag.per_domain.values():
            assert rec["best_segment"] >= rec["aligned_segment"] - 1e-12
            for key in ("example_future", "aligned_segment", "best_segment"):
                assert -1.0 <= rec[key] <= 1.0

    def test_aligned_offset_recovers_example_similarity(self):
        # single sinusoid whose period divides the alignment offset
        # (horizon + target budget = 80 = 2 * 40), so the aligned segment
        # is in phase with the future and scores like the example
        tpl = DomainTemplate(periods=(40.0,), amplitudes=(1.0,), phases=(0.0,))
        cfg = config(
            synth=dataclasses.replace(
                SPEC, templates=(tpl, tpl), noise_std=0.0
            )
        )
        diag = similarity_diagnostics(cfg)
        a = diag.overall["example_future"]
        b = diag.overall["aligned_segment"]
        assert abs(a - b) < 0.05
        assert b > 0.9

    def test_workers_do_not_change_results(self, monkeypatch):
        seq = similarity_diagnostics(config()).to_dict()
        forbid_threads(monkeypatch)
        par = similarity_diagnostics(config(workers=4)).to_dict()
        assert json.dumps(seq, sort_keys=True) == json.dumps(par, sort_keys=True)

    def test_csv_output(self, tmp_path):
        diag = similarity_diagnostics(config())
        path = tmp_path / "diag.csv"
        diag.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("domain,example_future")
        assert len(lines) == 3


class TestEmitReports:
    def test_files_written_and_idempotent(self, tmp_path):
        cfg = config(bootstrap_iterations=0)
        report = run_setting(cfg, "ratfm_copy")
        out = tmp_path / "nested" / "out"
        paths = emit_reports(report, out)
        assert paths["report"].exists()
        assert paths["per_series"].exists()
        assert paths["config"].exists()
        scores = sorted((out / "scores").glob("*.csv"))
        assert len(scores) == len(report.per_series)
        first = paths["report"].read_bytes()
        emit_reports(report, out)
        assert paths["report"].read_bytes() == first

    def test_per_series_row_count(self, tmp_path):
        report = run_setting(config(bootstrap_iterations=0), "zero_shot_naive")
        emit_reports(report, tmp_path)
        lines = (tmp_path / "per_series.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + len(report.per_series)

    def test_text_files_are_utf8_under_an_ascii_locale(self, tmp_path):
        # the same script in a UTF-8 and in an ASCII locale: a non-ASCII series
        # id, domain, config value and separator read and write the same bytes
        inputs = tmp_path / "in"
        inputs.mkdir()
        (inputs / "config.json").write_bytes('{"dataset_root": "données"}'.encode())
        (inputs / "a_b_3_4_5.txt").write_bytes("1.5\u20032.5\n-0\n3.5 4.5\n5.5".encode())
        locales = {
            "utf8": {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"},
            "ascii": {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
        }
        emitted = {}
        for name, env in locales.items():
            out = tmp_path / name
            env = dict(os.environ, **env, PYTHONPATH=str(Path(harness.__file__).parents[1]))
            proc = subprocess.run(
                [sys.executable, "-c", _WRITE_TEXT_FILES, str(inputs), str(out)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            emitted[name] = {
                str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()
            }
            emitted[name + " encoding"] = proc.stdout
        assert emitted["ascii encoding"] != emitted["utf8 encoding"] == "utf-8\n"
        assert emitted["ascii"] == emitted["utf8"]
        assert len(emitted["ascii"]) == 7
        assert "séries_日本".encode() in emitted["ascii"]["scores.csv"]


# ASCII source, as an ASCII locale decodes the command line; the series id is
# "séries_日本" and the domain "dom_ü"
_WRITE_TEXT_FILES = """
import locale, sys
from pathlib import Path
import numpy as np
from ratfm.dataset import dump_metadata, parse_ucr_file
from ratfm.harness import ExperimentConfig, SimilarityDiagnostics, SweepResult, emit_reports
from ratfm.metrics import METRIC_NAMES, EvalReport
from ratfm.scoring import dump_scores_csv

inputs, out = Path(sys.argv[1]), Path(sys.argv[2])
sid, dom = "s\\u00e9ries_\\u65e5\\u672c", "dom_\\u00fc"
config = ExperimentConfig.from_json(inputs / "config.json")
series = parse_ucr_file(inputs / "a_b_3_4_5.txt")
rec = {"domain": dom, **dict.fromkeys(METRIC_NAMES, 0.5), "threshold": 0.25, "n_windows": 2}
report = EvalReport("zero_shot_naive", per_series={sid: rec}, config=config.to_dict())
emit_reports(report, out)
v = series.values
dump_scores_csv(out / "scores.csv", sid, 0, v, v, v > 2.0, 2.0)
dump_metadata([series], out / "meta.json")
SweepResult("ratfm_copy", [(0.5, dom, 0.75, 1)]).write_csv(out / "sweep.csv")
sims = {"example_future": 0.5, "aligned_segment": 0.25, "best_segment": 1.0, "n_windows": 2}
SimilarityDiagnostics(per_domain={dom: sims}, overall=sims).write_csv(out / "diag.csv")
print(locale.getpreferredencoding(False).lower())
"""
