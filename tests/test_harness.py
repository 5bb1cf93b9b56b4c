import collections
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratfm.harness as harness
import ratfm.retrieval as retrieval
from oracles import exhaustive_best, exhaustive_scores
from ratfm.dataset import make_windows
from ratfm.errors import (
    ConfigError,
    DatasetError,
    InvalidFractionError,
    PeriodTooLongError,
    RatfmError,
)
from ratfm.forecast import (
    Budget,
    ExampleCopyForecaster,
    LinearForecaster,
    SeasonalNaiveForecaster,
    assemble_context,
    forecast,
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


def retrieval_queries(cfg, data):
    """(series id, query start) of every test window's retrieval query."""
    te = cfg.budget.example_len
    return {
        (s.id, harness._retrieval_query(w, te).start)
        for s in data.series
        for w in harness._windows(cfg, s, "test")
    }


def spy_scores(monkeypatch):
    """List that records (series id, query start) per best_candidates call."""
    calls = []
    real = retrieval.best_candidates

    def spy(query, pool, subsets):
        calls.append((query.series_id, query.start))
        return real(query, pool, subsets)

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
        te, h, tt = cfg.budget
        lengths = []
        real = harness.make_windows

        def spy(series, region, input_len, horizon, stride):
            lengths.append(input_len)
            return real(series, region, input_len, horizon, stride)

        monkeypatch.setattr(harness, "make_windows", spy)
        data = prepare_run(cfg)
        assert run_setting(cfg, "zero_shot_naive", data=data).per_series
        assert data.pools == {}
        assert set(lengths) == {te + h + tt}

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
                (w.series_id, w.start)
                for s in data.series
                if s.domain == dom
                for r in regions
                for w in make_windows(s, r, te, h, max(1, h // 12))
            ]
            kept = retrieval.subsample_indices(len(cut), fraction, cfg.seed)
            assert (len(kept) < len(cut)) == (fraction < 1.0)
            assert [(e.series_id, e.start) for e in pool.entries] == [
                cut[i] for i in kept
            ]

    def test_threads_touching_a_domain_first_cut_its_pool_once(self, monkeypatch):
        cfg = config()
        data = prepare_run(cfg)
        domain = data.series[0].domain
        calls = []
        real = harness.make_windows

        def slow(series, region, *args):
            calls.append((series.id, region))
            time.sleep(0.02)
            return real(series, region, *args)

        monkeypatch.setattr(harness, "make_windows", slow)
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
        data = prepare_run(cfg)
        run_setting(cfg, "ratfm_linear", data=data)
        n_examples = 0
        for s in data.series:
            for region in ("test", "train"):
                windows, (examples,) = harness._retrieved(data, s, region)
                for w, example in zip(windows, examples):
                    query = harness._retrieval_query(w, cfg.budget.example_len)
                    try:
                        assert example is retrieve_best(query, data.pools[s.domain])[0]
                        n_examples += 1
                    except RatfmError as exc:
                        assert example == str(exc)
        assert n_examples > 0

    def test_fractions_are_cached_one_by_one(self, monkeypatch):
        cfg = config()
        data = prepare_run(cfg)
        s = data.series[0]
        calls = spy_scores(monkeypatch)
        windows, both = harness._retrieved(data, s, "test", (1.0, 0.5))
        assert len(calls) == len(windows) > 0
        calls.clear()
        assert harness._retrieved(data, s, "test", (0.5,))[1][0] is both[1]
        assert harness._retrieved(data, s, "test", (1.0,))[1][0] is both[0]
        assert calls == []
        harness._retrieved(data, s, "test", (0.25,))
        assert collections.Counter(calls) == dict.fromkeys(calls, 1)
        assert len(calls) == len(windows)

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

    def test_windows_are_cut_once_per_prepared_run(self, monkeypatch):
        cfg = config(workers=4)
        te, h, tt = cfg.budget
        calls = []
        real = harness.make_windows

        def spy(series, region, input_len, horizon, stride):
            if input_len == te + h + tt:  # not a pool window
                calls.append((series.id, region, horizon, stride))
            return real(series, region, input_len, horizon, stride)

        monkeypatch.setattr(harness, "make_windows", spy)
        data = prepare_run(cfg)
        run_setting(cfg, "ratfm_copy", data=data)
        run_setting(cfg, "ratfm_linear", data=data)
        similarity_diagnostics(cfg, data=data)
        ids = [s.id for s in data.series]
        expected = {(sid, region, h, h) for sid in ids for region in ("test", "train")}
        assert collections.Counter(calls) == dict.fromkeys(expected, 1)
        calls.clear()
        sweep_pool_fraction(cfg, [1.0, 0.5])  # prepares its own run
        assert collections.Counter(calls) == {(sid, "test", h, h): 1 for sid in ids}

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
        te = cfg.budget.example_len
        pools = {}
        for dom, pool in domain_pools(data).items():
            entries = list(pool.entries)
            entries += [dataclasses.replace(e) for e in pool.entries]
            ids = [s.id for s in data.series if s.domain == dom]
            for s in data.series:
                if s.domain == dom:
                    w = harness._windows(cfg, s, "test")[1]
                    query = harness._retrieval_query(w, te)
                    other = next(sid for sid in ids if sid != s.id)
                    planted = dataclasses.replace(query, series_id=other)
                    entries.insert(len(entries) // 3, planted)
            assert len(entries) > 4 * retrieval._CHUNK_ROWS
            pools[dom] = retrieval.CandidatePool(domain=dom, entries=entries)
        data = PreparedRun(
            config=cfg, series=data.series, periods=data.periods, pools=pools
        )
        fractions = (1.0, 0.5, 0.1)
        sweep_pool_fraction(cfg, list(fractions), data=data)
        n_ties = 0
        for s in data.series:
            pool = pools[s.domain]
            windows, found = harness._retrieved(data, s, "test", fractions)
            for i, w in enumerate(windows):
                query = harness._retrieval_query(w, te)
                scores = exhaustive_scores(query, pool.entries)
                for f, examples in zip(fractions, found):
                    kept = retrieval.subsample_indices(len(pool), f, cfg.seed)
                    idx = exhaustive_best(scores, kept)
                    assert examples[i] is pool.entries[idx]
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

        def best_spy(query, pool, subsets):
            usable[0] += int(
                np.sum((pool.norms > 0) & (pool.series_ids != query.series_id))
            )
            return real_best(query, pool, subsets)

        monkeypatch.setattr(retrieval, "_screen_scores", screen_spy)
        monkeypatch.setattr(harness, "best_candidates", best_spy)
        run_setting(cfg, "ratfm_linear", data=data)
        assert 0 < correlated[0] < usable[0] / 2


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
        windows = harness._windows(cfg, series, "test")
        assert len(windows) > 2 * self.ROWS
        # any in-domain windows serve as examples; retrieval is not under test
        pool = make_windows(data.series[1], "train", BUDGET.example_len, BUDGET.horizon, 5)
        picks = np.random.default_rng(stride).integers(0, len(pool), len(windows))
        return cfg, series, data.periods[series.id], windows, [pool[i] for i in picks]

    @pytest.mark.parametrize("stride", [1, BUDGET.horizon - 1, BUDGET.horizon])
    @pytest.mark.parametrize("setting", harness.SETTINGS)
    def test_raw_scores_equal_a_per_window_loop(self, monkeypatch, setting, stride):
        # overlapping windows (a stride below the horizon) add several terms
        # to one point, which must be summed in window order
        cfg, series, period, windows, examples = self.case(monkeypatch, stride)
        if setting == "zero_shot_naive":
            examples, forecaster = None, SeasonalNaiveForecaster(period)
        elif setting == "ratfm_copy":
            forecaster = ExampleCopyForecaster()
        else:
            weights = np.random.default_rng(5).standard_normal((BUDGET.horizon, BUDGET.total + 1))
            forecaster = LinearForecaster(weights / BUDGET.total, BUDGET)
        _, dump = harness._eval_series(
            series, cfg, setting, period, windows, examples, forecaster
        )
        expected = per_window_raw(series, BUDGET, forecaster, windows, examples)
        assert dump.raw.tobytes() == expected.tobytes()

    def test_first_failed_retrieval_is_raised(self, monkeypatch):
        cfg, series, period, windows, examples = self.case(monkeypatch, BUDGET.horizon)
        examples[2 * self.ROWS + 1] = "second"
        examples[self.ROWS + 3] = "first"
        with pytest.raises(RatfmError, match="^first$"):
            harness._eval_series(series, cfg, "ratfm_copy", period, windows, examples, None)

    def test_non_finite_forecast_before_a_failed_retrieval_is_raised(self, monkeypatch):
        cfg, series, period, windows, examples = self.case(monkeypatch, BUDGET.horizon)
        examples[self.ROWS + 3] = "failed"
        weights = np.zeros((BUDGET.horizon, BUDGET.total + 1))
        weights[0, -1] = np.nan
        trained = LinearForecaster(weights, BUDGET)
        with pytest.raises(ValueError, match="linear produced non-finite values"):
            harness._eval_series(
                series, cfg, "ratfm_linear", period, windows, examples, trained
            )

    def test_period_longer_than_the_target_input_is_raised(self, monkeypatch):
        cfg, series, _, windows, _ = self.case(monkeypatch, BUDGET.horizon)
        with pytest.raises(PeriodTooLongError, match="exceeds target input length"):
            harness._eval_series(
                series, cfg, "zero_shot_naive", BUDGET.total + 1, windows, None, None
            )


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
            len(harness._windows(cfg, s, "test")) for s in dom0
        )

    def test_fraction_without_a_usable_row(self):
        cfg = config(bootstrap_iterations=0)
        data = prepare_run(cfg)
        fraction = 0.001  # keeps one entry per domain
        sub = subsampled(cfg, data, fraction)
        assert all(len(pool) == 1 for pool in sub.pools.values())
        owners = {pool.entries[0].series_id: dom for dom, pool in sub.pools.items()}
        sweep = sweep_pool_fraction(cfg, [1.0, fraction])
        report = sweep.reports[fraction]
        assert report.skipped == {
            sid: f"pool for domain {dom!r} has no candidate outside series {sid!r}"
            for sid, dom in owners.items()
        }
        assert report.to_json() == run_setting(cfg, "ratfm_copy", data=sub).to_json()
        assert sweep.reports[1.0].skipped == {}
        n_windows = {s.id: len(harness._windows(cfg, s, "test")) for s in data.series}
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
