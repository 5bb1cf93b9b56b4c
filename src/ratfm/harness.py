"""Experiment orchestration: configs, pipeline runs, sweeps, diagnostics.

A run loads (or generates) a multi-domain dataset, standardizes every
series with its training statistics, cuts retrieval pools on first use,
and evaluates one pipeline setting per series: forecast each test
window, turn deviations into scores, smooth, threshold, and score the
result with point-wise and threshold-free metrics.  Per-series failures
are recorded and skipped so a single bad series cannot kill a benchmark.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _kernels
from .dataset import LabeledSeries, Window, load_dataset, make_windows, os_name, standardize
from .errors import (
    ConfigError,
    DatasetError,
    EmptyTrainingSetError,
    InvalidFractionError,
    PeriodTooLongError,
    RatfmError,
    SeriesTooShortError,
    check_field_types,
)
from .forecast import (
    Budget,
    ExampleCopyForecaster,
    Forecaster,
    LinearForecaster,
    SeasonalNaiveForecaster,
    assemble_context,
    train_linear,
)
from .metrics import EvalReport, GroundTruth, ScoreDump, pointwise_prf, vus
from .retrieval import (
    CandidatePool,
    best_candidates,
    ncc_max,
    no_candidate,
    subsample_indices,
)
# unused here, but perfbench/tracer.py wraps these names in ratfm.harness
from .forecast import forecast, zero_shot_context  # noqa: F401
from .retrieval import retrieve_best, subsample_pool  # noqa: F401
from .scoring import anomaly_scores  # noqa: F401
from .scoring import (
    dump_scores_csv,
    estimate_period,
    sma_smooth,
    threshold_labels,
)
from .synth import DomainTemplate, SynthSpec, generate_synthetic

logger = logging.getLogger(__name__)

SETTINGS = ("zero_shot_naive", "ratfm_copy", "ratfm_linear")
DEFAULT_BUDGET = Budget(512, 96, 512)

# forecast points per block of windows _eval_series scores at once: 256
# windows at the default horizon, a 192 KiB float64 block that stays in L2
# with the indices and truth it is scored against.  Scoring both
# archive_zero_shot series took 5.5 ms at 256 windows a block, 6.2 ms at 64
# and 6.1 ms at 4 096; at eval_stride 17, 22.7, 24.6 and 39.6 ms (best of 7)
_EVAL_BLOCK_POINTS = 256 * 96


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; serializable to/from JSON.

    Exactly one of ``dataset_root`` and ``synth`` must be set.
    ``out_dir`` is only an emission target and is excluded from the
    config snapshot embedded in reports, so identical experiments yield
    byte-identical reports regardless of where they are written.
    """

    dataset_root: str | None = None
    synth: SynthSpec | None = None
    budget: Budget = DEFAULT_BUDGET
    ridge_reg: float = 1e-3
    fractions: tuple[float, ...] = (1.0, 0.75, 0.5, 0.25)
    sma: bool = True
    vus_w_max: int | None = None
    vus_steps_cap: int = 20
    bootstrap_iterations: int = 1000
    seed: int = 0
    eval_stride: int | None = None
    pool_stride: int | None = None
    pool_fraction: float = 1.0
    retrieval_region: str = "train"
    period_source: str = "train"
    # accepted, validated and written to config.json, but every run is on
    # the calling thread: the benchmark's consumers_default workload still
    # sets it, and deleting it is a change to that benchmark
    workers: int = 1
    out_dir: str = "ratfm_out"

    def __post_init__(self) -> None:
        if not isinstance(self.budget, Budget):
            object.__setattr__(self, "budget", Budget(*self.budget))

    def validate(self) -> None:
        check_field_types(self)
        if (self.dataset_root is None) == (self.synth is None):
            raise ConfigError("set exactly one of dataset_root and synth")
        # an empty path would name the working directory
        for name in ("dataset_root", "out_dir"):
            if getattr(self, name) == "":
                raise ConfigError(f"{name} must not be empty")
        te, h, tt = self.budget
        if te < 1 or tt < 1 or h < 2:
            raise ConfigError(f"bad budget {tuple(self.budget)}")
        if not math.isfinite(self.ridge_reg) or self.ridge_reg < 0:
            raise ConfigError(f"ridge_reg must be finite and >= 0, got {self.ridge_reg}")
        _check_fractions(self.fractions)
        if not 0.0 < self.pool_fraction <= 1.0:
            raise ConfigError(f"pool_fraction must lie in (0, 1], got {self.pool_fraction}")
        stride = _eval_stride(self)
        if not 1 <= stride <= h:
            raise ConfigError(f"eval_stride must lie in [1, horizon], got {stride}")
        if self.pool_stride is not None and self.pool_stride < 1:
            raise ConfigError("pool_stride must be >= 1")
        if self.vus_w_max is not None and self.vus_w_max < 0:
            raise ConfigError("vus_w_max must be >= 0")
        if self.vus_steps_cap < 1:
            raise ConfigError("vus_steps_cap must be >= 1")
        if self.bootstrap_iterations < 0:
            raise ConfigError("bootstrap_iterations must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.retrieval_region not in ("train", "full"):
            raise ConfigError("retrieval_region must be 'train' or 'full'")
        if self.period_source not in ("train", "test"):
            raise ConfigError("period_source must be 'train' or 'test'")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.synth is not None:
            self.synth.validate()

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out.pop("out_dir")
        out["budget"] = list(self.budget)
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        fields = _json_fields(cls, raw, "config")
        if fields.get("synth") is not None:
            synth = _json_fields(SynthSpec, fields["synth"], "synth")
            if isinstance(synth.get("templates"), tuple):
                synth["templates"] = tuple(
                    _build(DomainTemplate, _json_fields(DomainTemplate, t, "template"))
                    for t in synth["templates"]
                )
            fields["synth"] = _build(SynthSpec, synth)
        return _build(cls, fields)

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)


def _json_fields(cls, raw, what: str) -> dict:
    """``raw``'s keys as ``cls`` fields, JSON arrays turned into tuples."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object, got {raw!r}")
    unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}


def _build(cls, fields: dict):
    try:
        return cls(**fields)
    except TypeError as exc:  # a required field is missing, or a bad budget
        raise ConfigError(f"bad {cls.__name__}: {exc}") from exc


@dataclass
class PreparedRun:
    """A run's config, standardized series, periods, and domain pools.

    It serves only ``config``, compared as the report's config snapshot
    (``out_dir`` may differ): another config is a :class:`ConfigError`.
    ``pools`` is keyed by domain and filled under ``_lock`` by
    :func:`_domain_pool` on each domain's first retrieval, so a caller's
    threads may share one prepared run.
    ``_examples`` holds each series' windows and, per pool fraction,
    their retrieved examples, filled lazily by :func:`_retrieved` so
    that every retrieval consumer of the run cuts a series' windows and
    scores a window's query once.
    """

    config: ExperimentConfig
    series: list[LabeledSeries]
    periods: dict[str, int]
    pools: dict[str, CandidatePool]
    _examples: dict = field(default_factory=dict, repr=False, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )


def _load_series(config: ExperimentConfig) -> list[LabeledSeries]:
    if config.synth is not None:
        return generate_synthetic(config.synth)
    series = load_dataset(config.dataset_root)
    if not series:
        warnings.warn(f"no series found under {config.dataset_root}", stacklevel=2)
    return series


def prepare_series(
    raw: LabeledSeries, period_source: str = "train"
) -> tuple[LabeledSeries, int]:
    """Standardize one series and estimate its period from ``period_source``.

    A series too short for either step is a :class:`DatasetError` naming
    it; ``ratfm ingest`` runs this too, so it rejects what a run would.
    """
    try:
        std, _ = standardize(raw)
        source = std.train_values if period_source == "train" else std.test_values
        return std, estimate_period(source).period
    except SeriesTooShortError as exc:
        raise DatasetError(f"series {raw.id!r} cannot be prepared: {exc}") from exc


def prepare_run(config: ExperimentConfig) -> PreparedRun:
    """Standardize and estimate periods; pools are cut on first retrieval."""
    config.validate()
    series = []
    periods = {}
    for raw in _load_series(config):
        std, periods[raw.id] = prepare_series(raw, config.period_source)
        series.append(std)
    return PreparedRun(config=config, series=series, periods=periods, pools={})


def _prepared(config: ExperimentConfig, data: PreparedRun | None) -> PreparedRun:
    """``data``, checked to be prepared from ``config``, or a new run."""
    if data is None:
        return prepare_run(config)
    config.validate()
    ours, theirs = config.to_dict(), data.config.to_dict()
    differ = [name for name in ours if ours[name] != theirs[name]]
    if differ:
        raise ConfigError(f"data was prepared from a config that differs in {differ}")
    return data


def _domain_pool(data: PreparedRun, domain: str) -> CandidatePool:
    """``domain``'s pool, cut and built once per run, under the run's lock:
    each of its series' windows in load order, from the train region and,
    for ``retrieval_region="full"``, the test region, subsampled to
    ``pool_fraction`` before the pool's arrays are built."""
    config = data.config
    with data._lock:
        if domain in data.pools:
            return data.pools[domain]
        te, h, _ = config.budget
        # dense pools by default: retrieval quality hinges on phase coverage
        stride = config.pool_stride or max(1, h // 12)
        regions = ["train"] if config.retrieval_region == "train" else ["train", "test"]
        wins = []
        for s in data.series:
            if s.domain == domain:
                for region in regions:
                    wins += make_windows(s, region, te, h, stride)
        kept = subsample_indices(len(wins), config.pool_fraction, config.seed)
        data.pools[domain] = CandidatePool(
            domain, [wins[i] for i in kept], config.pool_fraction, config.seed
        )
        return data.pools[domain]


def _retrieval_query(window: Window, example_len: int) -> Window:
    inp = window.input
    return Window(
        series_id=window.series_id,
        start=window.start + len(inp) - example_len,
        input=inp[len(inp) - example_len :],
        future=window.future,
    )


def _eval_stride(config: ExperimentConfig) -> int:
    return config.budget.horizon if config.eval_stride is None else config.eval_stride


def _windows(
    config: ExperimentConfig, series: LabeledSeries, region: str
) -> list[Window]:
    """Windows of a whole budget's input, ``eval_stride`` apart."""
    te, h, tt = config.budget
    return make_windows(series, region, te + h + tt, h, _eval_stride(config))


def _retrieved(
    data: PreparedRun,
    series: LabeledSeries,
    region: str,
    fractions: tuple[float, ...] = (1.0,),
) -> tuple[list[Window], list[list[Window | str]]]:
    """A series' windows in ``region`` and, per fraction, each window's example.

    A window's query is scored once for all fractions
    (:func:`best_candidates`); a fraction's example is the best entry
    among those :func:`subsample_indices` keeps (as in a pool passed
    through :func:`subsample_pool`), the lowest index on ties, or the
    message of the :class:`RatfmError` retrieval raised.
    Examples are cached per prepared run, series, region and fraction,
    windows without the fraction; only fractions not cached yet are
    retrieved.  No lock is held while retrieving: two threads fill the
    same entry only when a caller runs two consumers on one ``data`` at
    once, and both then store the same examples.
    """
    key = (series.id, region)
    if key not in data._examples:
        data._examples[key] = _windows(data.config, series, region)
    windows = data._examples[key]
    missing = [f for f in fractions if key + (f,) not in data._examples]
    if missing:
        pool = _domain_pool(data, series.domain)
        kept = [subsample_indices(len(pool), f, data.config.seed) for f in missing]
        found: list[list] = [[] for _ in missing]
        for w in windows:
            query = _retrieval_query(w, data.config.budget.example_len)
            try:
                picks = [
                    pool.entries[won[0]] if won else str(no_candidate(query, pool))
                    for won in best_candidates(query, pool, kept)
                ]
            except RatfmError as exc:
                picks = [str(exc)] * len(missing)
            for examples, pick in zip(found, picks):
                examples.append(pick)
        for f, examples in zip(missing, found):
            data._examples[key + (f,)] = examples
    return windows, [data._examples[key + (f,)] for f in fractions]


def _train_forecaster(data: PreparedRun) -> tuple[LinearForecaster, dict]:
    """Fit the linear forecaster on retrieval-augmented training contexts.

    Windows whose retrieval failed are left out.
    """
    config = data.config
    contexts = []
    for series in data.series:
        windows, (examples,) = _retrieved(data, series, "train")
        contexts += [
            assemble_context(w, example, config.budget)
            for w, example in zip(windows, examples)
            if not isinstance(example, str)
        ]
    try:
        forecaster, final_mse = train_linear(contexts, config.ridge_reg)
    except EmptyTrainingSetError as exc:
        raise ConfigError(
            "no training contexts available; train regions are too short "
            "for the configured budget"
        ) from exc
    info = {
        "n_contexts": len(contexts),
        "final_mse": final_mse,
        "ridge_reg": config.ridge_reg,
    }
    return forecaster, info


def _eval_series(
    series: LabeledSeries,
    config: ExperimentConfig,
    setting: str,
    period: int,
    windows: list[Window],
    examples: list[Window | str] | None,
    trained: Forecaster | None,
) -> tuple[dict, ScoreDump]:
    """Score one series from its test windows and, for the retrieval
    settings, their examples as :func:`_retrieved` returns them.

    Windows are forecast and scored a block at a time, in window order,
    and the raw scores equal a per-window loop's bit for bit.  A failed
    retrieval is raised after the windows before it are scored, so an
    earlier window's error comes first."""
    budget = config.budget
    h = budget.horizon
    total = budget.total
    if not windows:
        raise RatfmError("test region too short for the configured budget")

    test = series.test_values
    n = len(windows)
    if examples is None:
        if period > total:
            raise PeriodTooLongError(f"period {period} exceeds target input length {total}")
        name = SeasonalNaiveForecaster.name
        # what SeasonalNaiveForecaster reads from zero_shot_context's target input
        lags = np.arange(h) % period - period
    else:
        name = ExampleCopyForecaster.name if setting == "ratfm_copy" else trained.name
        # windows after the first failed retrieval are never scored
        n = next((i for i, e in enumerate(examples) if isinstance(e, str)), n)
    # where each window's future starts in the test region
    future = np.fromiter((w.start for w in windows[:n]), np.intp, n)
    future += total - series.train_end
    steps = np.arange(h)
    acc = np.zeros(len(test))
    cnt = np.zeros(len(test), dtype=np.int64)
    rows = max(1, _EVAL_BLOCK_POINTS // h)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        at = future[lo:hi, None]
        if examples is None:
            block = test[at + lags]
        elif setting == "ratfm_copy":
            block = np.array([e.future for e in examples[lo:hi]])
        else:
            block = np.array([
                trained.forecast(assemble_context(w, e, budget))
                for w, e in zip(windows[lo:hi], examples[lo:hi])
            ])
        if not np.isfinite(block).all():
            raise ValueError(f"{name} produced non-finite values")
        # anomaly_scores in place; add.at adds each point's terms in
        # window order, as a loop of acc[local : local + h] += ... would
        pos = (at + steps).ravel()
        scores = block.reshape(-1)
        np.subtract(scores, test[pos], out=scores)
        np.abs(scores, out=scores)
        np.add.at(acc, pos, scores)
        np.add.at(cnt, pos, 1)
    if n < len(windows):
        raise RatfmError(examples[n])

    scored = cnt > 0
    offset = int(np.argmax(scored))
    n_scored = int(scored.sum())
    raw = acc[offset : offset + n_scored] / cnt[offset : offset + n_scored]
    final = sma_smooth(raw, period) if config.sma else raw
    labels, threshold = threshold_labels(final)

    local_spans = [
        (s - series.train_end, e - series.train_end) for s, e in series.anomaly_spans
    ]
    truth = GroundTruth.from_spans(local_spans, length=len(final), offset=offset)
    precision, recall, f1 = pointwise_prf(labels, truth.labels)
    w_max = config.vus_w_max if config.vus_w_max is not None else period
    steps = max(1, min(w_max, config.vus_steps_cap))
    vus_roc, vus_pr = vus(final, truth, w_max, steps)

    record = {
        "domain": series.domain,
        "f1": f1,
        "precision": precision,
        "recall": recall,
        "vus_roc": vus_roc,
        "vus_pr": vus_pr,
        "threshold": threshold,
        "period": period,
        "n_windows": len(windows),
        "offset": offset,
    }
    dump = ScoreDump(
        t_absolute_start=series.train_end + offset,
        raw=raw,
        smoothed=final,
        labels=labels,
        threshold=threshold,
    )
    return record, dump


def run_setting(
    config: ExperimentConfig,
    setting: str,
    *,
    data: PreparedRun | None = None,
) -> EvalReport:
    """Evaluate one pipeline setting over the whole dataset.

    ``data`` shares a run prepared from ``config`` (another config is a
    :class:`ConfigError`): a test window's example is retrieved once per
    run, so ``ratfm_copy``, ``ratfm_linear`` and
    :func:`similarity_diagnostics` on it retrieve it once between them.
    """
    _check_setting(setting)
    data = _prepared(config, data)
    report = EvalReport(setting=setting, config=config.to_dict())
    trained = None
    if setting == "ratfm_linear":
        trained, report.training = _train_forecaster(data)
    return _evaluate(report, data, trained)


def _check_setting(setting: str) -> None:
    if setting not in SETTINGS:
        raise ConfigError(f"unknown setting {setting!r}; pick one of {SETTINGS}")


def _evaluate(
    report: EvalReport,
    data: PreparedRun,
    trained: Forecaster | None,
    fraction: float = 1.0,
) -> EvalReport:
    """Fill and finalize ``report`` with every series of ``data``.

    The retrieval settings take their test examples from ``fraction``
    of each domain pool, as :func:`_retrieved` picks them.
    """
    config = data.config
    for series in data.series:
        sid = series.id
        try:
            if report.setting == "zero_shot_naive":
                windows, examples = _windows(config, series, "test"), None
            else:
                windows, (examples,) = _retrieved(data, series, "test", (fraction,))
            rec, dump = _eval_series(
                series,
                config,
                report.setting,
                data.periods[sid],
                windows,
                examples,
                trained,
            )
        except RatfmError as exc:
            logger.warning("skipping %s: %s", sid, exc)
            report.skipped[sid] = str(exc)
            continue
        report.per_series[sid] = rec
        report.score_dumps[sid] = dump
    if not report.per_series:
        warnings.warn("run evaluated zero series", stacklevel=3)
    report.finalize(
        bootstrap_iterations=config.bootstrap_iterations, seed=config.seed
    )
    return report


@dataclass
class SweepResult:
    """Per-fraction, per-domain VUS-ROC table plus the full reports."""

    setting: str
    rows: list[tuple[float, str, float, int]]
    reports: dict[float, EvalReport] = field(repr=False, default_factory=dict)

    def write_csv(self, path: str | Path) -> None:
        lines = ["fraction,domain,vus_roc,n_series"]
        for fraction, domain, vus_roc, n_series in self.rows:
            lines.append(f"{fraction},{domain},{vus_roc!r},{n_series}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _check_fractions(fractions) -> None:
    """At least one fraction is given; each lies in (0, 1] and appears once."""
    if not fractions:
        raise InvalidFractionError("fractions must not be empty")
    seen = set()
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise InvalidFractionError(f"fractions must lie in (0, 1], got {f}")
        if f in seen:
            raise InvalidFractionError(f"fraction {f} is repeated")
        seen.add(f)


def sweep_pool_fraction(
    config: ExperimentConfig,
    fractions: list[float] | None = None,
    setting: str = "ratfm_copy",
    *,
    data: PreparedRun | None = None,
) -> SweepResult:
    """Evaluate ``setting`` with the candidate pools subsampled to each fraction.

    A fraction's report equals one evaluated on pools passed through
    :func:`subsample_pool` (seeded by ``config.seed``) and, for the linear
    setting, with the forecaster trained once on the full pools; but each
    test query is scored once for all fractions (:func:`_retrieved`).
    ``data`` shares a run prepared from ``config`` as in
    :func:`run_setting`: fractions another call on it already retrieved
    are not retrieved again.
    """
    _check_setting(setting)
    config.validate()
    fractions = tuple(fractions if fractions is not None else config.fractions)
    _check_fractions(fractions)
    data = _prepared(config, data)
    trained = None
    if setting == "ratfm_linear":
        trained, _ = _train_forecaster(data)
    if setting != "zero_shot_naive":
        for s in data.series:
            _retrieved(data, s, "test", fractions)
    result = SweepResult(setting=setting, rows=[])
    for fraction in fractions:
        report = EvalReport(setting=setting, config=config.to_dict())
        _evaluate(report, data, trained, fraction)
        result.reports[fraction] = report
        for domain, rec in report.per_domain.items():
            result.rows.append((fraction, domain, rec["vus_roc"], rec["n_series"]))
    return result


@dataclass
class SimilarityDiagnostics:
    """Per-domain mean lag-0 similarities against the true target future.

    ``example_future``: the retrieved example's future; ``aligned_segment``:
    the input segment sitting where the example future would sit;
    ``best_segment``: the best-matching segment anywhere in the portion of
    the input corresponding to the whole example.
    """

    per_domain: dict[str, dict[str, float]]
    overall: dict[str, float]

    def to_dict(self) -> dict:
        return {"per_domain": self.per_domain, "overall": self.overall}

    def write_csv(self, path: str | Path) -> None:
        lines = ["domain,example_future,aligned_segment,best_segment,n_windows"]
        for dom, rec in sorted(self.per_domain.items()):
            lines.append(
                f"{dom},{rec['example_future']!r},{rec['aligned_segment']!r},"
                f"{rec['best_segment']!r},{rec['n_windows']}"
            )
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def similarity_diagnostics(
    config: ExperimentConfig, *, data: PreparedRun | None = None
) -> SimilarityDiagnostics:
    """Compare three candidate reference segments against each true future.

    For every test window: (a) the retrieved example's future, (b) the
    input segment aligned with the example-future position, and (c) the
    best lag-0 match among all horizon-length segments of the input's
    leading example-shaped portion.  All similarities are lag-0
    normalized correlations; (c) >= (b) by construction.  A window whose
    retrieval or similarity fails is left out.

    Examples come from the same per-run cache as :func:`run_setting`, so
    after a retrieval setting ran on ``data`` nothing is retrieved again.
    The sums run in series and window order.
    """
    data = _prepared(config, data)
    te, h, tt = config.budget
    sums: dict[str, np.ndarray] = {}
    counts: dict[str, int] = {}
    for series in data.series:
        dom = series.domain
        windows, (examples,) = _retrieved(data, series, "test")
        for w, example in zip(windows, examples):
            if isinstance(example, str):
                continue
            try:
                a = ncc_max(example.future, w.future, lag_zero_only=True).score
                b = ncc_max(w.input[te : te + h], w.future, lag_zero_only=True).score
                c, _off = _kernels.lag0_scan(w.input[: te + h], w.future)
            except RatfmError:
                continue
            if c < -1.0:
                continue
            sums.setdefault(dom, np.zeros(3))
            sums[dom] += (a, b, c)
            counts[dom] = counts.get(dom, 0) + 1

    per_domain = {dom: _mean_similarities(sums[dom], counts[dom]) for dom in sorted(sums)}
    total = sum((sums[dom] for dom in sorted(sums)), np.zeros(3))
    overall = _mean_similarities(total, sum(counts.values()))
    return SimilarityDiagnostics(per_domain=per_domain, overall=overall)


def _mean_similarities(total: np.ndarray, n: int) -> dict:
    mean = total / n if n else np.zeros(3)
    return {
        "example_future": float(mean[0]),
        "aligned_segment": float(mean[1]),
        "best_segment": float(mean[2]),
        "n_windows": n,
    }


def emit_reports(report: EvalReport, out_dir: str | Path) -> dict[str, Path]:
    """Write report.json, per_series.csv, scores/*.csv, and config.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"report": out / "report.json", "per_series": out / "per_series.csv"}
    paths["report"].write_text(report.to_json(), encoding="utf-8")
    report.write_per_series_csv(paths["per_series"])
    scores_dir = out / "scores"
    scores_dir.mkdir(exist_ok=True)
    for sid, dump in sorted(report.score_dumps.items()):
        dump_scores_csv(
            scores_dir / os_name(f"{sid}.csv"),
            sid,
            dump.t_absolute_start,
            dump.raw,
            dump.smoothed,
            dump.labels,
            dump.threshold,
        )
    if report.config is not None:
        paths["config"] = out / "config.json"
        paths["config"].write_text(
            json.dumps(report.config, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return paths
