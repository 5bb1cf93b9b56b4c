"""Span tracer for the per-layer run.

Each traced name is wrapped at the module attribute where its callers
look it up (``ratfm.harness.retrieve_best``, ``ratfm._kernels.best_lag_batch``,
...), so nothing under ``src/`` changes.  Every call records a span
(name, start, end, parent, thread) in memory; per-layer totals, self
times, call counts and counters are derived from the spans when the run
ends.  A name that no longer exists is reported as absent and skipped.

Calls made on worker threads take the innermost span open on the main
thread as their parent, which is where ``run_setting`` hands work to its
thread pool.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import threading
import time

# (span name, module the callers look the name up in, attribute path).
# Layer ``_kernels`` is reported as ``kernels``: metric names start with
# a letter.
TRACED = (
    ("dataset.load_dataset", "ratfm.harness", "load_dataset"),
    ("dataset.parse_ucr_file", "ratfm.dataset", "parse_ucr_file"),
    ("dataset.standardize", "ratfm.harness", "standardize"),
    ("dataset.make_windows", "ratfm.harness", "make_windows"),
    ("retrieval.retrieve_best", "ratfm.harness", "retrieve_best"),
    ("retrieval.ncc_max", "ratfm.harness", "ncc_max"),
    ("retrieval.subsample_pool", "ratfm.harness", "subsample_pool"),
    ("kernels.best_lag_batch", "ratfm._kernels", "best_lag_batch"),
    ("kernels.weighted_areas", "ratfm._kernels", "weighted_areas"),
    ("kernels.sma_trailing", "ratfm._kernels", "sma_trailing"),
    ("kernels.lag0_scan", "ratfm._kernels", "lag0_scan"),
    ("forecast.assemble_context", "ratfm.harness", "assemble_context"),
    ("forecast.zero_shot_context", "ratfm.harness", "zero_shot_context"),
    ("forecast.forecast", "ratfm.harness", "forecast"),
    ("forecast.train_linear", "ratfm.harness", "train_linear"),
    ("scoring.estimate_period", "ratfm.harness", "estimate_period"),
    ("scoring.anomaly_scores", "ratfm.harness", "anomaly_scores"),
    ("scoring.sma_smooth", "ratfm.harness", "sma_smooth"),
    ("scoring.threshold_labels", "ratfm.harness", "threshold_labels"),
    ("scoring.dump_scores_csv", "ratfm.harness", "dump_scores_csv"),
    ("metrics.vus", "ratfm.harness", "vus"),
    ("metrics.auc_weighted", "ratfm.metrics", "auc_weighted"),
    ("metrics.pointwise_prf", "ratfm.harness", "pointwise_prf"),
    ("metrics.finalize", "ratfm.metrics", "EvalReport.finalize"),
    ("harness.prepare_run", "ratfm.harness", "prepare_run"),
    ("harness.run_setting", "ratfm.harness", "run_setting"),
    ("harness.similarity_diagnostics", "ratfm.harness", "similarity_diagnostics"),
    ("harness.sweep_pool_fraction", "ratfm.harness", "sweep_pool_fraction"),
    ("harness.emit_reports", "ratfm.harness", "emit_reports"),
)

# counter -> span whose calls feed it
COUNTERS = {
    "dataset.points_parsed": "dataset.parse_ucr_file",
    "retrieval.candidates_scored": "retrieval.retrieve_best",
    "retrieval.spectra_bytes": "retrieval.retrieve_best",
    "retrieval.minor_faults": "retrieval.retrieve_best",
    "retrieval.unique_query_ratio": "retrieval.retrieve_best",
    "forecast.train_contexts": "forecast.train_linear",
    "scoring.score_rows_written": "scoring.dump_scores_csv",
}

# (metric, unit) in report order.  ``<span>.s`` is total seconds inside
# the outermost calls of that span, ``<span>.self_s`` excludes traced
# calls nested inside it, ``<span>.calls`` counts calls.
PER_LAYER = (
    ("dataset.load_dataset.s", "s"),
    ("dataset.points_parsed", "count"),
    ("dataset.standardize.s", "s"),
    ("dataset.make_windows.s", "s"),
    ("dataset.make_windows.calls", "count"),
    ("retrieval.retrieve_best.s", "s"),
    ("retrieval.retrieve_best.self_s", "s"),
    ("retrieval.retrieve_best.calls", "count"),
    ("retrieval.unique_query_ratio", "ratio"),
    ("retrieval.candidates_scored", "count"),
    ("retrieval.spectra_bytes", "B_computed"),
    ("retrieval.minor_faults", "count"),
    ("retrieval.ncc_max.s", "s"),
    ("retrieval.subsample_pool.s", "s"),
    ("kernels.best_lag_batch.s", "s"),
    ("kernels.weighted_areas.s", "s"),
    ("kernels.weighted_areas.calls", "count"),
    ("kernels.sma_trailing.s", "s"),
    ("kernels.lag0_scan.s", "s"),
    ("forecast.assemble_context.s", "s"),
    ("forecast.zero_shot_context.s", "s"),
    ("forecast.forecast.s", "s"),
    ("forecast.forecast.calls", "count"),
    ("forecast.train_linear.s", "s"),
    ("forecast.train_contexts", "count"),
    ("scoring.estimate_period.s", "s"),
    ("scoring.anomaly_scores.s", "s"),
    ("scoring.sma_smooth.s", "s"),
    ("scoring.threshold_labels.s", "s"),
    ("scoring.dump_scores_csv.s", "s"),
    ("scoring.score_rows_written", "count"),
    ("metrics.vus.s", "s"),
    ("metrics.auc_weighted.calls", "count"),
    ("metrics.pointwise_prf.s", "s"),
    ("metrics.finalize.s", "s"),
    ("harness.prepare_run.s", "s"),
    ("harness.run_setting.s", "s"),
    ("harness.run_setting.self_s", "s"),
    ("harness.similarity_diagnostics.s", "s"),
    ("harness.sweep_pool_fraction.s", "s"),
    ("harness.emit_reports.s", "s"),
)

_RUSAGE_THREAD = getattr(resource, "RUSAGE_THREAD", resource.RUSAGE_SELF)


def _resolve(module: str, path: str):
    """(owner object, attribute name) for ``module`` + dotted ``path``."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    getattr(owner, attr)  # AttributeError when the name is gone
    return owner, attr


class Tracer:
    """Records spans for the names in :data:`TRACED` once installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, thread]
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self.traced: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._queries: set = set()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for span, module, path in TRACED:
            try:
                owner, attr = _resolve(module, path)
            except (ImportError, AttributeError) as exc:
                self.absent.append(span)
                print(f"trace: {module}.{path} absent ({exc}); skipped", file=sys.stderr)
                continue
            setattr(owner, attr, self._wrap(span, getattr(owner, attr)))
            self.traced.append(span)

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, span: str, fn):
        hook = getattr(self, "_count_" + span.replace(".", "_"), None)
        faults = span == "retrieval.retrieve_best"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:  # worker-thread root: caused by the main thread's open span
                parent = self._main_stack[-1] if self._main_stack else None
            record = [span, 0.0, 0.0, parent, threading.get_ident()]
            with self._lock:  # a span's id is its index in self.spans
                sid = len(self.spans)
                self.spans.append(record)
            stack.append(sid)
            if faults:
                flt0 = resource.getrusage(_RUSAGE_THREAD).ru_minflt
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if faults:
                self._add("retrieval.minor_faults",
                          resource.getrusage(_RUSAGE_THREAD).ru_minflt - flt0)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + value

    # -- counters, one hook per span that feeds a counter ---------------------

    def _count_dataset_parse_ucr_file(self, args, result) -> None:
        self._add("dataset.points_parsed", len(result.values))

    def _count_retrieval_retrieve_best(self, args, result) -> None:
        query, pool = args[0], args[1]
        n = len(pool.entries)
        nfft = 1 << max(2 * len(query.input) - 1, 1).bit_length()
        self._add("retrieval.candidates_scored", n)
        # bytes of complex128 pool spectra one query multiplies against
        self._add("retrieval.spectra_bytes", n * (nfft // 2 + 1) * 16)
        key = (query.series_id, query.start, pool.domain, pool.fraction, pool.seed, n)
        with self._lock:
            self._queries.add(key)

    def _count_forecast_train_linear(self, args, result) -> None:
        self._add("forecast.train_contexts", len(args[0]))

    def _count_scoring_dump_scores_csv(self, args, result) -> None:
        self._add("scoring.score_rows_written", len(args[3]))

    # -- results --------------------------------------------------------------

    def summary(self) -> tuple[dict, dict, dict]:
        """Per span name: (total seconds, self seconds, calls)."""
        spans = self.spans
        children: dict[int, list[int]] = {}
        for i, (_n, _s, _e, parent, _t) in enumerate(spans):
            if parent is not None:
                children.setdefault(parent, []).append(i)
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, (name, start, end, parent, _t) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            covered = _union_length(
                [(spans[c][1], spans[c][2]) for c in children.get(i, ())], start, end
            )
            self_s[name] = self_s.get(name, 0.0) + (end - start - covered)
            # a span nested in a span of the same name is already counted
            p = parent
            while p is not None and spans[p][0] != name:
                p = spans[p][3]
            if p is None:
                total[name] = total.get(name, 0.0) + (end - start)
        return total, self_s, calls

    def metrics(self) -> dict[str, float]:
        """Every :data:`PER_LAYER` metric whose span is traced."""
        total, self_s, calls = self.summary()
        n_calls = calls.get("retrieval.retrieve_best", 0)
        derived = dict(self.counters)
        derived["retrieval.unique_query_ratio"] = (
            len(self._queries) / n_calls if n_calls else 0.0
        )
        out = {}
        for metric, _unit in PER_LAYER:
            if metric in COUNTERS:
                span = COUNTERS[metric]
                value = derived.get(metric, 0)
            else:
                span, _, kind = metric.rpartition(".")
                table = {"s": total, "self_s": self_s, "calls": calls}[kind]
                value = table.get(span, 0)
            if span in self.traced:
                out[metric] = value
        return out

    def write_spans(self, path) -> None:
        keys = ("name", "start", "end", "parent", "thread")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    covered = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return covered
