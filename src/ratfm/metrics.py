"""Point-wise and threshold-free evaluation metrics plus aggregation.

The threshold-free metrics are a deterministic, self-contained variant
of volume-under-the-surface scoring: ground-truth spans are widened into
continuous labels with a sqrt-decay buffer, a soft-weighted ROC / PR
area is computed per buffer width, and the volume is the trapezoidal
mean of those areas over the width sweep.  Only points within the
widest buffer of a span carry label mass, so per width the volume does
full-length work only where its result is dense (see :func:`vus`); its
areas equal a dense per-width evaluation's bit for bit.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import (
    EmptyInputError,
    LengthMismatchError,
    NoPositiveMassError,
)

SCHEMA_VERSION = 1
METRIC_NAMES = ("f1", "precision", "recall", "vus_roc", "vus_pr")


@dataclass(frozen=True)
class GroundTruth:
    """Binary anomaly labels with their generating spans (local indices)."""

    labels: np.ndarray
    spans: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.uint8)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_spans(
        cls, spans, length: int, offset: int = 0
    ) -> "GroundTruth":
        """Clip absolute inclusive spans to [offset, offset+length) and localize."""
        labels = np.zeros(length, dtype=np.uint8)
        local = []
        for start, end in spans:
            lo = max(start - offset, 0)
            hi = min(end - offset, length - 1)
            if lo > hi:
                continue
            labels[lo : hi + 1] = 1
            local.append((lo, hi))
        return cls(labels=labels, spans=tuple(local))


def pointwise_prf(
    pred: np.ndarray, truth: np.ndarray
) -> tuple[float, float, float]:
    """Point-wise (precision, recall, F1) from binary vectors.

    Conventions: precision is 0 with no predicted positives, recall is 0
    with no true positives, and F1 is 0 when both are 0.
    """
    pred = np.asarray(pred).astype(bool)
    truth = np.asarray(truth).astype(bool)
    if pred.shape != truth.shape:
        raise LengthMismatchError(
            f"prediction and truth lengths differ: {pred.shape} vs {truth.shape}"
        )
    tp = float(np.sum(pred & truth))
    fp = float(np.sum(pred & ~truth))
    fn = float(np.sum(~pred & truth))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return precision, recall, f1


def continuous_labels(truth: GroundTruth, width: int) -> np.ndarray:
    """Soften binary labels with a sqrt-decay buffer of ``width`` steps.

    Inside any span the label is 1; at distance ``d`` beyond the nearest
    span boundary it is ``sqrt(max(0, 1 - d / width))``, taking the max
    over spans.  ``width=0`` reproduces the binary labels.
    """
    if width < 0:
        raise ValueError(f"width must be >= 0, got {width}")
    if not truth.spans:
        return np.zeros(len(truth.labels), dtype=np.float64)
    if width == 0:
        return truth.labels.astype(np.float64)
    dist = _span_distances(truth, np.arange(len(truth.labels)))
    return _decay(dist, width, out=dist)


def _span_distances(truth: GroundTruth, t: np.ndarray) -> np.ndarray:
    """Each index in ``t``'s distance to the nearest span (0 inside one)."""
    dist = np.full(len(t), np.inf)
    for start, end in truth.spans:
        d = np.maximum(np.maximum(start - t, t - end), 0)
        dist = np.minimum(dist, d)
    return dist


def _decay(dist: np.ndarray, width, out: np.ndarray) -> np.ndarray:
    """``sqrt(max(0, 1 - dist / width))`` elementwise, written into ``out``.

    ``width`` is an int or an array that broadcasts against ``dist``.
    """
    np.divide(dist, width, out=out)
    np.subtract(1.0, out, out=out)
    np.maximum(out, 0.0, out=out)
    return np.sqrt(out, out=out)


def _sorted_blocks(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable descending argsort of ``scores`` and the tie-block ends.

    The block ends index, in sorted order, the last point of each run of
    equal scores (ascending; the last is ``n - 1``).  NaNs sort last and,
    since ``NaN != NaN``, each is a block of its own.

    numpy's default sort is a few times faster than its stable one and
    leaves each run of equal scores contiguous, in no fixed order.  One
    sort of int64 keys (run number, then index) restores index order
    within the runs; for it the NaNs form one run.
    """
    order = np.argsort(-scores)
    ranked = scores[order]
    starts = ranked[1:] != ranked[:-1]
    block_end = np.flatnonzero(np.append(starts, True))
    starts[len(ranked) - np.count_nonzero(np.isnan(ranked)) :] = False
    if not starts.all():
        key = np.zeros(len(ranked), dtype=np.int64)
        np.cumsum(starts, out=key[1:])
        key *= len(ranked)
        key += order
        key.sort()
        np.remainder(key, len(ranked), out=order)
    return order, block_end


def auc_weighted(scores: np.ndarray, soft_labels: np.ndarray, kind: str) -> float:
    """Soft-weighted area under the ROC or PR curve.

    Thresholds sweep the sorted unique score values (plus a +inf
    sentinel); at each threshold the true/false-positive masses are the
    sums of ``soft`` and ``1 - soft`` over points at or above it, and
    the area is a trapezoid over the resulting curve.  Only the ordering
    of the scores matters.  When the labels carry no negative mass both
    areas are 1.0 by convention (no false positive is possible).
    """
    if kind not in ("roc", "pr"):
        raise ValueError(f"kind must be 'roc' or 'pr', got {kind!r}")
    scores = np.asarray(scores, dtype=np.float64)
    soft_labels = np.asarray(soft_labels, dtype=np.float64)
    if scores.shape != soft_labels.shape or scores.ndim != 1:
        raise LengthMismatchError(
            f"scores and labels lengths differ: {scores.shape} vs {soft_labels.shape}"
        )
    if float(soft_labels.sum()) <= 0.0:
        raise NoPositiveMassError("soft labels sum to zero")
    if float(np.sum(1.0 - soft_labels)) <= 0.0:
        return 1.0
    order, block_end = _sorted_blocks(scores)
    plan = _kernels.AreaPlan(block_end, np.arange(len(scores)))
    roc, pr = _kernels.weighted_areas(soft_labels[order], plan)
    return roc if kind == "roc" else pr


# Bounds the (widths, near points) block of soft labels vus decays at once.
_LABEL_BLOCK = 1 << 16


def vus(
    scores: np.ndarray,
    truth: GroundTruth,
    w_max: int,
    steps: int,
) -> tuple[float, float]:
    """(VUS-ROC, VUS-PR): trapezoidal mean of the areas over buffer widths.

    Buffer widths are ``steps + 1`` evenly spaced values from 0 to
    ``w_max``, rounded to integers and deduplicated; ``w_max=0``
    degenerates to the plain soft-label-free areas.  Each width's areas
    equal :func:`auc_weighted` on :func:`continuous_labels` bit for bit.

    Distances to the spans are integers, so a point's label is non-zero
    at some width only when it lies within ``max(w_max, 1) - 1`` of a
    span: on an archive series, a few hundred of some 200 000 points.
    The scores are sorted once, and those near points, their sorted
    positions and their distances are found once.  Each width then
    decays the near points' labels (many widths per numpy call) and
    calls :func:`_kernels.weighted_areas`.  There, only the
    false-positive cumulative sum and the two curves' gathers,
    normalization and ROC trapezoid are full length; the true-positive
    masses come from the near points, and the PR terms are computed
    only at blocks that hold a near point.  Every other PR term is an
    exact 0.0, so the zero-filled term array that is summed equals a
    dense evaluation's, and so does its sum.  Width 0's binary labels are width 1's decay:
    ``sqrt(max(0, 1 - d))`` is 1 at ``d = 0`` and 0 at any integer
    ``d >= 1``.

    The labels lie in [0, 1], so the mass checks need no labels: some
    positive mass exists at every width if some point is in a span (at
    distance 0), and no width has negative mass only if every point is.
    """
    if w_max < 0:
        raise ValueError(f"w_max must be >= 0, got {w_max}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    values = np.asarray(scores, dtype=np.float64)
    n = len(truth.labels)
    if values.shape != (n,):
        raise LengthMismatchError(
            f"scores and labels lengths differ: {values.shape} vs {(n,)}"
        )
    if not truth.spans:
        raise NoPositiveMassError("soft labels sum to zero")
    order, block_end = _sorted_blocks(values)
    reach = max(w_max, 1)
    close = np.zeros(n, dtype=bool)
    for start, end in truth.spans:
        close[max(start - reach + 1, 0) : max(end + reach, 0)] = True
    near = np.flatnonzero(close[order])
    # near distances are integers below ``reach``; int32 holds them exactly
    # in half the bytes, and the decay divides them in float64
    dist = _span_distances(truth, order[near]).astype(np.int32)
    # the permutation is spent; free it before the plan's buffers exist
    del order, close
    if not len(near) or dist.min() > 0:
        raise NoPositiveMassError("soft labels sum to zero")
    if len(near) == n and dist.max() == 0:
        return 1.0, 1.0
    plan = _kernels.AreaPlan(block_end, near)
    widths = np.unique(np.rint(np.linspace(0.0, w_max, steps + 1)).astype(int))
    rocs = np.empty(len(widths))
    prs = np.empty(len(widths))
    rows = max(1, _LABEL_BLOCK // len(near))
    soft = np.empty((min(rows, len(widths)), len(near)))
    for lo in range(0, len(widths), rows):
        scale = np.maximum(widths[lo : lo + rows, None], 1)
        labels = _decay(dist, scale, out=soft[: len(scale)])
        for i, row in enumerate(labels, lo):
            rocs[i], prs[i] = _kernels.weighted_areas(row, plan)
    if len(widths) == 1:
        return float(rocs[0]), float(prs[0])
    span = float(widths[-1] - widths[0])
    return (
        float(np.trapezoid(rocs, widths) / span),
        float(np.trapezoid(prs, widths) / span),
    )


def bootstrap(
    values: np.ndarray, iterations: int, seed: int
) -> tuple[float, float]:
    """Mean and std of resample means (sampling with replacement)."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        raise EmptyInputError("bootstrap needs at least one value")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(values), size=(iterations, len(values)))
    means = values[idx].mean(axis=1)
    return float(means.mean()), float(means.std())


@dataclass
class ScoreDump:
    """Per-series score arrays kept for CSV emission (not serialized)."""

    t_absolute_start: int
    raw: np.ndarray
    smoothed: np.ndarray
    labels: np.ndarray
    threshold: float


@dataclass
class EvalReport:
    """Per-series, per-domain, and global metrics for one run."""

    setting: str
    per_series: dict[str, dict] = field(default_factory=dict)
    per_domain: dict[str, dict] = field(default_factory=dict)
    overall: dict = field(default_factory=dict)
    bootstrap: dict[str, dict] | None = None
    skipped: dict[str, str] = field(default_factory=dict)
    config: dict | None = None
    training: dict | None = None
    score_dumps: dict[str, ScoreDump] = field(default_factory=dict, repr=False)

    def finalize(self, bootstrap_iterations: int = 0, seed: int = 0) -> None:
        """Compute domain/global aggregates (arithmetic means) and bootstrap."""
        self.per_series = dict(sorted(self.per_series.items()))
        self.skipped = dict(sorted(self.skipped.items()))
        by_domain: dict[str, list[dict]] = {}
        for rec in self.per_series.values():
            by_domain.setdefault(rec["domain"], []).append(rec)
        self.per_domain = {
            dom: {
                "n_series": len(recs),
                **{
                    m: float(np.mean([r[m] for r in recs]))
                    for m in METRIC_NAMES
                },
            }
            for dom, recs in sorted(by_domain.items())
        }
        if self.per_series:
            recs = list(self.per_series.values())
            self.overall = {
                "n_series": len(recs),
                **{m: float(np.mean([r[m] for r in recs])) for m in METRIC_NAMES},
            }
        else:
            self.overall = {"n_series": 0}
        if bootstrap_iterations and self.per_series:
            self.bootstrap = {}
            for i, m in enumerate(METRIC_NAMES):
                vals = np.array([r[m] for r in self.per_series.values()])
                mean, std = bootstrap(vals, bootstrap_iterations, seed * 101 + i)
                self.bootstrap[m] = {"mean": mean, "std": std}

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "setting": self.setting,
            "per_series": self.per_series,
            "per_domain": self.per_domain,
            "global": self.overall,
            "bootstrap": self.bootstrap,
            "skipped": self.skipped,
            "training": self.training,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write_per_series_csv(self, path: str | Path) -> None:
        cols = ["series_id", "domain", *METRIC_NAMES, "threshold", "n_windows"]
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for sid, rec in self.per_series.items():
                writer.writerow(
                    [sid, rec["domain"]]
                    + [repr(float(rec[m])) for m in METRIC_NAMES]
                    + [repr(float(rec["threshold"])), rec["n_windows"]]
                )
