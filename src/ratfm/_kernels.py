"""Hot numeric kernels in numpy.

``sma_trailing`` pins its summation order: each output point's window sum
is accumulated freshly, from the newest sample backwards.  A running sum
(cumsum differences) would be O(n) but drifts with round-off, so its
results would no longer match a literal evaluation of the trailing-mean
formula bit for bit; the tests and the acceptance criteria require that
match, so the smoothed scores and every metric built on them are exactly
reproducible.

Callers look these functions up as ``_kernels.<name>``, so each can be
wrapped in one place (for example by a tracer).
"""

from __future__ import annotations

import numpy as np


# outputs per block of sma_trailing's full windows: the block's 256 KiB of
# sums and the ~256 KiB of input its lags read stay in a 2 MiB L2.  On
# 200 000 points, window 96, best of 7: 8.7 ms at 8 192 outputs, 5.9 ms at
# 32 768, 5.8 ms at 65 536 and 14.7 ms in one block
_SMA_BLOCK = 1 << 15


def sma_trailing(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean over ``window`` points, partial at the head.

    Costs O(n * window), since the pinned summation order rules out a
    running sum.  The full windows are summed in blocks of
    :data:`_SMA_BLOCK` outputs, each block adding its ``window`` lagged
    slices newest first, so the block's sums and inputs stay in cache;
    one pass per lag over the whole series would read the series and the
    sums from memory ``window`` times.  One call on 1e6 points with
    window 1000 took 0.35-0.38 s, against 0.82-0.83 s in one pass per
    lag (fastest and median of 5, 2-CPU Xeon VM with 2 MiB of L2 per
    core, numpy 2.4).
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = window
    size = values.shape[0]
    out = np.zeros(size, dtype=np.float64)
    head = min(n - 1, size)
    # partial head: out[t] = (x[t] + x[t-1] + ... + x[0]) / (t+1)
    for i in range(head):
        out[i:head] += values[: head - i]
    if head:
        out[:head] /= np.arange(1, head + 1, dtype=np.float64)
    sums = np.empty(min(_SMA_BLOCK, max(size - n + 1, 0)), dtype=np.float64)
    for lo in range(n - 1, size, _SMA_BLOCK):
        hi = min(lo + _SMA_BLOCK, size)
        block = sums[: hi - lo]
        # full windows: newest sample first
        block.fill(0.0)
        for i in range(n):
            block += values[lo - i : hi - i]
        np.divide(block, n, out=out[lo:hi])
    return out


# No library code calls this; perfbench/selftest.py deletes and restores it.
def best_lag_batch(cc: np.ndarray) -> np.ndarray:
    """Per row of a (rows, lags) matrix, the index of its maximal entry.

    Each row holds a zero-padded cross-correlation sequence ordered from
    lag -(L-1) to +(L-1); index j maps to lag j - (L-1).  Ties are broken
    toward the smaller |lag|, then toward the negative lag.
    """
    cc = np.asarray(cc, dtype=np.float64)
    half = (cc.shape[1] - 1) // 2
    lags = np.arange(-half, half + 1)
    order = np.lexsort((lags >= 0, np.abs(lags)))
    return order[np.argmax(cc[:, order], axis=1)].astype(np.int64)


class AreaPlan:
    """Index sets and buffers that :func:`weighted_areas` reuses on one order.

    ``block_end`` indexes, in descending-score order, the last point of
    each block of tied scores, ascending and ending at ``n - 1``.
    ``near`` lists, ascending, the sorted positions whose soft labels may
    be non-zero; every other label must be exactly 0.

    Curve point ``c > 0`` follows block ``c - 1``; point 0 is the +inf
    sentinel (no point included).  A block without a near point adds no
    true-positive mass, so the PR trapezoid's term over it is an exact
    0.0: its recall difference is ``x - x``.  ``at`` holds the curve
    points such a term may need, those after a near block and before it,
    plus point 0; between two consecutive entries of ``at`` there is
    either one block, or only blocks without near points.
    """

    def __init__(self, block_end: np.ndarray, near: np.ndarray) -> None:
        m, k, n = len(block_end), len(near), int(block_end[-1]) + 1
        self.near = near
        self.block_end = block_end
        # near points at or before each block end: an index into tp_buf
        self.tp_at = np.searchsorted(near, block_end, "right")
        # curve points before and after each near point's block; the
        # temporaries are freed before the buffers below exist
        after = np.searchsorted(block_end, near)
        marks = np.zeros(m + 1, dtype=bool)
        marks[0] = marks[after] = marks[after + 1] = True
        del after
        at = np.flatnonzero(marks)
        del marks
        u = len(at)
        self.at_head, self.at_tail = at[:-1], at[1:]
        # fp_buf holds 1 - soft, then its cumulative sum, then the recall
        # at ``at``; tp_buf leads with a 0 that is never written (no near
        # point yet), then holds 1 - soft at the near points, then their
        # cumulative soft mass, then the precision at ``at``.
        fp_buf = np.empty(max(n, u))
        self.tp_buf = tp_buf = np.zeros(max(k, u) + 1)
        self.run, self.near_mass = fp_buf[:n], tp_buf[1 : k + 1]
        self.recall, self.precision = recall, precision = fp_buf[:u], tp_buf[1 : u + 1]
        self.pr = (recall[1:], recall[:-1], precision[1:], precision[:-1])
        self.curves = np.empty((2, m + 1))
        tp, fp = self.curves
        self.tp_tail, self.fp_tail = tp[1:], fp[1:]
        self.terms = tp[:-1]
        self.roc = (fp[1:], fp[:-1], tp[1:], tp[:-1])


def weighted_areas(soft: np.ndarray, plan: AreaPlan) -> tuple[float, float]:
    """(ROC area, PR area) from the soft labels at ``plan.near``.

    The labels are in descending-score order; all others are 0.  Curves
    start at the +inf sentinel (TPR=FPR=0, precision=1) and end with
    every point included.  Requires positive total mass on both ``soft``
    and ``1 - soft``; the caller handles the degenerate cases.

    Full-length work is filling and cumulatively summing ``1 - soft``,
    gathering and normalizing the two curves at the block ends, the ROC
    trapezoid, and zeroing the PR terms.  The true-positive masses are a
    cumulative sum over the near points, gathered at the block ends.
    The PR terms are computed at ``plan.at`` only and written into a
    zeroed array of one term per block, which is then summed: the array
    equals a dense evaluation's, so its sum does too.  Each trapezoid is
    evaluated in ``np.trapezoid``'s operation order,
    ``(diff(x) * (y[1:] + y[:-1]) / 2.0).sum()``, so the areas equal that
    formula on freshly allocated curves bit for bit.
    """
    # ufunc methods and ndarray.take skip numpy's Python-level wrappers,
    # which cost as much as the work on a series of a few hundred points
    run, near_mass = plan.run, plan.near_mass
    np.subtract(1.0, soft, out=near_mass)
    run.fill(1.0)
    run[plan.near] = near_mass
    np.add.accumulate(run, out=run)
    np.add.accumulate(soft, out=near_mass)
    # take's default mode="raise" copies through a temporary when given
    # out=; the indices are in range, so "clip" gathers the same values
    plan.tp_buf.take(plan.tp_at, out=plan.tp_tail, mode="clip")
    run.take(plan.block_end, out=plan.fp_tail, mode="clip")
    tp, fp = plan.curves
    tp[0] = fp[0] = 0.0
    pos, neg = tp[-1], fp[-1]
    # recall and precision at plan.at, precision from the raw masses;
    # at[0] is the sentinel, set apart since its precision is not 0 / 0
    recall_tail, precision_tail = plan.pr[0], plan.pr[2]
    tp.take(plan.at_tail, out=recall_tail, mode="clip")
    fp.take(plan.at_tail, out=precision_tail, mode="clip")
    np.add(recall_tail, precision_tail, out=precision_tail)
    np.divide(recall_tail, precision_tail, out=precision_tail)
    plan.recall[0], plan.precision[0] = 0.0, 1.0
    np.divide(plan.recall, pos, out=plan.recall)
    np.divide(tp, pos, out=tp)
    np.divide(fp, neg, out=fp)
    roc = float(np.add.reduce(_trapezoid_terms(*plan.roc)))
    # the curves are spent: tp[:-1] holds the zeroed PR terms
    terms = plan.terms
    terms.fill(0.0)
    terms[plan.at_head] = _trapezoid_terms(*plan.pr)
    return roc, float(np.add.reduce(terms))


def _trapezoid_terms(
    x_hi: np.ndarray, x_lo: np.ndarray, y_hi: np.ndarray, y_lo: np.ndarray
) -> np.ndarray:
    """``(x_hi - x_lo) * (y_hi + y_lo) / 2.0``, written over ``x_lo`` and ``y_lo``.

    The pairs are ``v[1:]`` and ``v[:-1]`` of one array each.  Each output
    element is written after the inputs it reads, so numpy evaluates
    these overlapping operations in place, without copies.
    """
    np.subtract(x_hi, x_lo, out=x_lo)
    np.add(y_hi, y_lo, out=y_lo)
    np.multiply(x_lo, y_lo, out=x_lo)
    return np.divide(x_lo, 2.0, out=x_lo)


def lag0_scan(haystack: np.ndarray, needle: np.ndarray) -> tuple[float, int]:
    """Best lag-0 normalized correlation of ``needle`` over all offsets.

    Returns (score, offset).  Zero-norm segments score -2.0 so they can
    never win; a zero-norm needle gives (-2.0, 0).  The caller treats a
    best score below -1 as "no valid segment".
    """
    haystack = np.ascontiguousarray(haystack, dtype=np.float64)
    needle = np.ascontiguousarray(needle, dtype=np.float64)
    m = needle.shape[0]
    if haystack.shape[0] < m:
        raise ValueError("haystack shorter than needle")
    needle_norm = float(np.linalg.norm(needle))
    if needle_norm == 0.0:
        return -2.0, 0
    windows = np.lib.stride_tricks.sliding_window_view(haystack, m)
    dots = windows @ needle
    norms = np.sqrt(np.einsum("ij,ij->i", windows, windows))
    scores = np.full(dots.shape[0], -2.0)
    ok = norms > 0.0
    scores[ok] = dots[ok] / (norms[ok] * needle_norm)
    best = int(np.argmax(scores))
    return float(scores[best]), best
