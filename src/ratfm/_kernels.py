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


def sma_trailing(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean over ``window`` points, partial at the head.

    Costs O(n * window): ``window`` vector additions over the series,
    since the pinned summation order rules out a running sum.  One call
    on 1e6 points with window 1000 takes 0.86-0.92 s (five calls, 2-CPU
    Xeon VM, numpy 2.4).
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
    if size >= n:
        main = np.zeros(size - n + 1, dtype=np.float64)
        # full windows: newest sample first
        for i in range(n):
            main += values[n - 1 - i : size - i]
        out[n - 1 :] = main / n
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


def weighted_areas(
    soft_desc: np.ndarray, block_end: np.ndarray, work: np.ndarray | None = None
) -> tuple[float, float]:
    """(ROC area, PR area) from soft labels in descending-score order.

    ``block_end`` indexes the last point of each block of tied scores,
    ascending and ending at ``n - 1``, so the sweep visits each block
    once; curves start at the +inf sentinel (TPR=FPR=0, precision=1) and
    end with every point included.  Requires positive total mass on both
    ``soft`` and ``1 - soft``; the caller handles the degenerate cases.

    ``work`` is an optional ``(5, n + 1)`` float64 scratch array; callers
    that score several label vectors of one length pass the same one, so
    no call allocates.  Each trapezoid is evaluated in ``np.trapezoid``'s
    operation order, ``(diff(x) * (y[1:] + y[:-1]) / 2.0).sum()``, so the
    areas equal that formula on freshly allocated curves bit for bit.
    """
    n = len(soft_desc)
    m = len(block_end)
    if work is None:
        work = np.empty((5, n + 1))
    run, cum = work[0, :n], work[1, :n]
    tpr, fpr, prec = work[2, : m + 1], work[3, : m + 1], work[4, : m + 1]
    tp, fp = tpr[1:], fpr[1:]
    np.subtract(1.0, soft_desc, out=run)
    np.cumsum(run, out=cum)
    # take's default mode="raise" copies through a temporary when given
    # out=; the block ends are in range, so "clip" gathers the same values
    np.take(cum, block_end, out=fp, mode="clip")
    np.cumsum(soft_desc, out=run)
    np.take(run, block_end, out=tp, mode="clip")
    np.add(tp, fp, out=prec[1:])
    np.divide(tp, prec[1:], out=prec[1:])
    pos = tp[-1]
    neg = fp[-1]
    np.divide(tp, pos, out=tp)
    np.divide(fp, neg, out=fp)
    tpr[0] = fpr[0] = 0.0
    prec[0] = 1.0
    # the cumulative sums are spent: their rows hold the trapezoid terms
    diff, mean = run[:m], cum[:m]
    areas = []
    for x, y in ((fpr, tpr), (tpr, prec)):
        np.subtract(x[1:], x[:-1], out=diff)
        np.add(y[1:], y[:-1], out=mean)
        np.multiply(diff, mean, out=diff)
        np.divide(diff, 2.0, out=diff)
        areas.append(float(diff.sum()))
    return areas[0], areas[1]


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
