"""Independent brute-force oracles used to pin expected values.

Everything here recomputes contracts from first principles (direct
sums, exhaustive enumeration, augmented least squares) and must stay
independent of the library implementations it checks.
"""

from __future__ import annotations

import math

import numpy as np


def ncc_direct(x: np.ndarray, y: np.ndarray) -> tuple[float, int]:
    """Max normalized cross-correlation by direct O(L^2) lag scan.

    Lags are visited in the tie-break priority order: smaller |lag|
    first, negative before positive; a later lag wins only strictly.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    L = len(x)
    denom = float(np.linalg.norm(x)) * float(np.linalg.norm(y))
    best = -math.inf
    best_lag = 0
    for lag in sorted(range(-(L - 1), L), key=lambda k: (abs(k), k >= 0)):
        if lag >= 0:
            cc = float(np.dot(x[lag:], y[: L - lag]))
        else:
            cc = float(np.dot(x[: L + lag], y[-lag:]))
        if cc > best:
            best = cc
            best_lag = lag
    return best / denom, best_lag


def exhaustive_scores(query, entries) -> np.ndarray:
    """Every entry's max-NCC score against ``query.input``, all rows at once.

    The arithmetic retrieval applies per block (one zero-padded FFT
    correlation per row, the larger peak of the two lag ranges, divided
    by both norms), without any pruning; entries of the query's series
    and all-zero entries score ``-inf``.
    """
    q = np.asarray(query.input, dtype=np.float64)
    stack = np.stack([np.asarray(e.input, dtype=np.float64) for e in entries])
    L = len(q)
    nfft = 1 << (2 * L - 1).bit_length()
    circ = np.fft.irfft(
        np.fft.rfft(q, nfft) * np.conj(np.fft.rfft(stack, nfft, axis=1)), nfft, axis=1
    )
    peaks = np.maximum(circ[:, :L].max(axis=1), circ[:, nfft - L + 1 :].max(axis=1))
    norms = np.linalg.norm(stack, axis=1)
    usable = (norms > 0) & np.array([e.series_id != query.series_id for e in entries])
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = peaks / (np.linalg.norm(q) * norms)
    return np.where(usable, scores, -np.inf)


def exhaustive_best(scores: np.ndarray, subset) -> int | None:
    """Lowest index of the highest of ``scores[subset]``; None if all ``-inf``."""
    subset = np.asarray(subset)
    if not len(subset) or np.all(scores[subset] == -np.inf):
        return None
    return int(subset[np.argmax(scores[subset])])


def confusion_prf(pred, truth) -> tuple[float, float, float]:
    tp = fp = fn = 0
    for p, t in zip(pred, truth):
        if p and t:
            tp += 1
        elif p and not t:
            fp += 1
        elif t and not p:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def soft_labels_direct(spans, n: int, width: int) -> np.ndarray:
    """Per-point closed-form evaluation of the sqrt-decay buffer labels."""
    out = np.zeros(n)
    for t in range(n):
        best = 0.0
        for start, end in spans:
            if start <= t <= end:
                d = 0
            elif t < start:
                d = start - t
            else:
                d = t - end
            if d == 0:
                val = 1.0
            elif width == 0:
                val = 0.0
            else:
                val = math.sqrt(max(0.0, 1.0 - d / width))
            best = max(best, val)
        out[t] = best
    return out


def auc_enum(scores: np.ndarray, soft: np.ndarray, kind: str) -> float:
    """Exhaustive threshold-enumeration soft-weighted ROC / PR area."""
    scores = np.asarray(scores, dtype=np.float64)
    soft = np.asarray(soft, dtype=np.float64)
    pos = float(np.sum(soft))
    neg = float(np.sum(1.0 - soft))
    if neg <= 0.0:
        return 1.0
    points = [(0.0, 0.0, 1.0)]  # (fpr, tpr, precision) at the +inf sentinel
    for theta in sorted(set(scores.tolist()), reverse=True):
        mask = scores >= theta
        tp = float(np.sum(soft[mask]))
        fp = float(np.sum((1.0 - soft)[mask]))
        points.append((fp / neg, tp / pos, tp / (tp + fp)))
    roc = 0.0
    pr = 0.0
    for (f0, t0, p0), (f1, t1, p1) in zip(points, points[1:]):
        roc += (f1 - f0) * (t1 + t0) / 2.0
        pr += (t1 - t0) * (p1 + p0) / 2.0
    return roc if kind == "roc" else pr


def vus_enum(scores, spans, n: int, w_max: int, steps: int) -> tuple[float, float]:
    """Per-slice recomputation of the buffer-width volume."""
    widths = sorted(set(int(round(w)) for w in np.linspace(0.0, w_max, steps + 1)))
    rocs = []
    prs = []
    for w in widths:
        soft = soft_labels_direct(spans, n, w)
        rocs.append(auc_enum(scores, soft, "roc"))
        prs.append(auc_enum(scores, soft, "pr"))
    if len(widths) == 1:
        return rocs[0], prs[0]
    roc = pr = 0.0
    for i in range(len(widths) - 1):
        dw = widths[i + 1] - widths[i]
        roc += dw * (rocs[i + 1] + rocs[i]) / 2.0
        pr += dw * (prs[i + 1] + prs[i]) / 2.0
    span = widths[-1] - widths[0]
    return roc / span, pr / span


class ReferenceMassError(Exception):
    """The reference's soft labels sum to zero at some width."""


def vus_reference(scores, truth, w_max: int, steps: int) -> tuple[float, float]:
    """The volume computed the straightforward way, frozen for exact pins.

    Per width: full-length soft labels, gathered into stable descending
    score order, cumulative masses gathered at the tie-block ends, and
    curves built with ``np.concatenate`` and integrated with
    ``np.trapezoid``.  Raises :class:`ReferenceMassError` where no span
    gives the labels positive mass; widths whose labels are all 1 score
    (1.0, 1.0).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(truth.labels)
    order = np.argsort(-scores, kind="stable")
    widths = np.unique(np.rint(np.linspace(0.0, w_max, steps + 1)).astype(int))
    t = np.arange(len(labels))
    dist = np.full(len(t), np.inf)
    for start, end in truth.spans:
        dist = np.minimum(dist, np.maximum(np.maximum(start - t, t - end), 0))
    rocs = np.empty(len(widths))
    prs = np.empty(len(widths))
    for i, w in enumerate(widths):
        if not truth.spans:
            soft = np.zeros(len(dist))
        elif w == 0:
            soft = labels.astype(np.float64)
        else:
            soft = np.sqrt(np.clip(1.0 - dist / int(w), 0.0, None))
        if float(soft.sum()) <= 0.0:
            raise ReferenceMassError("soft labels sum to zero")
        if float(np.sum(1.0 - soft)) <= 0.0:
            rocs[i] = prs[i] = 1.0
            continue
        s = scores[order]
        y = soft[order]
        tp_run = np.cumsum(y)
        fp_run = np.cumsum(1.0 - y)
        block_end = np.nonzero(np.append(s[1:] != s[:-1], True))[0]
        tp = tp_run[block_end]
        fp = fp_run[block_end]
        tpr = np.concatenate(([0.0], tp / tp[-1]))
        fpr = np.concatenate(([0.0], fp / fp[-1]))
        prec = np.concatenate(([1.0], tp / (tp + fp)))
        rocs[i] = float(np.trapezoid(tpr, fpr))
        prs[i] = float(np.trapezoid(prec, tpr))
    if len(widths) == 1:
        return float(rocs[0]), float(prs[0])
    span = float(widths[-1] - widths[0])
    return (
        float(np.trapezoid(rocs, widths) / span),
        float(np.trapezoid(prs, widths) / span),
    )


def sma_formula(values: np.ndarray, window: int) -> np.ndarray:
    """Literal trailing-mean formula, averaging available points at the head.

    Sums walk from the newest sample backwards, mirroring the formula's
    index order, so comparisons can be exact.
    """
    out = np.empty(len(values), dtype=np.float64)
    for t in range(len(values)):
        k = min(window, t + 1)
        acc = 0.0
        for i in range(k):
            acc += float(values[t - i])
        out[t] = acc / k
    return out


def ridge_lstsq(A: np.ndarray, Y: np.ndarray, reg: float) -> np.ndarray:
    """Ridge solution via the augmented least-squares system (not normal
    equations); returns the (dim, horizon) coefficient matrix."""
    n, d = A.shape
    A_aug = np.vstack([A, math.sqrt(reg) * np.eye(d)])
    Y_aug = np.vstack([Y, np.zeros((d, Y.shape[1]))])
    coef, *_ = np.linalg.lstsq(A_aug, Y_aug, rcond=None)
    return coef


def mu_3sigma_labels(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Threshold rule recomputed with compensated summation."""
    n = len(values)
    mean = math.fsum(float(v) for v in values) / n
    var = math.fsum((float(v) - mean) ** 2 for v in values) / n
    threshold = mean + 3.0 * math.sqrt(var)
    labels = np.array([1 if float(v) > threshold else 0 for v in values], dtype=np.uint8)
    return labels, threshold


def refine_peak_dense(centered: np.ndarray, k_star: int) -> float:
    """Two-stage fine-grid spectral peak from a dense (41, n) DTFT matrix.

    Stage one steps 0.05 bins over [k_star - 1, k_star + 1], stage two
    0.005 bins around its winner; each grid is clamped to [0.5, n / 2]
    and the first maximal |DTFT| wins.  The matrix is formed a block of
    rows at a time, at most 2**20 entries each (the whole of it up to
    n = 25 575), so a million-point series needs ~50 MB, not 2 GB.
    """
    n = len(centered)
    t = np.arange(n)
    rows = max(1, 2**20 // n)
    best = float(k_star)
    half_width = 1.0
    for _ in range(2):
        lo = max(best - half_width, 0.5)
        hi = min(best + half_width, n / 2)
        grid = np.linspace(lo, hi, 41)
        response = np.concatenate([
            np.abs(np.exp(-2j * np.pi * np.outer(grid[i : i + rows], t) / n) @ centered)
            for i in range(0, len(grid), rows)
        ])
        best = float(grid[np.argmax(response)])
        half_width /= 10.0
    return best


def phase_powers_exact(phase: np.ndarray, count: int) -> np.ndarray:
    """``exp(1j * phase[g] * k)`` for k < ``count``, with each phase * k exact.

    A float64 product phase * k rounds by up to 2**-53 of itself, 2e-9 at
    the outer table's phases of n = 10**7.  Veltkamp's split writes each
    phase as hi + lo with at most 26 significant bits each, so hi * k and
    lo * k are exact for k < 2**26 and the result is within
    4 * 2**-52 of the exact exponential: two exponentials and one multiply.
    """
    split = phase * (2.0**27 + 1)
    hi = split - (split - phase)
    lo = phase - hi
    k = np.arange(count)
    return np.exp(1j * np.outer(hi, k)) * np.exp(1j * np.outer(lo, k))
