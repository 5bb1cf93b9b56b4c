"""Anomaly scores, period estimation, smoothing, and thresholding.

Scores are per-point absolute deviations between a forecast (or
reconstruction) and the observed values, held in 1-d float64 arrays.
Raw scores are smoothed with a trailing simple moving average whose
window defaults to the series period estimated from the training
region, then binarized at mean + 3 * std.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import orjson

from . import _kernels
from .errors import (
    InvalidWindowError,
    LengthMismatchError,
    SeriesTooShortError,
)

DEFAULT_DOMINANCE_THRESHOLD = 4.0
DEFAULT_FALLBACK_PERIOD = 10

# rows per write in dump_scores_csv; bounds the text held at once
_CSV_CHUNK_ROWS = 1 << 15


@dataclass(frozen=True)
class PeriodEstimate:
    """Dominant period with the spectral peak-to-mean ratio behind it."""

    period: int
    dominance: float
    fallback_used: bool


def anomaly_scores(forecast: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-point absolute deviation |forecast - truth|.

    The same contract serves reconstruction outputs: pass the
    reconstructed values as ``forecast``.
    """
    forecast = np.asarray(forecast, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if forecast.shape != truth.shape or forecast.ndim != 1 or len(forecast) < 1:
        raise LengthMismatchError(
            f"need equal-length 1-d vectors, got {forecast.shape} / {truth.shape}"
        )
    return np.abs(forecast - truth)


def estimate_period(train_values: np.ndarray) -> PeriodEstimate:
    """Dominant period of a signal from its Fourier magnitude spectrum.

    The peak bin of the mean-removed spectrum is refined by a fine
    frequency grid around it (a true sinusoid's period need not divide
    the signal length, so the integer bin alone can be off by one) and
    converted to ``round(N / f)``, clamped to [2, N // 2].  A peak whose
    magnitude is below :data:`DEFAULT_DOMINANCE_THRESHOLD` times the mean
    magnitude marks the signal as aperiodic and falls back to
    :data:`DEFAULT_FALLBACK_PERIOD`.
    """
    x = np.asarray(train_values, dtype=np.float64)
    n = len(x)
    if n < 8:
        raise SeriesTooShortError(f"need at least 8 points, got {n}")
    centered = x - x.mean()
    amp = np.abs(np.fft.rfft(centered))
    band = amp[1 : n // 2 + 1]
    scale = max(1.0, float(np.abs(x).max()))
    if band.max() <= 1e-12 * scale * n:
        return PeriodEstimate(
            period=DEFAULT_FALLBACK_PERIOD, dominance=0.0, fallback_used=True
        )
    k_star = 1 + int(np.argmax(band))
    dominance = float(band[k_star - 1] / band.mean())
    if dominance < DEFAULT_DOMINANCE_THRESHOLD:
        return PeriodEstimate(
            period=DEFAULT_FALLBACK_PERIOD, dominance=dominance, fallback_used=True
        )
    freq = _refine_peak(centered, k_star)
    period = int(round(n / freq))
    period = max(2, min(period, n // 2))
    return PeriodEstimate(period=period, dominance=dominance, fallback_used=False)


def _refine_peak(centered: np.ndarray, k_star: int) -> float:
    """Locate the spectral peak on a fine frequency grid around bin k_star.

    Two zoom stages (0.05-bin then 0.005-bin steps) evaluate |DTFT| at 41
    grid frequencies each.  Each evaluation is factorised in blocks: with
    t = B*q + r and B = ceil(sqrt(n)), ``centered`` is zero-padded into a
    (Q, B) matrix X, X[q, r] = centered[B*q + r], and

        DTFT(g) = sum_q exp(-2 pi i g B q / n) * sum_r exp(-2 pi i g r / n) X[q, r],

    so a stage costs 41 * (B + Q) complex exponentials and one
    (41, B) x (B, Q) product in real arithmetic.  Beyond ``centered``
    the memory is X (n floats) plus O(41 * sqrt(n)), not a 41 x n
    complex matrix (0.66 GB at n = 1e6).
    """
    n = len(centered)
    block = math.isqrt(n - 1) + 1
    n_blocks = -(-n // block)
    x = np.zeros(n_blocks * block)
    x[:n] = centered
    xt = x.reshape(n_blocks, block).T
    r = np.arange(block)
    q_start = block * np.arange(n_blocks)
    best = float(k_star)
    half_width = 1.0
    for _ in range(2):
        lo = max(best - half_width, 0.5)
        hi = min(best + half_width, n / 2)
        grid = np.linspace(lo, hi, 41)
        inner = np.exp(-2j * np.pi * np.outer(grid, r) / n)
        partial = inner.real @ xt + 1j * (inner.imag @ xt)
        outer = np.exp(-2j * np.pi * np.outer(grid, q_start) / n)
        response = np.abs(np.sum(partial * outer, axis=1))
        best = float(grid[np.argmax(response)])
        half_width /= 10.0
    return best


def sma_smooth(scores: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average of the scores.

    For ``t >= window - 1`` the output is the exact mean of the last
    ``window`` scores; earlier points average whatever is available so
    the series keeps its length and stays causal.
    """
    if window < 1:
        raise InvalidWindowError(f"window must be >= 1, got {window}")
    return _kernels.sma_trailing(scores, window)


def threshold_labels(scores: np.ndarray) -> tuple[np.ndarray, float]:
    """Binarize scores at mean + 3 * population std (strictly above)."""
    values = np.asarray(scores, dtype=np.float64)
    if len(values) < 2:
        raise SeriesTooShortError(
            f"need at least 2 scores to form a threshold, got {len(values)}"
        )
    threshold = float(values.mean() + 3.0 * values.std())
    labels = (values > threshold).astype(np.uint8)
    return labels, threshold


def _float_reprs(values: np.ndarray) -> list[str]:
    """``repr`` of each float64 in ``values``, formatted by orjson.

    orjson and ``repr`` both write the shortest digits that round-trip,
    closest to the exact value with ties to even, and write them the
    same way for zero and for ``1e-4 <= |v| < 1e16``; every other value
    (small, huge, subnormal, NaN, infinite) goes through ``repr``.
    """
    if not len(values):
        return []
    out = orjson.dumps(values.tolist())[1:-1].decode().split(",")
    mag = np.abs(values)
    for i in np.flatnonzero((values != 0.0) & ~((mag >= 1e-4) & (mag < 1e16))):
        out[i] = repr(float(values[i]))
    return out


def dump_scores_csv(
    path: str | Path,
    series_id: str,
    t_absolute_start: int,
    raw: np.ndarray,
    smoothed: np.ndarray,
    labels: np.ndarray,
    threshold: float,
) -> None:
    """Write one series' scores as plot-ready CSV.

    The format is ``csv.writer``'s default dialect (CRLF line ends,
    minimal quoting) with every float written as its ``repr``.  Rows are
    built and written ``_CSV_CHUNK_ROWS`` at a time; only the series id
    can need quoting, so it goes through ``csv.writer`` once.
    """
    # a one-field row would quote an empty id, so quote it beside a second field
    buf = io.StringIO()
    csv.writer(buf).writerow([series_id, 0])
    sid = buf.getvalue()[: -len(",0\r\n")]
    tail = f",{threshold!r}\r\n"
    raw = np.asarray(raw, dtype=np.float64)
    smoothed = np.asarray(smoothed, dtype=np.float64)
    labels = np.asarray(labels)
    with Path(path).open("w", newline="") as fh:
        fh.write("series_id,t_absolute,raw_score,smoothed_score,label,threshold\r\n")
        for lo in range(0, len(raw), _CSV_CHUNK_ROWS):
            hi = lo + _CSV_CHUNK_ROWS
            rows = zip(
                range(t_absolute_start + lo, t_absolute_start + hi),
                _float_reprs(raw[lo:hi]),
                _float_reprs(smoothed[lo:hi]),
                labels[lo:hi].astype(np.int64).tolist(),
            )
            fh.write("".join(f"{sid},{t},{r},{s},{lab}{tail}" for t, r, s, lab in rows))
