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

# rows per chunk in dump_scores_csv.  orjson's text is ~93 KiB at 2 048
# rows; larger chunks fault in fresh pages for each chunk's temporaries:
# writing both archive_zero_shot series (397 632 rows) in a fresh process
# took 175 minor page faults and 250 ms at 2 048 rows, 3 882 faults and
# 332 ms at 4 096, 9 336 faults and 348 ms at 32 768 (medians of 5)
_CSV_CHUNK_ROWS = 1 << 11


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
    converted to ``round(N / f)``, clamped to [2, N // 2].  The grid is
    zoomed in two stages, each run only if it could change that period: the
    first if the periods 1.2 bins either side of the peak differ, the second
    if those 0.12 bins either side of the first stage's winner do.  Long
    series refine only periods near a half-integer.  A peak whose magnitude
    is below :data:`DEFAULT_DOMINANCE_THRESHOLD` times the mean magnitude
    marks the signal as aperiodic and falls back to
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
    period = _refine_peak(centered, k_star)
    return PeriodEstimate(period=period, dominance=dominance, fallback_used=False)


def _clamped_period(n: int, freq: float) -> int:
    """``round(n / freq)`` clamped to [2, n // 2]."""
    return max(2, min(int(round(n / freq)), n // 2))


def _settled_period(n: int, centre: float, half_width: float) -> int | None:
    """The period of every frequency in ``centre`` +/- 1.2 ``half_width``, if one.

    The stages left to zoom from ``centre`` (+/- 1 bin, then +/- 0.1) give a
    frequency within ``centre`` +/- 1.1 ``half_width`` (1.2 covers round-off),
    clipped to [0.5, n / 2].  The clamped rounded period does not rise with
    the frequency, so equal periods at both ends are every frequency's; else None.
    """
    longest = _clamped_period(n, max(centre - 1.2 * half_width, 0.5))
    shortest = _clamped_period(n, min(centre + 1.2 * half_width, n / 2))
    return longest if longest == shortest else None


def _refine_peak(centered: np.ndarray, k_star: int) -> int:
    """Clamped period of the spectral peak, zoomed on a grid around bin k_star.

    Up to two zoom stages (0.05-bin then 0.005-bin steps) evaluate |DTFT| at
    41 grid frequencies each; a stage runs only if :func:`_settled_period`
    finds that it and the stages after it could change the period.  Each
    evaluation is factorised in blocks: with t = B*q + r and
    B = ceil(sqrt(n)), ``centered`` is zero-padded into a (Q, B) matrix X,
    X[q, r] = centered[B*q + r], and

        DTFT(g) = sum_q exp(-2 pi i g B q / n) * sum_r exp(-2 pi i g r / n) X[q, r],

    so a stage costs 82 complex exponentials, 41 * (B + Q) complex
    multiplies to raise them to the (41, B) and (41, Q) phase tables
    (:func:`_phase_powers`, each entry within 3 * B * 2**-52 of the
    exponential of its phase), and one (41, B) x (B, Q) product in real
    arithmetic.  Beyond ``centered`` the memory is X (n floats) plus
    O(41 * sqrt(n)), not a 41 x n complex matrix (0.66 GB at n = 1e6).
    """
    n = len(centered)
    best = float(k_star)
    xt = None
    for half_width in (1.0, 0.1):
        period = _settled_period(n, best, half_width)
        if period is not None:
            return period
        if xt is None:
            block = math.isqrt(n - 1) + 1
            xt = np.concatenate((centered, np.zeros(-n % block))).reshape(-1, block).T
        grid = np.linspace(max(best - half_width, 0.5), min(best + half_width, n / 2), 41)
        best = _grid_peak(xt, n, grid)
    return _clamped_period(n, best)


def _grid_peak(xt: np.ndarray, n: int, grid: np.ndarray) -> float:
    """The first frequency of ``grid`` with the largest |DTFT| (one zoom stage).

    The inner and outer phase tables are :func:`_phase_powers` of one
    exponential per grid frequency each: 82 exponentials and 41 * (B + Q)
    complex multiplies.  Each twiddle factor, an inner times
    an outer entry, is then within 3 * (B + Q) * 2**-52 of the exponential
    of its phase, so a sinusoid's |DTFT| at its peak moves by at most
    ~8 * sqrt(n) * 2**-52 of itself (2e-12 at n = 1e6).  Neighbouring
    grid frequencies 0.005 bins apart at a peak differ by up to 4e-5 of it,
    so only two frequencies tied that closely could swap.
    """
    block, n_blocks = xt.shape
    inner = _phase_powers(-2 * np.pi * grid / n, block)
    partial = inner.real @ xt + 1j * (inner.imag @ xt)
    outer = _phase_powers(-2 * np.pi * grid * block / n, n_blocks)
    return float(grid[np.argmax(np.abs(np.sum(partial * outer, axis=1)))])


def _phase_powers(phase: np.ndarray, count: int) -> np.ndarray:
    """``exp(1j * phase[g] * k)`` for k < ``count``, one row per phase.

    Row g is the running product 1, w, w * w, ... of w = exp(1j * phase[g]).
    The exponential is within 2**-52 of its exact value and each complex
    multiply adds at most sqrt(5) * 2**-53 relative error, so entry k is
    within k * (1 + sqrt(5) / 2) * 2**-52 of ``exp(1j * phase[g] * k)`` to
    first order: 3 * k * 2**-52 bounds it for any k below 2**40.
    """
    table = np.empty((len(phase), count), dtype=np.complex128)
    table[:, 0] = 1.0
    table[:, 1:] = np.exp(1j * phase)[:, None]
    return np.cumprod(table, axis=1, out=table)


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


def dump_scores_csv(
    path: str | Path,
    series_id: str,
    t_absolute_start: int,
    raw: np.ndarray,
    smoothed: np.ndarray,
    labels: np.ndarray,
    threshold: float,
) -> None:
    """Write one series' scores as plot-ready CSV, encoded as UTF-8.

    The format is ``csv.writer``'s default dialect (CRLF line ends, minimal
    quoting) with every float written as its ``repr``.  Each chunk of rows is
    one ``orjson.dumps`` of ``(t, raw, smoothed, label)`` tuples: orjson writes
    ``repr``'s digits, and its notation for zero and ``1e-4 <= |v| < 1e16``.
    A row holding any other value (tiny, huge, subnormal, NaN, infinite) is
    written by ``repr`` between orjson's runs.
    """
    # a one-field row would quote an empty id, so quote it beside a second field
    buf = io.StringIO()
    csv.writer(buf).writerow([series_id, 0])
    head = buf.getvalue()[: -len("0\r\n")].encode()
    tail = f",{threshold!r}\r\n".encode()
    with Path(path).open("wb") as fh:
        fh.write(b"series_id,t_absolute,raw_score,smoothed_score,label,threshold\r\n")
        for lo in range(0, len(raw), _CSV_CHUNK_ROWS):
            hi = lo + _CSV_CHUNK_ROWS
            cols = np.array([raw[lo:hi], smoothed[lo:hi]], dtype=np.float64)
            odd = ((cols != 0.0) & ~((abs(cols) >= 1e-4) & (abs(cols) < 1e16))).any(0)
            ts = range(t_absolute_start + lo, t_absolute_start + hi)
            labs = np.asarray(labels[lo:hi], dtype=np.int64).tolist()
            rows = list(zip(ts, *cols.tolist(), labs))
            start = 0
            for i in [*np.flatnonzero(odd).tolist(), len(rows)]:
                if start < i:
                    text = orjson.dumps(rows[start:i])[2:-2]
                    fh.writelines((head, (tail + head).join(text.split(b"],[")), tail))
                if i < len(rows):
                    t, r, s, lab = rows[i]
                    fh.writelines((head, f"{t},{r!r},{s!r},{lab}".encode(), tail))
                start = i + 1
