"""Example retrieval by maximum normalized cross-correlation.

The similarity between two equal-length windows is the maximum over all
lags of their zero-padded (linear) cross-correlation, normalized by the
product of the full-vector Euclidean norms: the shape-based distance of
k-Shape, computed with FFTs as in MASS.

Retrieval is max-first.  Each candidate is scored by the plain maximum
of its correlation sequence, computed over the usable rows of the pool
in fixed blocks so the temporaries stay small (:func:`candidate_scores`),
and the winner is the highest score (:func:`best_candidate`).  The lag
tie rule (smaller ``|lag|``, then the negative lag) changes only which
lag is reported, never a candidate's score, so it runs once, on the
winner's row.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .dataset import Window
from .errors import (
    EmptyPoolError,
    InconsistentWindowLengthError,
    InvalidFractionError,
    LengthMismatchError,
    ZeroNormVectorError,
)


@dataclass(frozen=True)
class SimilarityResult:
    """Similarity score in [-1, 1] with the lag and pool index it came from."""

    score: float
    best_lag: int
    candidate_index: int = -1


# rows of the pool correlated per block in candidate_scores
_CHUNK_ROWS = 64


@dataclass
class CandidatePool:
    """Immutable set of same-domain candidate windows.

    Entries typically come from the training regions of series other
    than the query's; windows from the query's own series are excluded
    at retrieval time.  ``fraction`` and ``seed`` record how the pool
    was subsampled.  The stacked entries and their spectra are built
    lazily on first use, once even when several threads query at once.
    """

    domain: str
    entries: list[Window]
    fraction: float = 1.0
    seed: int = 0
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.entries)

    def _cached(self, key, build):
        if key not in self._cache:
            with self._lock:
                if key not in self._cache:
                    self._cache[key] = build()
        return self._cache[key]

    def _stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(entries matrix, per-entry norms, per-entry series ids)."""

        def build():
            lengths = {len(e.input) for e in self.entries}
            if len(lengths) > 1:
                raise InconsistentWindowLengthError(
                    f"pool windows have mixed lengths {sorted(lengths)}"
                )
            stack = np.ascontiguousarray(
                np.stack([e.input for e in self.entries]), dtype=np.float64
            )
            series_ids = np.array([e.series_id for e in self.entries])
            return stack, np.linalg.norm(stack, axis=1), series_ids

        return self._cached("stack", build)

    def _conj_spectra(self, nfft: int) -> np.ndarray:
        """Complex conjugates of the entries' ``nfft``-point spectra."""
        stack = self._stacked()[0]

        def build():
            spectra = np.fft.rfft(stack, nfft, axis=1)
            return np.conj(spectra, out=spectra)

        return self._cached(("conj_rfft", nfft), build)


def _fft_size(length: int) -> int:
    return 1 << max(2 * length - 1, 1).bit_length()


def _cc_sequence(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Zero-padded cross-correlation, ordered from lag -(L-1) to +(L-1).

    Entry for lag k equals ``sum_t x[t + k] * y[t]`` over the valid
    overlap.
    """
    L = len(x)
    nfft = _fft_size(L)
    fx = np.fft.rfft(x, nfft)
    fy = np.fft.rfft(y, nfft)
    circ = np.fft.irfft(fx * np.conj(fy), nfft)
    return np.concatenate((circ[nfft - L + 1 :], circ[:L]))


def ncc_max(
    x: np.ndarray, y: np.ndarray, *, lag_zero_only: bool = False
) -> SimilarityResult:
    """Maximum normalized cross-correlation between two vectors.

    Ties between lags are broken toward the smaller ``|lag|``, then the
    negative lag, so results are deterministic.  With ``lag_zero_only``
    the search is skipped and only the aligned correlation is returned.
    The score is clipped to [-1, 1] to absorb FFT round-off.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise LengthMismatchError(
            f"need equal-length 1-d vectors of length >= 2, got {x.shape} / {y.shape}"
        )
    denom = float(np.linalg.norm(x)) * float(np.linalg.norm(y))
    if denom == 0.0:
        raise ZeroNormVectorError("similarity undefined for an all-zero vector")
    if lag_zero_only:
        score = float(np.dot(x, y)) / denom
        return SimilarityResult(score=float(np.clip(score, -1.0, 1.0)), best_lag=0)
    cc = _cc_sequence(x, y)
    j = int(_kernels.best_lag_batch(cc[None])[0])
    score = cc[j] / denom
    return SimilarityResult(
        score=float(np.clip(score, -1.0, 1.0)), best_lag=j - (len(x) - 1)
    )


def _no_candidate(query: Window, pool: CandidatePool) -> EmptyPoolError:
    return EmptyPoolError(
        f"pool for domain {pool.domain!r} has no candidate outside "
        f"series {query.series_id!r}"
    )


def candidate_scores(query: Window, pool: CandidatePool) -> np.ndarray:
    """Every pool entry's :func:`ncc_max` score against the query input.

    A candidate's score is the maximum of its cross-correlation over all
    lags, divided by the two norms.  Entries from the query's own series
    and all-zero entries score ``-inf`` and are never correlated; the
    others are correlated in blocks of ``_CHUNK_ROWS`` rows.  Raises the
    errors of :func:`retrieve_best`, including when no entry is usable.
    """
    if not pool.entries:
        raise EmptyPoolError(f"pool for domain {pool.domain!r} is empty")
    q = np.asarray(query.input, dtype=np.float64)
    L = len(q)
    stack, norms, series_ids = pool._stacked()
    if stack.shape[1] != L:
        raise InconsistentWindowLengthError(
            f"pool windows have length {stack.shape[1]}, query has {L}"
        )
    if L < 2:
        raise LengthMismatchError("query input must have length >= 2")
    qnorm = float(np.linalg.norm(q))
    if qnorm == 0.0:
        raise ZeroNormVectorError("query window is all-zero")
    rows = np.flatnonzero((norms > 0.0) & (series_ids != query.series_id))
    if not len(rows):
        raise _no_candidate(query, pool)

    nfft = _fft_size(L)
    fq = np.fft.rfft(q, nfft)
    spectra = pool._conj_spectra(nfft)
    scores = np.full(len(norms), -np.inf)
    for lo in range(0, len(rows), _CHUNK_ROWS):
        block = rows[lo : lo + _CHUNK_ROWS]
        # circular lags 0..L-1 sit at the front, -(L-1)..-1 at the back
        prod = spectra[block]
        circ = np.fft.irfft(np.multiply(fq, prod, out=prod), nfft, axis=1)
        peaks = np.maximum(circ[:, :L].max(axis=1), circ[:, nfft - L + 1 :].max(axis=1))
        scores[block] = peaks / (qnorm * norms[block])
    return scores


def best_candidate(scores: np.ndarray, query: Window, pool: CandidatePool) -> int:
    """Index of the highest of ``scores``, the lowest index on ties.

    ``scores`` comes from :func:`candidate_scores` for ``query`` and
    ``pool``, possibly restricted to a subset of the pool's rows; raises
    :class:`EmptyPoolError` when every one of them is ``-inf``.
    """
    idx = int(np.argmax(scores))
    if scores[idx] == -np.inf:
        raise _no_candidate(query, pool)
    return idx


def retrieve_best(
    query: Window, pool: CandidatePool
) -> tuple[Window, SimilarityResult]:
    """Pool entry maximizing :func:`ncc_max` against the query input.

    Candidates are scored by :func:`candidate_scores`: entries from the
    query's own series and all-zero entries are skipped, and ties
    between candidates go to the lowest pool index.  The reported lag is
    :func:`ncc_max`'s for the winner alone, since its lag tie rule never
    changes a score.
    """
    scores = candidate_scores(query, pool)
    idx = best_candidate(scores, query, pool)
    winner = pool.entries[idx]
    result = SimilarityResult(
        score=float(np.clip(scores[idx], -1.0, 1.0)),
        best_lag=ncc_max(query.input, winner.input).best_lag,
        candidate_index=idx,
    )
    return winner, result


def subsample_indices(n: int, fraction: float, seed: int) -> np.ndarray:
    """Sorted indices of the ``ceil(fraction * n)`` entries a subsample keeps.

    Drawn uniformly without replacement, reproducibly for a fixed seed;
    ``fraction=1.0`` keeps every index.
    """
    if not 0.0 < fraction <= 1.0:
        raise InvalidFractionError(f"fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0 or n == 0:
        return np.arange(n)
    k = max(1, math.ceil(fraction * n))
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=k, replace=False))


def subsample_pool(pool: CandidatePool, fraction: float, seed: int) -> CandidatePool:
    """Pool of the entries :func:`subsample_indices` keeps, in their order.

    Selection is reproducible for a fixed seed and preserves the original
    entry order; ``fraction=1.0`` returns an identical pool.
    """
    idx = subsample_indices(len(pool.entries), fraction, seed)
    return CandidatePool(
        domain=pool.domain,
        entries=[pool.entries[i] for i in idx],
        fraction=fraction,
        seed=seed,
    )

