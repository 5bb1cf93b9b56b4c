"""Example retrieval by maximum normalized cross-correlation.

The similarity between two equal-length windows is the maximum over all
lags of their zero-padded (linear) cross-correlation, normalized by the
product of the full-vector Euclidean norms: the shape-based distance of
k-Shape, computed with FFTs as in MASS.

Retrieval is exact and pruned by an upper bound, as in the UCR suite
(Rakthanmanon et al., KDD 2012): with ``nfft >= 2L - 1`` every lag obeys
``|cc_k| <= (1/nfft) * sum_f w_f |Q_f| |C_f|`` over the rfft bins, ``w_f``
1 at DC and Nyquist and 2 elsewhere.  :func:`best_candidates` scores rows
best bound first, in index-sorted blocks (8 rows, doubling up to 64, so a
best exists before many rows are scored), until the next bound is below
(``<``, so ties are scored) the lowest best of the subsets asked for; each
winner and score is bitwise the exhaustive one.
The float32 bound's terms and sum over ``n`` bins round off by at most a
relative ``(n + 2) * 2**-24`` (Higham, "Accuracy and Stability of
Numerical Algorithms", ch. 4); it is raised by ``(n + 3) * 2**-20``, and
by ``1e-9`` for a computed score's float64 FFT round-off, about
``2**-53 * log2(nfft)``.

The lag tie rule (smaller ``|lag|``, then the negative lag) changes only
which lag is reported, never a candidate's score, so it runs once, on
the winner's row.
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


# most rows of the pool correlated per block in best_candidates
_CHUNK_ROWS = 64


@dataclass
class CandidatePool:
    """Immutable set of same-domain candidate windows.

    Entries typically come from the training regions of series other
    than the query's; windows from the query's own series are excluded
    at retrieval time.  ``fraction`` and ``seed`` record how the pool
    was subsampled.  The pool's arrays are built on first use, once even
    when several threads query at once.
    """

    domain: str
    entries: list[Window]
    fraction: float = 1.0
    seed: int = 0
    _built: tuple | None = field(default=None, repr=False, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.entries)

    def _arrays(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(window length, per-entry norms, per-entry series ids, complex
        conjugates of the entries' ``_fft_size(width)``-point spectra,
        float32 magnitudes of those spectra over the entries' norms)."""
        if self._built is None:
            with self._lock:
                if self._built is None:
                    lengths = {len(e.input) for e in self.entries}
                    if len(lengths) > 1:
                        raise InconsistentWindowLengthError(
                            f"pool windows have mixed lengths {sorted(lengths)}"
                        )
                    stack = np.ascontiguousarray(
                        np.stack([e.input for e in self.entries]), dtype=np.float64
                    )
                    width = stack.shape[1]
                    norms = np.linalg.norm(stack, axis=1)
                    series_ids = np.array([e.series_id for e in self.entries])
                    spectra = np.fft.rfft(stack, _fft_size(width), axis=1)
                    del stack
                    np.conj(spectra, out=spectra)
                    # unit-norm magnitudes cannot overflow float32
                    mags = np.abs(spectra)
                    mags /= np.where(norms > 0.0, norms, 1.0)[:, None]
                    mags = mags.astype(np.float32)
                    self._built = (width, norms, series_ids, spectra, mags)
        return self._built


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


def no_candidate(query: Window, pool: CandidatePool) -> EmptyPoolError:
    """The error for a query none of whose pool entries is usable."""
    return EmptyPoolError(
        f"pool for domain {pool.domain!r} has no candidate outside "
        f"series {query.series_id!r}"
    )


def _score_bounds(fq: np.ndarray, qnorm: float, mags: np.ndarray) -> np.ndarray:
    """Per pool row, an upper bound on the score :func:`_block_scores`
    computes against a query of spectrum ``fq`` and norm ``qnorm``, from
    the pool's float32 unit-norm magnitudes ``mags`` (module docstring)."""
    n = len(fq)
    weighted = np.abs(fq) / qnorm
    weighted[1:-1] *= 2.0  # every bin but DC and Nyquist has a conjugate twin
    sums = (mags @ weighted.astype(np.float32)).astype(np.float64)
    return sums * ((1.0 + (n + 3) * 2.0**-20) / (2 * (n - 1))) + 1e-9


def _block_scores(fq, L, qnorm, spectra, norms, block) -> np.ndarray:
    """Scores of the pool rows ``block`` against a length-``L`` query of
    spectrum ``fq`` and norm ``qnorm``: each row's maximum
    cross-correlation over all lags, divided by the two norms."""
    nfft = 2 * (len(fq) - 1)
    # circular lags 0..L-1 sit at the front, -(L-1)..-1 at the back
    prod = spectra[block]
    circ = np.fft.irfft(np.multiply(fq, prod, out=prod), nfft, axis=1)
    peaks = np.maximum(circ[:, :L].max(axis=1), circ[:, nfft - L + 1 :].max(axis=1))
    return peaks / (qnorm * norms[block])


def best_candidates(
    query: Window, pool: CandidatePool, subsets: list[np.ndarray]
) -> list[tuple[int, float] | None]:
    """Each subset's best pool entry by :func:`ncc_max` score against the query.

    ``subsets`` are arrays of pool indices.  A subset's winner is
    ``(index, score)`` of its highest-scoring usable entry, the lowest
    index on ties, or ``None`` when none is usable; entries from the
    query's own series and all-zero entries are unusable and never
    correlated, nor are rows whose bound cannot win (module docstring).
    Raises the errors of :func:`retrieve_best` but the missing candidate.
    """
    if not pool.entries:
        raise EmptyPoolError(f"pool for domain {pool.domain!r} is empty")
    q = np.asarray(query.input, dtype=np.float64)
    L = len(q)
    width, norms, series_ids, spectra, mags = pool._arrays()
    if width != L:
        raise InconsistentWindowLengthError(
            f"pool windows have length {width}, query has {L}"
        )
    if L < 2:
        raise LengthMismatchError("query input must have length >= 2")
    qnorm = float(np.linalg.norm(q))
    if qnorm == 0.0:
        raise ZeroNormVectorError("query window is all-zero")
    member = np.zeros((len(subsets), len(norms)), dtype=bool)
    for j, idx in enumerate(subsets):
        member[j, idx] = True
    member &= (norms > 0.0) & (series_ids != query.series_id)
    live = member.any(axis=1)
    best = np.full(len(subsets), -np.inf)
    best_idx = np.full(len(subsets), -1)
    rows = np.flatnonzero(member.any(axis=0))
    fq = np.fft.rfft(q, _fft_size(L))
    bounds = _score_bounds(fq, qnorm, mags)[rows]
    order = np.argsort(-bounds, kind="stable")
    rows, bounds = rows[order], bounds[order]
    lo, size = 0, 8  # rows in the first block; each later one doubles
    while lo < len(rows):
        # bounds descend: the rows whose bound reaches the lowest best lead
        n_open = np.count_nonzero(bounds[lo : lo + size] >= best[live].min())
        if not n_open:
            break
        block = np.sort(rows[lo : lo + n_open])
        lo, size = lo + size, min(2 * size, _CHUNK_ROWS)
        block_scores = _block_scores(fq, L, qnorm, spectra, norms, block)
        scores = np.where(member[:, block], block_scores, -np.inf)
        k = scores.argmax(axis=1)
        top = scores.max(axis=1)
        better = (top > best) | ((top == best) & (block[k] < best_idx))
        best = np.where(better, top, best)
        best_idx = np.where(better, block[k], best_idx)
    return [(int(i), float(s)) if i >= 0 else None for i, s in zip(best_idx, best)]


def retrieve_best(
    query: Window, pool: CandidatePool
) -> tuple[Window, SimilarityResult]:
    """Pool entry maximizing :func:`ncc_max` against the query input.

    The winner is :func:`best_candidates`' over the whole pool: entries
    from the query's own series and all-zero entries are skipped, and
    ties between candidates go to the lowest pool index.  The reported
    lag is :func:`ncc_max`'s for the winner alone, since its lag tie
    rule never changes a score.
    """
    (won,) = best_candidates(query, pool, [np.arange(len(pool))])
    if won is None:
        raise no_candidate(query, pool)
    idx, score = won
    winner = pool.entries[idx]
    result = SimilarityResult(
        score=float(np.clip(score, -1.0, 1.0)),
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

