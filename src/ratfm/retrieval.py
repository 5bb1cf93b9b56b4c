"""Example retrieval by maximum normalized cross-correlation.

The similarity between two equal-length windows is the maximum over all
lags of their zero-padded (linear) cross-correlation, normalized by the
product of the full-vector Euclidean norms: the shape-based distance of
k-Shape, computed with FFTs as in MASS.

Retrieval is exact and pruned by cascaded bounds, as in the UCR suite
(Rakthanmanon et al., KDD 2012): a spectral bound, a float32 screen,
then the float64 score.  With ``nfft >= 2L - 1`` every lag obeys
``|cc_k| <= (1/nfft) * sum_f w_f |Q_f| |C_f|`` over the rfft bins, ``w_f``
1 at DC and Nyquist and 2 elsewhere: for a batch of queries, one float32
product with the rows' ``|C_f| / |c|``, ``np.abs`` of their stored
complex64 spectra.  :func:`best_candidates` screens a query's rows best
bound first, in index-sorted blocks (8 rows, so floors exist before many
rows are screened, then 64 at a time), until the next bound is below
(``<``, so ties are screened) the lowest floor of the subsets asked for.
With ``u = 2**-24``, each float32 term is within ``7u`` (``u`` to round
``C_f / |c|`` to complex64, 2 ulp for numpy's modulus, 1.98 seen, ``u``
each for the query weight's cast and the product) and their sum over
``n`` bins, in any order, within ``(n + 6) u`` (Higham, "Accuracy and
Stability of Numerical Algorithms", ch. 3-4); the bound is raised by
``(n + 3) * 2**-20``, ``16 (n + 3) u``, and by ``1e-9`` for a computed
score's float64 FFT round-off, about ``2**-53 * log2(nfft)``.

The screen correlates a block's rows against ``fq / |q|`` in complex64
(``irfft`` in float32), from each row's conjugate spectrum over its
norm, stored in complex64: a screen score ``s32``, the same two-range
peak, within ``eps`` of the float64 score.  A subset's floor is its
highest ``s32 - eps``, below its best score; a row whose ``s32 + eps``
reaches none of its subsets' floors loses in each of them to the row
that set the floor.  The rest are scored once, in row order, in
float64 from their values, so each winner and score is bitwise the
exhaustive one.

``s32`` differs from the computed float64 score by at most the sum of
  * ``6u`` times the row's bound, itself ``<= 1`` by Cauchy-Schwarz and
    Parseval: rounding both unit-norm spectra to complex64 (``u`` each)
    and their complex64 product (``2 sqrt(2) u``, Higham ch. 3) moves
    each bin by at most ``5u |Q_f| |C_f| / (|q| |c|)``, and the irfft is
    linear;
  * ``log2(nfft) * eta * kappa_q`` for the float32 irfft itself, whose
    error is at most ``log2(nfft) * eta`` times its output's 2-norm
    (Higham ch. 24, ``eta = mu + gamma_4 (sqrt(2) + mu)``, below ``11u``
    for twiddles accurate to ``u``), and that lag sequence's 2-norm is at
    most ``kappa_q = max_f |Q_f| / |q|`` by Parseval;
  * ``1e-9`` for the float64 score's own round-off, as above.
``eps`` is that sum with the first two terms raised eightfold, for the
real-input transform's extra passes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Window, gather
from .errors import (
    EmptyPoolError,
    InconsistentWindowLengthError,
    InvalidFractionError,
    LengthMismatchError,
    ZeroNormVectorError,
)


@dataclass(frozen=True)
class SimilarityResult:
    """Similarity score in [-1, 1] and the pool index it came from."""

    score: float
    candidate_index: int = -1


# rows per chunk of a pool's spectra, built or bounded, and per screened block after the first
_CHUNK_ROWS = 64
# bounds (rows x queries) or query bins per batch: 2 MiB in float64, as much for the argsort
_BATCH_CELLS = 1 << 18


@dataclass(eq=False)
class CandidatePool:
    """Same-domain candidate rows, each a start into the domain's values.

    ``values`` holds the domain's series once, end to end, series
    ``series_ids[k]`` from ``offsets[k]`` on; a row is ``width`` input
    points from its start, then ``horizon`` future points.  Rows of the
    query's own series are excluded at retrieval time.  ``fraction`` and
    ``seed`` record how the pool was subsampled.  The constructor stores,
    per row, its series (``series``), norm (``norms``) and the complex64
    conjugate of its ``_fft_size(width)``-point spectrum over its norm
    (``spectra``), built :data:`_CHUNK_ROWS` rows at a time.
    """

    domain: str
    values: np.ndarray
    series_ids: tuple[str, ...]
    offsets: np.ndarray
    starts: np.ndarray
    width: int
    horizon: int
    fraction: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        self.starts = np.asarray(self.starts, dtype=np.intp)
        self.series = np.searchsorted(self.offsets, self.starts, side="right") - 1
        n = len(self.starts)
        last = len(self.values) - self.width - self.horizon
        if n and not 0 <= self.starts.min() <= self.starts.max() <= last:
            raise InconsistentWindowLengthError(
                f"pool rows of {self.width} + {self.horizon} points overrun its values"
            )
        nfft = _fft_size(self.width)
        self.norms = np.empty(n)
        self.spectra = np.empty((n, nfft // 2 + 1), dtype=np.complex64)
        for lo in range(0, n, _CHUNK_ROWS):
            rows = slice(lo, lo + _CHUNK_ROWS)
            stack = gather(self.values, self.starts[rows], self.width)
            norms = self.norms[rows]
            norms[:] = np.linalg.norm(stack, axis=1)
            spectrum = np.fft.rfft(stack, nfft, axis=1)
            scale = np.where(norms > 0.0, norms, 1.0)[:, None]
            # divided in float64, then cast: unit-norm values cannot overflow float32
            np.divide(np.conj(spectrum, out=spectrum), scale, out=self.spectra[rows])

    def __len__(self) -> int:
        return len(self.starts)


def _fft_size(length: int) -> int:
    return 1 << max(2 * length - 1, 1).bit_length()


def ncc_max(
    x: np.ndarray, y: np.ndarray, *, lag_zero_only: bool = False
) -> SimilarityResult:
    """Maximum normalized cross-correlation between two vectors.

    The maximum is over every lag of the zero-padded correlation, the
    peak :func:`_block_scores` takes; with ``lag_zero_only`` it is the
    aligned correlation alone.  The score is clipped to [-1, 1] to absorb
    FFT round-off.
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
    else:
        nfft = _fft_size(len(x))
        circ = np.fft.irfft(np.fft.rfft(x, nfft) * np.conj(np.fft.rfft(y, nfft)), nfft)
        score = _peaks(circ[None], len(x))[0] / denom
    return SimilarityResult(score=float(np.clip(score, -1.0, 1.0)))


def no_candidate(series_id: str, pool: CandidatePool) -> EmptyPoolError:
    """The error for a query of ``series_id`` none of whose pool rows is usable."""
    return EmptyPoolError(
        f"pool for domain {pool.domain!r} has no candidate outside "
        f"series {series_id!r}"
    )


def _score_bounds(fqs, qnorms, spectra, rows) -> np.ndarray:
    """Per query (spectra ``fqs``, norms ``qnorms``) and row in ``rows``, an upper
    bound on its :func:`_block_scores` score, from unit-norm ``spectra`` (module docstring)."""
    n = fqs.shape[1]
    weighted = np.abs(fqs) / qnorms[:, None]
    weighted[:, 1:-1] *= 2.0  # every bin but DC and Nyquist has a conjugate twin
    weighted = weighted.astype(np.float32)
    bounds = np.empty((len(fqs), len(rows)))
    # both operands are finite and >= 0, so an invalid flag from the float32
    # BLAS product is spurious (seen once in ~25 runs of a 2 x 5 mat-vec)
    with np.errstate(invalid="ignore"):
        for lo in range(0, len(rows), _CHUNK_ROWS):
            mags = np.abs(spectra[rows[lo : lo + _CHUNK_ROWS]])
            bounds[:, lo : lo + _CHUNK_ROWS] = weighted @ mags.T
    bounds *= (1.0 + (n + 3) * 2.0**-20) / (2 * (n - 1))
    return np.add(bounds, 1e-9, out=bounds)


def _screen_query(fq: np.ndarray, qnorm: float) -> tuple[np.ndarray, float]:
    """The complex64 ``fq / qnorm`` the screen correlates against, and the
    screen's error bound ``eps`` (module docstring)."""
    u = 2.0**-24
    nfft = 2 * (len(fq) - 1)
    kappa_q = float(np.abs(fq).max()) / qnorm
    eps = 8.0 * (6.0 * u + math.log2(nfft) * 11.0 * u * kappa_q) + 1e-9
    return (fq / qnorm).astype(np.complex64), eps


def _peaks(circ: np.ndarray, L: int) -> np.ndarray:
    """Each row's maximum over the lags of a length-``L`` correlation:
    circular lags 0..L-1 sit at the front, -(L-1)..-1 at the back, and the
    zero-padding lags between them are overwritten with ``-inf``."""
    circ[:, L : circ.shape[1] - L + 1] = -np.inf
    return circ.max(axis=1)


def _screen_scores(fq32, L, spectra, block) -> np.ndarray:
    """Float32 estimates, within the screen's ``eps``, of the scores of the pool rows
    ``block`` against a length-``L`` query of unit-norm complex64 spectrum ``fq32``;
    as float64, so that adding ``eps`` is not rounded to float32."""
    nfft = 2 * (len(fq32) - 1)
    prod = spectra[block]
    circ = np.fft.irfft(np.multiply(fq32, prod, out=prod), nfft, axis=1)
    return _peaks(circ, L).astype(np.float64)


def _block_scores(fq, qnorm, pool, block) -> np.ndarray:
    """Scores of the rows ``block`` of ``pool`` against a query of spectrum ``fq`` and
    norm ``qnorm``: each row's maximum cross-correlation over all lags, over both norms."""
    nfft = 2 * (len(fq) - 1)
    prod = np.fft.rfft(gather(pool.values, pool.starts[block], pool.width), nfft, axis=1)
    np.conj(prod, out=prod)
    circ = np.fft.irfft(np.multiply(fq, prod, out=prod), nfft, axis=1)
    return _peaks(circ, pool.width) / (qnorm * pool.norms[block])


def best_candidates(
    queries: np.ndarray, series_id: str, pool: CandidatePool, subsets: list[np.ndarray]
) -> list[list[tuple[int, float] | None] | ZeroNormVectorError]:
    """Per row of ``queries``, inputs of windows of series ``series_id``: each
    subset's best pool row by :func:`ncc_max` score against it, or the
    :class:`ZeroNormVectorError` of an all-zero query.

    ``subsets`` are arrays of pool rows.  A subset's winner is ``(row, score)``
    of its highest-scoring usable row, the lowest on ties, or ``None`` when
    none is usable; rows of the query's series and all-zero rows are unusable
    and never correlated, nor are rows whose bound or float32 screen shows
    they cannot win (module docstring).  Queries are bounded and ordered in
    batches of :data:`_BATCH_CELLS` bounds or bins.  An empty pool or a bad
    length raises."""
    if not len(pool):
        raise EmptyPoolError(f"pool for domain {pool.domain!r} is empty")
    queries = np.asarray(queries, dtype=np.float64)
    L = queries.shape[1]
    if pool.width != L:
        raise InconsistentWindowLengthError(
            f"pool windows have length {pool.width}, query has {L}"
        )
    if L < 2:
        raise LengthMismatchError("query input must have length >= 2")
    member = np.zeros((len(subsets), len(pool)), dtype=bool)
    for j, idx in enumerate(subsets):
        member[j, idx] = True
    own = pool.series_ids.index(series_id) if series_id in pool.series_ids else -1
    member &= (pool.norms > 0.0) & (pool.series != own)
    rows = np.flatnonzero(member.any(axis=0))
    step = max(1, _BATCH_CELLS // max(len(pool), _fft_size(L)))
    found = []
    for lo in range(0, len(queries), step):
        # one 1-d norm per query, as the exhaustive score takes it, bit for bit
        qnorms = np.array([np.linalg.norm(q) for q in queries[lo : lo + step]])
        fqs = np.fft.rfft(queries[lo : lo + step], _fft_size(L), axis=1)
        bounds = _score_bounds(fqs, np.where(qnorms > 0.0, qnorms, 1.0), pool.spectra, rows)
        orders = np.argsort(-bounds, axis=1, kind="stable")
        found += [
            _winners(fq, qnorm, pool, member, rows[order], bound[order]) if qnorm > 0.0
            else ZeroNormVectorError("query window is all-zero")
            for fq, qnorm, bound, order in zip(fqs, qnorms, bounds, orders)
        ]
        del bounds, orders  # so that a batch's arrays do not outlive it
    return found


def _winners(fq, qnorm, pool, member, rows, bounds) -> list[tuple[int, float] | None]:
    """The winners of the subsets of usable rows ``member`` against a query of
    spectrum ``fq`` and norm ``qnorm``, screening ``rows`` by descending ``bounds``."""
    fq32, eps = _screen_query(fq, qnorm)
    # per subset, its highest s32 - eps so far (below its best score); +inf if none is usable
    floor = np.where(member.any(axis=1), -np.inf, np.inf)
    blocks, screens = [], []
    lo, size = 0, 8  # a small first block, so floors exist before most rows
    while lo < len(rows):
        # bounds descend: the rows whose bound reaches the lowest floor lead
        n_open = np.count_nonzero(bounds[lo : lo + size] >= floor.min())
        if not n_open:
            break
        block = np.sort(rows[lo : lo + n_open])
        lo, size = lo + size, _CHUNK_ROWS
        screened = _screen_scores(fq32, pool.width, pool.spectra, block)
        raised = np.where(member[:, block], screened - eps, -np.inf).max(axis=1)
        np.maximum(floor, raised, out=floor)
        blocks.append(block)
        screens.append(screened)
    if not blocks:
        return [None] * len(member)
    block, screened = np.concatenate(blocks), np.concatenate(screens)
    # a row can win a subset only if its screen + eps reaches the subset's floor
    wins = (member[:, block] & (screened + eps >= floor[:, None])).any(axis=0)
    block = np.sort(block[wins])
    block_scores = _block_scores(fq, qnorm, pool, block)
    scores = np.where(member[:, block], block_scores, -np.inf)
    return [
        (int(block[k]), float(row[k])) if row[k] > -np.inf else None
        for row, k in zip(scores, scores.argmax(axis=1))
    ]


def retrieve_best(
    query: Window, pool: CandidatePool
) -> tuple[Window, SimilarityResult]:
    """The pool row maximizing :func:`ncc_max` against the query input, as a
    new :class:`Window`: :func:`best_candidates`' winner over the whole pool,
    rows of the query's series and all-zero rows skipped, ties to the lowest."""
    (found,) = best_candidates([query.input], query.series_id, pool, [np.arange(len(pool))])
    if isinstance(found, ZeroNormVectorError):
        raise found
    (won,) = found
    if won is None:
        raise no_candidate(query.series_id, pool)
    idx, score = won
    start, k = int(pool.starts[idx]), int(pool.series[idx])
    inp, future = np.split(pool.values[start:][: pool.width + pool.horizon], [pool.width])
    example = Window(pool.series_ids[k], start - int(pool.offsets[k]), inp, future)
    return example, SimilarityResult(float(np.clip(score, -1.0, 1.0)), idx)


def subsample_indices(n: int, fraction: float, seed: int) -> np.ndarray:
    """Sorted indices of the ``ceil(fraction * n)`` rows a subsample keeps.

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
    """Pool of the rows :func:`subsample_indices` keeps, in their order.

    Selection is reproducible for a fixed seed and preserves the original
    row order; ``fraction=1.0`` returns an identical pool.
    """
    idx = subsample_indices(len(pool), fraction, seed)
    return dataclasses.replace(pool, starts=pool.starts[idx], fraction=fraction, seed=seed)

