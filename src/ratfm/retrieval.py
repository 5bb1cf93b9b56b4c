"""Example retrieval by maximum normalized cross-correlation.

The similarity between two equal-length windows is the maximum over all
lags of their zero-padded (linear) cross-correlation, normalized by the
product of the full-vector Euclidean norms: the shape-based distance of
k-Shape, computed with FFTs as in MASS.

Retrieval is exact and pruned by cascaded bounds, as in the UCR suite
(Rakthanmanon et al., KDD 2012): a spectral bound, a float32 screen,
then the float64 score.  With ``nfft >= 2L - 1`` every lag obeys
``|cc_k| <= (1/nfft) * sum_f w_f |Q_f| |C_f|`` over the rfft bins, ``w_f``
1 at DC and Nyquist and 2 elsewhere.  :func:`best_candidates` screens
rows best bound first, in index-sorted blocks (8 rows, so floors exist
before many rows are screened, then 64 at a time), until the next bound
is below (``<``, so ties are screened) the lowest floor of the subsets
asked for.  The float32 bound's terms and sum over ``n`` bins round off
by at most a relative ``(n + 2) * 2**-24`` (Higham, "Accuracy and
Stability of Numerical Algorithms", ch. 4); it is raised by
``(n + 3) * 2**-20``, and by ``1e-9`` for a computed score's float64 FFT
round-off, about ``2**-53 * log2(nfft)``.

The screen correlates a block's rows against ``fq / |q|`` in complex64
(``irfft`` in float32), from each entry's conjugate spectrum over its
norm, stored in complex64: a screen score ``s32``, the same two-range
peak, within ``eps`` of the float64 score.  A subset's floor is its
highest ``s32 - eps``, below its best score; a row whose ``s32 + eps``
reaches none of its subsets' floors loses in each of them to the row
that set the floor.  The rest are scored once, in index order, in
float64 from their windows, so each winner and score is bitwise the
exhaustive one.

With ``u = 2**-24``, ``s32`` differs from the computed float64 score by
at most the sum of
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

import math
from dataclasses import dataclass

import numpy as np

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
    """Similarity score in [-1, 1] and the pool index it came from."""

    score: float
    candidate_index: int = -1


# rows per chunk of a pool's build, and per screened block after the first
_CHUNK_ROWS = 64


@dataclass
class CandidatePool:
    """Immutable set of same-domain candidate windows.

    Entries typically come from the training regions of series other
    than the query's; windows from the query's own series are excluded
    at retrieval time.  ``fraction`` and ``seed`` record how the pool
    was subsampled.  The constructor stores the window length ``width``
    and, per entry, its norm (``norms``), its series id (``series_ids``),
    the complex64 conjugate of its ``_fft_size(width)``-point spectrum
    over its norm (``spectra``) and the float32 magnitude of that
    spectrum over the norm (``mags``), built :data:`_CHUNK_ROWS` entries
    at a time.
    """

    domain: str
    entries: list[Window]
    fraction: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        lengths = {len(e.input) for e in self.entries}
        if len(lengths) > 1:
            raise InconsistentWindowLengthError(
                f"pool windows have mixed lengths {sorted(lengths)}"
            )
        n = len(self.entries)
        self.width = lengths.pop() if lengths else 0
        nfft = _fft_size(self.width)
        self.norms = np.empty(n)
        self.spectra = np.empty((n, nfft // 2 + 1), dtype=np.complex64)
        self.mags = np.empty(self.spectra.shape, dtype=np.float32)
        for lo in range(0, n, _CHUNK_ROWS):
            rows = slice(lo, lo + _CHUNK_ROWS)
            stack = _stack(self.entries, range(n)[rows])
            norms = self.norms[rows]
            norms[:] = np.linalg.norm(stack, axis=1)
            spectrum = np.fft.rfft(stack, nfft, axis=1)
            scale = np.where(norms > 0.0, norms, 1.0)[:, None]
            # divided in float64, then cast: unit-norm values cannot overflow float32
            np.divide(np.abs(spectrum), scale, out=self.mags[rows])
            np.divide(np.conj(spectrum, out=spectrum), scale, out=self.spectra[rows])
        self.series_ids = np.array([e.series_id for e in self.entries])

    def __len__(self) -> int:
        return len(self.entries)


def _stack(entries: list[Window], rows) -> np.ndarray:
    """The inputs of ``entries[rows]`` as one float64 matrix."""
    return np.array([entries[i].input for i in rows], dtype=np.float64)


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
    weighted = weighted.astype(np.float32)
    # both operands are finite and >= 0, so an invalid flag from the float32
    # BLAS mat-vec is spurious (seen once in ~25 runs of a 2 x 5 product)
    with np.errstate(invalid="ignore"):
        sums = (mags @ weighted).astype(np.float64)
    return sums * ((1.0 + (n + 3) * 2.0**-20) / (2 * (n - 1))) + 1e-9


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
    """Float32 estimates, within the screen's ``eps``, of the scores of the
    pool rows ``block`` against a length-``L`` query of unit-norm complex64
    spectrum ``fq32``; as float64, so that adding ``eps`` is not rounded
    to float32."""
    nfft = 2 * (len(fq32) - 1)
    prod = spectra[block]
    circ = np.fft.irfft(np.multiply(fq32, prod, out=prod), nfft, axis=1)
    return _peaks(circ, L).astype(np.float64)


def _block_scores(fq, L, qnorm, entries, norms, block) -> np.ndarray:
    """Scores of the pool rows ``block`` (of ``entries``) against a
    length-``L`` query of spectrum ``fq`` and norm ``qnorm``: each row's
    maximum cross-correlation over all lags, divided by the two norms."""
    nfft = 2 * (len(fq) - 1)
    prod = np.fft.rfft(_stack(entries, block), nfft, axis=1)
    np.conj(prod, out=prod)
    circ = np.fft.irfft(np.multiply(fq, prod, out=prod), nfft, axis=1)
    return _peaks(circ, L) / (qnorm * norms[block])


def best_candidates(
    query: Window, pool: CandidatePool, subsets: list[np.ndarray]
) -> list[tuple[int, float] | None]:
    """Each subset's best pool entry by :func:`ncc_max` score against the query.

    ``subsets`` are arrays of pool indices.  A subset's winner is
    ``(index, score)`` of its highest-scoring usable entry, the lowest
    index on ties, or ``None`` when none is usable; entries from the
    query's own series and all-zero entries are unusable and never
    correlated, nor are rows whose bound or float32 screen shows they
    cannot win (module docstring).
    Raises the errors of :func:`retrieve_best` but the missing candidate.
    """
    if not pool.entries:
        raise EmptyPoolError(f"pool for domain {pool.domain!r} is empty")
    q = np.asarray(query.input, dtype=np.float64)
    L = len(q)
    if pool.width != L:
        raise InconsistentWindowLengthError(
            f"pool windows have length {pool.width}, query has {L}"
        )
    if L < 2:
        raise LengthMismatchError("query input must have length >= 2")
    qnorm = float(np.linalg.norm(q))
    if qnorm == 0.0:
        raise ZeroNormVectorError("query window is all-zero")
    member = np.zeros((len(subsets), len(pool)), dtype=bool)
    for j, idx in enumerate(subsets):
        member[j, idx] = True
    member &= (pool.norms > 0.0) & (pool.series_ids != query.series_id)
    live = member.any(axis=1)
    rows = np.flatnonzero(member.any(axis=0))
    fq = np.fft.rfft(q, _fft_size(L))
    fq32, eps = _screen_query(fq, qnorm)
    bounds = _score_bounds(fq, qnorm, pool.mags)[rows]
    order = np.argsort(-bounds, kind="stable")
    rows, bounds = rows[order], bounds[order]
    # per subset, its highest s32 - eps so far: below its best score
    floor = np.full(len(subsets), -np.inf)
    blocks, screens = [], []
    lo, size = 0, 8  # a small first block, so floors exist before most rows
    while lo < len(rows):
        # bounds descend: the rows whose bound reaches the lowest floor lead
        n_open = np.count_nonzero(bounds[lo : lo + size] >= floor[live].min())
        if not n_open:
            break
        block = np.sort(rows[lo : lo + n_open])
        lo, size = lo + size, _CHUNK_ROWS
        screened = _screen_scores(fq32, L, pool.spectra, block)
        raised = np.where(member[:, block], screened - eps, -np.inf).max(axis=1)
        np.maximum(floor, raised, out=floor)
        blocks.append(block)
        screens.append(screened)
    if not blocks:
        return [None] * len(subsets)
    block, screened = np.concatenate(blocks), np.concatenate(screens)
    # a row can win a subset only if its screen + eps reaches the subset's floor
    wins = (member[:, block] & (screened + eps >= floor[:, None])).any(axis=0)
    block = np.sort(block[wins])
    block_scores = _block_scores(fq, L, qnorm, pool.entries, pool.norms, block)
    scores = np.where(member[:, block], block_scores, -np.inf)
    return [
        (int(block[k]), float(row[k])) if row[k] > -np.inf else None
        for row, k in zip(scores, scores.argmax(axis=1))
    ]


def retrieve_best(
    query: Window, pool: CandidatePool
) -> tuple[Window, SimilarityResult]:
    """Pool entry maximizing :func:`ncc_max` against the query input.

    The winner is :func:`best_candidates`' over the whole pool: entries
    from the query's own series and all-zero entries are skipped, and
    ties between candidates go to the lowest pool index.
    """
    (won,) = best_candidates(query, pool, [np.arange(len(pool))])
    if won is None:
        raise no_candidate(query, pool)
    idx, score = won
    return pool.entries[idx], SimilarityResult(float(np.clip(score, -1.0, 1.0)), idx)


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

