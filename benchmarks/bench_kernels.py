#!/usr/bin/env python3
"""Time the hot kernels on their numba and pure-numpy backends.

Runs each kernel on realistic input sizes and prints a timing table.  The
active backend for the library itself is chosen at import time via
``RATFM_DISABLE_NUMBA``; this script calls the per-backend implementations
directly so one process can compare both.  Without numba the numba and
speedup columns show ``-``.

The last row times one ``retrieve_best`` call on a 900-entry pool at
window length 512 (the pool shape of perfbench's ``consumers_default``).
It runs on the active backend, whose lag scan covers only the winner's
row; its time is shown in the numpy column.  Whole-pipeline timings come
from ``perfbench/``.

    PYTHONPATH=src python benchmarks/bench_kernels.py
"""

import time

import numpy as np

from ratfm import _kernels
from ratfm.dataset import Window
from ratfm.retrieval import CandidatePool, retrieve_best


def timeit(fn, *args, repeats=30):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def retrieval_case(rng):
    def window(sid, start):
        return Window(series_id=sid, start=start, input=rng.normal(size=512),
                      future=rng.normal(size=96))

    pool = CandidatePool(
        domain="d", entries=[window(f"s{i % 4}", i) for i in range(900)]
    )
    query = window("s0", 0)
    retrieve_best(query, pool)  # build the pool's cached spectra
    return query, pool


def main() -> None:
    have_numba = _kernels._HAVE_NUMBA
    rng = np.random.default_rng(0)

    scores = rng.random(20_000)
    cc = rng.normal(size=1023)
    cc_batch = rng.normal(size=(600, 1023))
    sorted_scores = np.sort(rng.random(20_000))[::-1].copy()
    soft = rng.random(20_000)
    haystack = rng.normal(size=4096)
    needle = rng.normal(size=96)

    def numba(name):
        return getattr(_kernels, name) if have_numba else None

    cases = [
        ("sma_trailing (n=20k, w=96)",
         numba("_sma_numba"), _kernels._sma_numpy, (scores, 96)),
        ("best_lag (2L-1=1023)",
         numba("_best_lag_numba"), _kernels._best_lag_numpy, (cc,)),
        ("best_lag_batch (600x1023)",
         numba("_best_lag_batch_numba"), _kernels._best_lag_batch_numpy, (cc_batch,)),
        ("weighted_areas (n=20k)",
         numba("_weighted_areas_numba"), _kernels._weighted_areas_numpy,
         (sorted_scores, soft)),
        ("lag0_scan (4096/96)",
         numba("_lag0_scan_numba"), _kernels._lag0_scan_numpy, (haystack, needle)),
        ("retrieve_best (900 x L=512)",
         None, retrieve_best, retrieval_case(rng)),
    ]

    # warm the JIT before timing
    for _name, numba_fn, _numpy_fn, args in cases:
        if numba_fn is not None:
            numba_fn(*args)

    print(f"{'kernel':34s} {'numba':>10s} {'numpy':>10s} {'speedup':>8s}")
    for name, numba_fn, numpy_fn, args in cases:
        t_numpy = timeit(numpy_fn, *args)
        if numba_fn is None:
            numba_col, speedup_col = f"{'-':>10s}", f"{'-':>8s}"
        else:
            t_numba = timeit(numba_fn, *args)
            numba_col = f"{t_numba*1e3:8.3f}ms"
            speedup_col = f"{t_numpy/t_numba:7.1f}x"
        print(f"{name:34s} {numba_col} {t_numpy*1e3:8.3f}ms {speedup_col}")


if __name__ == "__main__":
    main()
