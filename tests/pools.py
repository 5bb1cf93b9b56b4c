"""Candidate pools built from arbitrary windows, for retrieval tests."""

from __future__ import annotations

import numpy as np

from ratfm.dataset import Window
from ratfm.retrieval import CandidatePool


def pool_of(entries, domain="d", width=None) -> CandidatePool:
    """A pool whose rows are ``entries``, in order, all of one length.

    The pool's values hold each series' windows, input then future, end
    to end in entry order, one series after another; the start of a
    window :func:`retrieve_best` returns is where its row begins in its
    series' part of the values.  ``width`` sets an empty pool's row length.
    """
    width = len(entries[0].input) if width is None else width
    horizon = len(entries[0].future) if entries else 0
    ids = list(dict.fromkeys(e.series_id for e in entries))
    order = sorted(range(len(entries)), key=lambda i: ids.index(entries[i].series_id))
    starts = np.empty(len(entries), dtype=np.intp)
    starts[order] = np.arange(len(entries)) * (width + horizon)
    rows = [np.concatenate((entries[i].input, entries[i].future)) for i in order]
    counts = [sum(e.series_id == sid for e in entries) for sid in ids]
    return CandidatePool(
        domain=domain,
        values=np.concatenate(rows) if rows else np.empty(0),
        series_ids=tuple(ids),
        offsets=np.cumsum([0] + counts[:-1]) * (width + horizon),
        starts=starts,
        width=width,
        horizon=horizon,
    )


def same_window(a, b) -> bool:
    """Whether two windows hold the same series id, input and future."""
    return (
        a.series_id == b.series_id
        and np.array_equal(a.input, b.input)
        and np.array_equal(a.future, b.future)
    )


def row_window(pool, row):
    """Row ``row`` of ``pool`` as a window of its series, start, input and future."""
    start, k = int(pool.starts[row]), int(pool.series[row])
    end = start + pool.width
    return Window(
        series_id=pool.series_ids[k],
        start=start - int(pool.offsets[k]),
        input=pool.values[start:end],
        future=pool.values[end : end + pool.horizon],
    )
