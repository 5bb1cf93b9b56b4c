"""UCR-archive-style series ingestion, standardization, and windowing.

Files are plain text holding whitespace-separated numbers, with the
train/test split and one anomaly span encoded in the filename as the
three trailing underscore-separated integers:
``<id>_<name>_<trainEnd>_<anomStart>_<anomEnd>.<ext>``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import orjson

from .errors import (
    DatasetError,
    EmptySeriesError,
    MalformedNameError,
    NonNumericTokenError,
    SeriesTooShortError,
    SpanOutOfBoundsError,
)

STD_EPSILON = 1e-8

# tokens parsed per orjson call in parse_ucr_file; bounds the joined text
_PARSE_CHUNK_TOKENS = 1 << 16


@dataclass(frozen=True)
class LabeledSeries:
    """One univariate series with its train/test split and anomaly spans.

    ``train_end`` is the exclusive end of the anomaly-free training
    region; ``anomaly_spans`` holds inclusive (start, end) index pairs
    that must lie inside the test region.  Instances are immutable and
    safe to share across workers; ``values`` is marked read-only.
    """

    id: str
    domain: str
    values: np.ndarray
    train_end: int
    anomaly_spans: tuple[tuple[int, int], ...]
    source_path: str = ""

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        n = len(values)
        if n == 0:
            raise EmptySeriesError(f"{self.id}: series has no values")
        if not np.all(np.isfinite(values)):
            raise NonNumericTokenError(f"{self.id}: series contains NaN/Inf")
        if not 0 < self.train_end < n:
            raise SpanOutOfBoundsError(
                f"{self.id}: train_end={self.train_end} outside (0, {n})"
            )
        for start, end in self.anomaly_spans:
            if not (self.train_end <= start <= end < n):
                raise SpanOutOfBoundsError(
                    f"{self.id}: anomaly span ({start}, {end}) not inside "
                    f"test region [{self.train_end}, {n})"
                )

    @property
    def train_values(self) -> np.ndarray:
        return self.values[: self.train_end]

    @property
    def test_values(self) -> np.ndarray:
        return self.values[self.train_end :]


@dataclass(frozen=True)
class StandardizationParams:
    """Affine transform parameters computed from the training region."""

    mean: float
    std: float
    epsilon: float = STD_EPSILON

    @property
    def divisor(self) -> float:
        return max(self.std, self.epsilon)


@dataclass(frozen=True)
class Window:
    """A contiguous (input, future) slice of a series.

    ``start`` is the absolute index of the first input point in the
    source series.
    """

    series_id: str
    start: int
    input: np.ndarray
    future: np.ndarray


def parse_ucr_file(path: str | Path) -> LabeledSeries:
    """Parse one UCR-style text file into a :class:`LabeledSeries`.

    The filename stem must end in three integers (train end, anomaly
    start, anomaly end); extra trailing integers beyond three are kept
    as part of the name.  The domain label is the second leading token
    when present, otherwise the first.
    """
    path = Path(path)
    parts = path.stem.split("_")
    if len(parts) < 4:
        raise MalformedNameError(
            f"{path.name}: expected '<name>_<trainEnd>_<anomStart>_<anomEnd>'"
        )
    try:
        train_end, anom_start, anom_end = (int(tok) for tok in parts[-3:])
    except ValueError as exc:
        raise MalformedNameError(
            f"{path.name}: trailing tokens {parts[-3:]} are not integers"
        ) from exc
    lead = parts[:-3]
    domain = lead[1] if len(lead) >= 2 else lead[0]

    try:
        tokens = path.read_text().split()
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    if not tokens:
        raise EmptySeriesError(f"{path.name}: file holds no values")
    # orjson reads numbers correctly rounded, as float() does, so a chunk it
    # returns as all floats is bitwise float(tok) of each token; ints (so "-0"
    # keeps its sign) and what JSON rejects go through numpy, which calls
    # float() per string.  On failure the loop names the first offending token.
    values = np.empty(len(tokens))
    try:
        for i in range(0, len(tokens), _PARSE_CHUNK_TOKENS):
            chunk = tokens[i : i + _PARSE_CHUNK_TOKENS]
            try:
                parsed = orjson.loads("[" + ",".join(chunk) + "]")
            except orjson.JSONDecodeError:
                parsed = []
            if len(parsed) != len(chunk) or set(map(type, parsed)) != {float}:
                parsed = np.array(chunk, dtype=np.float64)
            values[i : i + len(chunk)] = parsed
        finite = bool(np.isfinite(values).all())
    except ValueError:
        finite = False
    if not finite:
        for tok in tokens:
            try:
                value = float(tok)
            except ValueError as exc:
                raise NonNumericTokenError(f"{path.name}: bad token {tok!r}") from exc
            if not math.isfinite(value):
                raise NonNumericTokenError(f"{path.name}: non-finite token {tok!r}")

    return LabeledSeries(
        id=path.stem,
        domain=domain,
        values=values,
        train_end=train_end,
        anomaly_spans=((anom_start, anom_end),),
        source_path=str(path),
    )


def standardize(series: LabeledSeries) -> tuple[LabeledSeries, StandardizationParams]:
    """Z-score the whole series using statistics of the training region only.

    Uses the population (1/N) standard deviation; a constant training
    region falls back to the ``epsilon`` divisor so outputs stay finite.
    Finite values whose statistics or z-scores overflow float64 are a
    :class:`DatasetError`.
    """
    if series.train_end < 2:
        raise SeriesTooShortError(
            f"{series.id}: need train_end >= 2, got {series.train_end}"
        )
    train = series.train_values
    with np.errstate(over="ignore", invalid="ignore"):
        params = StandardizationParams(mean=float(train.mean()), std=float(train.std()))
        transformed = (series.values - params.mean) / params.divisor
    if not (
        math.isfinite(params.mean)
        and math.isfinite(params.std)
        and np.isfinite(transformed).all()
    ):
        raise DatasetError(
            f"series {series.id!r}: values overflow float64 when standardized"
        )
    out = LabeledSeries(
        id=series.id,
        domain=series.domain,
        values=transformed,
        train_end=series.train_end,
        anomaly_spans=series.anomaly_spans,
        source_path=series.source_path,
    )
    return out, params


def make_windows(
    series: LabeledSeries,
    region: str,
    input_len: int,
    horizon: int,
    stride: int,
) -> list[Window]:
    """Slide (input, future) windows over one region of the series.

    Windows start at region-relative offsets ``0, stride, 2*stride, ...``
    and lie fully inside the region, so the count is
    ``floor((region_len - input_len - horizon) / stride) + 1``.  A region
    too short for a single window yields an empty list.
    """
    if input_len < 1 or horizon < 1 or stride < 1:
        raise ValueError("input_len, horizon and stride must all be >= 1")
    if region == "train":
        lo, hi = 0, series.train_end
    elif region == "test":
        lo, hi = series.train_end, len(series.values)
    else:
        raise ValueError(f"unknown region {region!r}")

    span = input_len + horizon
    windows = []
    for offset in range(0, hi - lo - span + 1, stride):
        start = lo + offset
        windows.append(
            Window(
                series_id=series.id,
                start=start,
                input=series.values[start : start + input_len],
                future=series.values[start + input_len : start + span],
            )
        )
    return windows


def load_dataset(root: str | Path) -> list[LabeledSeries]:
    """Parse every ``*.txt`` file under ``root``, sorted by path.

    A missing root is an error; an existing directory with no matching
    files yields an empty list (callers decide whether that is fatal).
    Two files with the same stem are an error: the series id keys
    retrieval caches and output files.
    """
    root = Path(root)
    if not root.is_dir():
        raise DatasetError(f"dataset root {root} is not a directory")
    series = [parse_ucr_file(p) for p in sorted(root.rglob("*.txt")) if p.is_file()]
    paths: dict[str, str] = {}
    for s in series:
        if s.id in paths:
            raise DatasetError(
                f"duplicate series id {s.id!r}: {paths[s.id]} and {s.source_path}"
            )
        paths[s.id] = s.source_path
    return series


def dump_metadata(series_list: list[LabeledSeries], path: str | Path) -> None:
    """Write parsed metadata (no values) as JSON, making missing parent dirs."""
    meta = [
        {
            "id": s.id,
            "domain": s.domain,
            "length": len(s.values),
            "train_end": s.train_end,
            "anomaly_spans": [list(span) for span in s.anomaly_spans],
            "source_path": s.source_path,
        }
        for s in series_list
    ]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"series": meta}, indent=2, sort_keys=True) + "\n")
