"""UCR-archive-style series ingestion, standardization, and windowing.

Files are UTF-8 text holding whitespace-separated numbers, with the
train/test split and one anomaly span encoded in the filename as the
three trailing underscore-separated integers:
``<id>_<name>_<trainEnd>_<anomStart>_<anomEnd>.<ext>``.
"""

from __future__ import annotations

import json
import math
import os
import re
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

# bytes per orjson call in parse_ucr_file, cut where a line ends.  Parsing
# both 5.6 MB archive_zero_shot files in a fresh process took 93 ms and
# 5 090 minor page faults at 128 KiB, 144 ms and 9 642 faults at 1 MiB
# (medians of 5); 32 and 64 KiB were no faster
_PARSE_CHUNK_BYTES = 1 << 17
_BLANK = re.compile(rb"\s")


@dataclass(frozen=True)
class LabeledSeries:
    """One univariate series with its train/test split and anomaly spans.

    ``train_end`` is the exclusive end of the anomaly-free training
    region; ``anomaly_spans`` holds inclusive (start, end) index pairs
    that must lie inside the test region.  Instances are immutable, so
    a caller's threads may share them; ``values`` is marked read-only.
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


def utf8_name(name: str) -> str:
    """A file name as text, its bytes read as UTF-8 in any locale.

    An ASCII locale decodes a non-ASCII name's bytes to surrogate
    escapes, which no UTF-8 writer accepts; read as UTF-8, the name is
    the text a UTF-8 locale gives.  Bytes that are not UTF-8 stay escaped.
    """
    return os.fsencode(name).decode("utf-8", "surrogateescape")


def os_name(text: str) -> str:
    """The inverse of :func:`utf8_name`: the name whose bytes are ``text`` in UTF-8.

    For paths, and for the terminal, which in an ASCII locale writes
    surrogate escapes back as the bytes they stand for.
    """
    return os.fsdecode(text.encode("utf-8", "surrogateescape"))


def _count(text: bytes, byte: bytes) -> int:
    """How often ``byte`` occurs in ``text``: a numpy compare, ~7x faster than bytes.count."""
    return int(np.count_nonzero(np.frombuffer(text, np.uint8) == ord(byte)))


def _json_floats(text: bytes, n: int) -> list[float] | None:
    """``text`` read by orjson as a JSON array's body, if that is ``n`` floats.

    Without ``"`` or ``[``, a JSON value is a number, a literal or ``{}``, none
    with two dots; so if ``text`` holds ``n`` dots, each of ``n`` values is a
    number with a fraction part, which orjson reads as a float.  Values of other
    texts have their types checked.
    """
    try:
        parsed = orjson.loads(b"[" + text + b"]")
    except orjson.JSONDecodeError:
        return None
    if len(parsed) != n:
        return None
    if b'"' not in text and b"[" not in text and _count(text, b".") == n:
        return parsed
    return parsed if {*map(type, parsed)} == {float} else None


def _parse_tokens(chunk: bytes) -> list[float] | list[str]:
    """``chunk``'s tokens: as floats if orjson reads each as a JSON float."""
    tokens = chunk.split()
    return _json_floats(b",".join(tokens), len(tokens)) or chunk.decode("utf-8").split()


def parse_ucr_file(path: str | Path) -> LabeledSeries:
    """Parse one UCR-style text file into a :class:`LabeledSeries`.

    The filename stem must end in three integers (train end, anomaly
    start, anomaly end); extra trailing integers beyond three are kept
    as part of the name.  The domain label is the second leading token
    when present, otherwise the first.  A file name whose bytes are not
    UTF-8 is a :class:`DatasetError`.
    """
    path = Path(path)
    stem = utf8_name(path.stem)
    try:
        stem.encode("utf-8")
    except UnicodeEncodeError as exc:  # the id names output files and reports
        raise DatasetError(f"{path}: file name is not UTF-8") from exc
    parts = stem.split("_")
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
        data = path.read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    # orjson reads each ~128 KiB chunk of lines; it rounds as float() does, so one
    # JSON float per line (a comma adds a value) is bitwise float(tok).  Counts of a
    # chunk's bytes prove it so (_json_floats), else each value's type is checked:
    # both 5.6 MB archive files parsed in 46 ms, against 63 ms with every type
    # checked (best of 7, 2-CPU host).  Other chunks (blank lines, two tokens on a
    # line, ints, so "-0" keeps its sign, or what JSON rejects) go by _parse_tokens;
    # the loop names the first bad token.
    pieces, lo, end = [], 0, len(data) - data.endswith(b"\n")
    try:
        while lo < end:
            hi = data.find(b"\n", lo + _PARSE_CHUNK_BYTES, end)
            if not lo < hi < lo + 2 * _PARSE_CHUNK_BYTES:  # cut a long line at a blank
                blank = _BLANK.search(data, lo + _PARSE_CHUNK_BYTES, end)
                hi = blank.start() if blank else end
            chunk, lo = data[lo:hi], hi + 1
            floats = _json_floats(chunk.replace(b"\n", b","), _count(chunk, b"\n") + 1)
            pieces.append(np.fromiter(floats, np.float64, len(floats)) if floats
                          else np.asarray(_parse_tokens(chunk), dtype=np.float64))
        values = np.concatenate(pieces) if pieces else np.empty(0)
        finite = bool(np.isfinite(values).all())
    except ValueError:
        finite = False
    if not finite:
        try:
            tokens = data.decode("utf-8").split()
        except UnicodeDecodeError as exc:
            raise DatasetError(f"cannot read {path}: {exc}") from exc
        for tok in tokens:
            try:
                value = float(tok)
            except ValueError as exc:
                raise NonNumericTokenError(f"{path.name}: bad token {tok!r}") from exc
            if not math.isfinite(value):
                raise NonNumericTokenError(f"{path.name}: non-finite token {tok!r}")
    if not len(values):
        raise EmptySeriesError(f"{path.name}: file holds no values")

    return LabeledSeries(
        id=stem,
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
    span = input_len + horizon
    return [
        Window(
            series_id=series.id,
            start=start,
            input=series.values[start : start + input_len],
            future=series.values[start + input_len : start + span],
        )
        for start in window_starts(series, region, input_len, horizon, stride)
    ]


def window_starts(
    series: LabeledSeries,
    region: str,
    input_len: int,
    horizon: int,
    stride: int,
) -> range:
    """The absolute starts of :func:`make_windows`'s windows, in order."""
    if input_len < 1 or horizon < 1 or stride < 1:
        raise ValueError("input_len, horizon and stride must all be >= 1")
    if region == "train":
        lo, hi = 0, series.train_end
    elif region == "test":
        lo, hi = series.train_end, len(series.values)
    else:
        raise ValueError(f"unknown region {region!r}")
    return range(lo, hi - input_len - horizon + 1, stride)


def gather(values: np.ndarray, starts, length: int) -> np.ndarray:
    """The ``length`` points of ``values`` from each of ``starts``, a row each."""
    return values[np.asarray(starts, dtype=np.intp)[:, None] + np.arange(length)]


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
    path.write_text(json.dumps({"series": meta}, indent=2, sort_keys=True) + "\n", "utf-8")
