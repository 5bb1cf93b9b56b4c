"""Exception hierarchy shared across the toolkit.

All library errors derive from :class:`RatfmError`.  ``DatasetError`` and
``ConfigError`` subtrees map to the CLI exit codes 3 and 2 respectively.
:func:`check_field_types` lets config validation raise a ``ConfigError``
for a value of the wrong type.
"""

import dataclasses
from numbers import Integral, Real


class RatfmError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(RatfmError):
    """Invalid experiment configuration."""


class DatasetError(RatfmError):
    """Problem with an input dataset."""


# dataset
class MalformedNameError(DatasetError):
    """Filename does not end in the three required integers."""


class EmptySeriesError(DatasetError):
    """Series file contains no values."""


class NonNumericTokenError(DatasetError):
    """Series file contains a token that is not a finite number."""


class SpanOutOfBoundsError(DatasetError):
    """Train split or anomaly span violates the series bounds."""


class SeriesTooShortError(RatfmError):
    """Input series shorter than the operation requires."""


# retrieval
class ZeroNormVectorError(RatfmError):
    """Similarity undefined for an all-zero vector."""


class LengthMismatchError(RatfmError):
    """Paired vectors must have equal (and sufficient) length."""


class EmptyPoolError(RatfmError):
    """No usable retrieval candidates."""


class InconsistentWindowLengthError(RatfmError):
    """Pool windows and query disagree on input length."""


class InvalidFractionError(ConfigError):
    """Subsampling fraction outside (0, 1], repeated in a sweep, or none given."""


# forecast
class BudgetExceedsAvailableError(RatfmError):
    """Context budget asks for more points than a window provides."""


class PeriodTooLongError(RatfmError):
    """Seasonal period exceeds the available input length."""


class SingularSystemError(RatfmError):
    """The ridge system is singular: rank-deficient without regularization,
    or not numerically positive definite."""


class EmptyTrainingSetError(RatfmError):
    """No training contexts supplied."""


class ModeMismatchError(RatfmError):
    """Context layout incompatible with the forecaster's mode."""


# scoring / metrics
class InvalidWindowError(RatfmError):
    """Moving-average window must be at least 1."""


class NoPositiveMassError(RatfmError):
    """Ground-truth labels carry no positive mass."""


class EmptyInputError(RatfmError):
    """Operation requires at least one value."""


# harness
class InvalidSpecError(ConfigError):
    """Synthetic dataset specification is invalid."""


# field annotation -> accepted type; other names (nested specs) are not checked
_SCALARS = {"str": str, "int": Integral, "float": Real}


def _has_type(value, kind: str) -> bool:
    if kind == "Budget":
        kind = "tuple[int, int, int]"
    if kind.endswith(" | None"):
        return value is None or _has_type(value, kind[: -len(" | None")])
    if kind.startswith("tuple["):
        items = kind[len("tuple[") : -1].split(", ")
        if not isinstance(value, tuple):
            return False
        if items[-1] == "...":
            return all(_has_type(v, items[0]) for v in value)
        return len(value) == len(items) and all(map(_has_type, value, items))
    if kind == "bool" or isinstance(value, bool):
        return kind == "bool" and isinstance(value, bool)
    return isinstance(value, _SCALARS.get(kind, object))


def check_field_types(obj, error: type[ConfigError] = ConfigError) -> None:
    """Raise ``error`` for a field of dataclass ``obj`` that does not hold
    its annotated type (str, int, float, bool, optional, tuple).

    A bool is not accepted as a number, nor a number as a bool.
    """
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if not _has_type(value, f.type):
            raise error(f"{f.name} must be {f.type}, got {value!r}")
