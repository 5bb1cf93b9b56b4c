"""Context assembly and the pluggable forecasters.

A context concatenates three segments in fixed order: the retrieved
example's input, the example's observed future, and the target input.
Forecasters consume a context and emit a fixed-length forecast of the
target future.  Three desk-scale forecasters are provided:

* example-copy: predicts the retrieved example's future verbatim;
* seasonal-naive: zero-shot baseline tiling the target input's last cycle;
* linear: a ridge-trained affine map from the flattened context.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import Window
from .errors import (
    BudgetExceedsAvailableError,
    EmptyTrainingSetError,
    ModeMismatchError,
    PeriodTooLongError,
    SingularSystemError,
)


class Budget(NamedTuple):
    """Input-length allocation: (example input, horizon, target input)."""

    example_len: int
    horizon: int
    target_len: int

    @property
    def total(self) -> int:
        return self.example_len + self.horizon + self.target_len


@dataclass(frozen=True)
class ContextWindow:
    """Assembled forecaster input with explicit segment boundaries.

    Zero-shot contexts carry empty example segments and allocate the
    whole budget to ``target_input``; either way the concatenated length
    equals the model budget.  ``target_future`` is present for training
    and evaluation contexts.
    """

    example_input: np.ndarray
    example_future: np.ndarray
    target_input: np.ndarray
    horizon: int
    target_future: np.ndarray | None = None

    def __post_init__(self) -> None:
        ef = len(self.example_future)
        if ef not in (0, self.horizon):
            raise ValueError(
                f"example_future length {ef} is neither 0 nor horizon {self.horizon}"
            )
        if self.target_future is not None and len(self.target_future) != self.horizon:
            raise ValueError("target_future length must equal the horizon")

    @property
    def segments(self) -> tuple[int, int, int]:
        return (
            len(self.example_input),
            len(self.example_future),
            len(self.target_input),
        )

    def flat(self) -> np.ndarray:
        """Concatenation [example_input, example_future, target_input]."""
        return np.concatenate(
            (self.example_input, self.example_future, self.target_input)
        )


def assemble_context(target: Window, example: Window, budget: Budget) -> ContextWindow:
    """Build the retrieval-augmented context for one target window.

    Takes the last ``example_len`` points of the example input and the
    last ``target_len`` points of the target input; the example future
    must match the horizon exactly.
    """
    te, h, tt = budget
    if len(example.input) < te:
        raise BudgetExceedsAvailableError(
            f"example input has {len(example.input)} points, budget wants {te}"
        )
    if len(target.input) < tt:
        raise BudgetExceedsAvailableError(
            f"target input has {len(target.input)} points, budget wants {tt}"
        )
    if len(example.future) != h:
        raise BudgetExceedsAvailableError(
            f"example future has {len(example.future)} points, horizon is {h}"
        )
    return ContextWindow(
        example_input=np.asarray(example.input[len(example.input) - te :], dtype=np.float64),
        example_future=np.asarray(example.future, dtype=np.float64),
        target_input=np.asarray(target.input[len(target.input) - tt :], dtype=np.float64),
        horizon=h,
        target_future=None
        if target.future is None
        else np.asarray(target.future, dtype=np.float64),
    )


def zero_shot_context(target: Window, budget: Budget) -> ContextWindow:
    """Context with the whole budget allocated to the target input."""
    total = budget.total
    if len(target.input) < total:
        raise BudgetExceedsAvailableError(
            f"target input has {len(target.input)} points, budget wants {total}"
        )
    return ContextWindow(
        example_input=np.empty(0, dtype=np.float64),
        example_future=np.empty(0, dtype=np.float64),
        target_input=np.asarray(target.input[len(target.input) - total :], dtype=np.float64),
        horizon=budget.horizon,
        target_future=None
        if target.future is None
        else np.asarray(target.future, dtype=np.float64),
    )


class Forecaster(ABC):
    """Interface producing a horizon-length forecast from a context."""

    name: str
    mode: str  # "zero_shot" or "ratfm"

    @abstractmethod
    def forecast(self, ctx: ContextWindow) -> np.ndarray:
        raise NotImplementedError


class ExampleCopyForecaster(Forecaster):
    """Predict the retrieved example's future verbatim."""

    name = "example_copy"
    mode = "ratfm"

    def forecast(self, ctx: ContextWindow) -> np.ndarray:
        if len(ctx.example_future) != ctx.horizon:
            raise ModeMismatchError("context carries no example future")
        return ctx.example_future.copy()


class SeasonalNaiveForecaster(Forecaster):
    """Tile the last observed cycle of the target input forward."""

    name = "seasonal_naive"
    mode = "zero_shot"

    def __init__(self, period: int):
        self.period = int(period)

    def forecast(self, ctx: ContextWindow) -> np.ndarray:
        period, tgt = self.period, ctx.target_input
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        if period > len(tgt):
            raise PeriodTooLongError(f"period {period} exceeds target input length {len(tgt)}")
        idx = len(tgt) - period + (np.arange(ctx.horizon) % period)
        return tgt[idx].copy()


class LinearForecaster(Forecaster):
    """Affine map from the flattened context to the forecast.

    ``weights`` has shape (horizon, context_dim + 1); the last column is
    the bias.  The context segment lengths must match the training
    budget exactly.
    """

    name = "linear"
    mode = "ratfm"

    def __init__(self, weights: np.ndarray, budget: Budget):
        # contiguous layout keeps matvec results identical across
        # save/load round trips
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        expected = (budget.horizon, budget.total + 1)
        if weights.shape != expected:
            raise ValueError(f"weights shape {weights.shape} != {expected}")
        self.weights = weights
        self.budget = Budget(*budget)

    def forecast(self, ctx: ContextWindow) -> np.ndarray:
        te, h, tt = self.budget
        if ctx.segments != (te, h, tt) or ctx.horizon != h:
            raise ModeMismatchError(
                f"context segments {ctx.segments} do not match "
                f"training budget {(te, h, tt)}"
            )
        return self.weights[:, :-1] @ ctx.flat() + self.weights[:, -1]


def train_linear(
    train_contexts: list[ContextWindow], reg: float
) -> tuple[LinearForecaster, float]:
    """Fit the linear forecaster by ridge-regularized least squares.

    Minimizes ``sum ||W a - y||^2 + reg * ||W||_F^2`` over the augmented
    context vectors ``a = [flat(ctx), 1]``, solved in closed form via the
    normal equations.  Returns the forecaster and ``final_mse``, the
    objective value divided by the number of contexts.  With ``reg=0`` a
    rank-deficient system raises :class:`SingularSystemError` rather than
    picking an arbitrary interpolant.
    """
    if not train_contexts:
        raise EmptyTrainingSetError("no training contexts")
    if reg < 0:
        raise ValueError(f"reg must be >= 0, got {reg}")
    segs = train_contexts[0].segments
    h = train_contexts[0].horizon
    for ctx in train_contexts:
        if ctx.target_future is None:
            raise EmptyTrainingSetError("every training context needs target_future")
        if ctx.segments != segs or ctx.horizon != h:
            raise ValueError("training contexts have inconsistent segment layout")

    n = len(train_contexts)
    dim = sum(segs)
    A = np.empty((n, dim + 1), dtype=np.float64)
    Y = np.empty((n, h), dtype=np.float64)
    for i, ctx in enumerate(train_contexts):
        A[i, :dim] = ctx.flat()
        A[i, dim] = 1.0
        Y[i] = ctx.target_future

    gram = A.T @ A
    if reg == 0.0:
        if np.linalg.matrix_rank(A) < dim + 1:
            raise SingularSystemError(
                "normal equations are rank-deficient with reg=0"
            )
    else:
        gram.flat[:: dim + 2] += reg  # the diagonal, without an identity matrix
    wt = np.linalg.solve(gram, A.T @ Y)  # (dim+1, horizon)
    weights = wt.T

    residual = A @ wt - Y
    objective = float(np.sum(residual * residual)) + reg * float(np.sum(wt * wt))
    return LinearForecaster(weights, Budget(segs[0], h, segs[2])), objective / n


def forecast(forecaster: Forecaster, ctx: ContextWindow) -> np.ndarray:
    """Run a forecaster on one context and validate the output contract.

    Retrieval-mode forecasters require the example segments; zero-shot
    forecasters ignore them.  The output always has exactly ``horizon``
    finite values.
    """
    if forecaster.mode == "ratfm" and len(ctx.example_future) != ctx.horizon:
        raise ModeMismatchError(
            f"{forecaster.name} needs example segments in the context"
        )
    out = np.asarray(forecaster.forecast(ctx), dtype=np.float64)
    if out.shape != (ctx.horizon,):
        raise ValueError(
            f"{forecaster.name} returned shape {out.shape}, expected ({ctx.horizon},)"
        )
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{forecaster.name} produced non-finite values")
    return out

