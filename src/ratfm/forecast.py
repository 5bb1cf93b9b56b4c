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
        # train_linear's primal side passes a transpose; C order fixes the
        # layout, and so the summation order, of the forecast's mat-vec
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


def _ridge_solve(X: np.ndarray, B: np.ndarray, reg: float) -> np.ndarray:
    """Solve ``(X X^T + reg I) Z = B`` for ``Z``, overwriting ``B``.

    The gram's lower triangle is formed row by row and factored by a
    column-loop Cholesky; two row-loop triangular solves then overwrite
    ``B``, which is returned.  Every reduction is an ``einsum`` with
    ``optimize=False``, which never calls BLAS, so the bits do not depend
    on the BLAS thread count.
    """
    m = len(X)
    L = np.zeros((m, m))
    for i in range(m):
        L[i, : i + 1] = np.einsum("k,jk->j", X[i], X[: i + 1], optimize=False)
    L.flat[:: m + 1] += reg  # the diagonal, without an identity matrix
    for j in range(m):
        col = L[j:, j] - np.einsum("ik,k->i", L[j:, :j], L[j, :j], optimize=False)
        if not col[0] > 0.0:
            raise SingularSystemError("ridge system is not positive definite")
        L[j:, j] = col / np.sqrt(col[0])
    for i in range(m):
        B[i] -= np.einsum("k,kj->j", L[i, :i], B[:i], optimize=False)
        B[i] /= L[i, i]
    for i in reversed(range(m)):
        B[i] -= np.einsum("k,kj->j", L[i + 1 :, i], B[i + 1 :], optimize=False)
        B[i] /= L[i, i]
    return B


def train_linear(
    X: np.ndarray, Y: np.ndarray, reg: float, budget: Budget
) -> tuple[LinearForecaster, float]:
    """Fit the linear forecaster by ridge-regularized least squares.

    ``X`` holds a flattened context (:meth:`ContextWindow.flat`) per row,
    ``Y`` its target future.  Minimizes ``sum ||W a - y||^2 + reg *
    ||W||_F^2`` over the augmented rows ``a = [x, 1]``, solved in closed
    form on the smaller side of the n x (dim + 1) design ``A``.  With no
    more contexts than features the dual (kernel) system ``(A A^T + reg
    I) alpha = Y`` is solved and ``W^T = A^T alpha``; otherwise the
    primal normal equations ``(A^T A + reg I) W^T = A^T Y``.  Both sides
    reduce in a fixed order (see :func:`_ridge_solve`), so the weights
    are the same bits under any BLAS thread count.  Returns the
    forecaster and ``final_mse``, the objective value divided by the
    number of contexts.  With ``reg=0`` a rank-deficient system raises
    :class:`SingularSystemError` rather than picking an arbitrary
    interpolant.
    """
    budget = Budget(*budget)
    n, dim, h = len(X), budget.total, budget.horizon
    if not n:
        raise EmptyTrainingSetError("no training contexts")
    if reg < 0:
        raise ValueError(f"reg must be >= 0, got {reg}")
    if np.shape(X) != (n, dim) or np.shape(Y) != (n, h):
        raise ValueError(f"need {n} x {dim} contexts and {n} x {h} targets")
    A = np.empty((n, dim + 1), dtype=np.float64)
    A[:, :dim] = X
    A[:, dim] = 1.0
    # one layout for the einsums below, whatever the caller passes
    Y = np.ascontiguousarray(Y, dtype=np.float64)

    if reg == 0.0 and np.linalg.matrix_rank(A) < dim + 1:
        raise SingularSystemError("normal equations are rank-deficient with reg=0")
    if n <= dim + 1:
        alpha = _ridge_solve(A, Y.copy(), reg)
        weights = np.einsum("ij,ik->jk", alpha, A, optimize=False)
    else:
        B = np.einsum("ki,kj->ij", A, Y, optimize=False)
        weights = _ridge_solve(A.T, B, reg).T
    # the objective at the returned weights is flat at its minimum, so the
    # solve's rounding moves it only to second order; reg * sum(alpha * Y),
    # equal in exact arithmetic, moves to first order
    residual = np.einsum("ik,jk->ij", A, weights, optimize=False) - Y
    objective = float(np.sum(residual * residual)) + reg * float(np.sum(weights * weights))
    return LinearForecaster(weights, budget), objective / n


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

