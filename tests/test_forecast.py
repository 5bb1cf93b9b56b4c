import tracemalloc

import numpy as np
import pytest

from oracles import ridge_lstsq
from ratfm.dataset import Window
from ratfm.errors import (
    BudgetExceedsAvailableError,
    EmptyTrainingSetError,
    ModeMismatchError,
    PeriodTooLongError,
    SingularSystemError,
)
from ratfm.forecast import (
    Budget,
    ContextWindow,
    ExampleCopyForecaster,
    LinearForecaster,
    SeasonalNaiveForecaster,
    assemble_context,
    forecast,
    train_linear,
    zero_shot_context,
)


def win(inp, fut, sid="s", start=0):
    return Window(series_id=sid, start=start, input=np.asarray(inp, float),
                  future=np.asarray(fut, float))


def make_ctx(rng, budget, with_future=True, copy_structure=False):
    te, h, tt = budget
    ei = rng.normal(size=te)
    ef = rng.normal(size=h)
    ti = rng.normal(size=tt)
    tf = ef.copy() if copy_structure else rng.normal(size=h)
    return ContextWindow(
        example_input=ei, example_future=ef, target_input=ti,
        horizon=h, target_future=tf if with_future else None,
    )


class TestAssemble:
    def test_suffix_slicing(self):
        ctx = assemble_context(
            target=win([4.0, 5.0, 6.0], [7.0]),
            example=win([1.0, 2.0, 3.0], [9.0]),
            budget=Budget(2, 1, 2),
        )
        assert np.array_equal(ctx.example_input, [2.0, 3.0])
        assert np.array_equal(ctx.example_future, [9.0])
        assert np.array_equal(ctx.target_input, [5.0, 6.0])
        assert np.array_equal(ctx.target_future, [7.0])

    def test_full_budget_passthrough(self):
        rng = np.random.default_rng(0)
        budget = Budget(512, 96, 512)
        ctx = assemble_context(
            target=win(rng.normal(size=512), rng.normal(size=96)),
            example=win(rng.normal(size=512), rng.normal(size=96)),
            budget=budget,
        )
        assert len(ctx.flat()) == budget.total == 1120
        assert ctx.segments == (512, 96, 512)

    def test_budget_exceeds_available(self):
        with pytest.raises(BudgetExceedsAvailableError):
            assemble_context(
                target=win([1.0, 2.0, 3.0], [7.0]),
                example=win([1.0, 2.0], [9.0]),
                budget=Budget(3, 1, 2),
            )
        with pytest.raises(BudgetExceedsAvailableError):
            assemble_context(
                target=win([1.0, 2.0], [7.0]),
                example=win([1.0, 2.0], [9.0, 8.0]),  # future != horizon
                budget=Budget(2, 1, 2),
            )

    def test_zero_shot_allocates_whole_budget(self):
        rng = np.random.default_rng(1)
        target = win(rng.normal(size=10), rng.normal(size=2))
        ctx = zero_shot_context(target, Budget(3, 2, 3))
        assert ctx.segments == (0, 0, 8)
        assert np.array_equal(ctx.target_input, target.input[-8:])
        with pytest.raises(BudgetExceedsAvailableError):
            zero_shot_context(win(np.ones(5), np.ones(2)), Budget(3, 2, 3))


class TestSimpleForecasters:
    def test_example_copy_identity(self):
        rng = np.random.default_rng(2)
        ctx = make_ctx(rng, Budget(4, 3, 4))
        out = ExampleCopyForecaster().forecast(ctx)
        assert np.array_equal(out, ctx.example_future)
        out[0] = 1e9  # copy, not a view
        assert ctx.example_future[0] != 1e9

    def test_seasonal_naive_tiling(self):
        ctx = ContextWindow(
            example_input=np.empty(0), example_future=np.empty(0),
            target_input=np.array([1.0, 2.0, 3.0, 4.0]), horizon=3,
        )
        assert np.array_equal(SeasonalNaiveForecaster(2).forecast(ctx), [3.0, 4.0, 3.0])

    def test_seasonal_naive_period_one(self):
        ctx = ContextWindow(
            example_input=np.empty(0), example_future=np.empty(0),
            target_input=np.array([5.0, 6.0, 7.0]), horizon=4,
        )
        assert np.array_equal(SeasonalNaiveForecaster(1).forecast(ctx), [7.0] * 4)

    def test_seasonal_naive_sine_oracle(self):
        period, h = 25, 50
        t = np.arange(200)
        series = np.sin(2 * np.pi * t / period)
        ctx = ContextWindow(
            example_input=np.empty(0), example_future=np.empty(0),
            target_input=series[:150], horizon=h,
        )
        out = SeasonalNaiveForecaster(period).forecast(ctx)
        truth = np.sin(2 * np.pi * np.arange(150, 150 + h) / period)
        assert float(np.mean((out - truth) ** 2)) < 1e-6

    def test_period_too_long(self):
        ctx = ContextWindow(
            example_input=np.empty(0), example_future=np.empty(0),
            target_input=np.ones(4), horizon=2,
        )
        with pytest.raises(PeriodTooLongError):
            SeasonalNaiveForecaster(5).forecast(ctx)


class TestTrainLinear:
    budget = Budget(4, 2, 4)

    def _contexts(self, n, copy_structure, rng):
        return [make_ctx(rng, self.budget, copy_structure=copy_structure) for _ in range(n)]

    def test_learns_example_copy_structure(self):
        rng = np.random.default_rng(3)
        train = self._contexts(60, True, rng)
        fc, final_mse = train_linear(train, reg=1e-6)
        held = self._contexts(20, True, np.random.default_rng(99))
        for ctx in held:
            assert np.allclose(fc.forecast(ctx), ctx.example_future, atol=1e-3)
        assert final_mse < 1e-6

    def test_single_context_well_posed(self):
        rng = np.random.default_rng(4)
        fc, final_mse = train_linear(self._contexts(1, False, rng), reg=1.0)
        assert np.all(np.isfinite(fc.weights))
        assert final_mse >= 0.0

    def test_rank_deficient_without_reg_raises(self):
        rng = np.random.default_rng(5)
        ctx = make_ctx(rng, self.budget)
        with pytest.raises(SingularSystemError):
            train_linear([ctx, ctx, ctx], reg=0.0)

    def test_matches_lstsq_ridge_oracle(self):
        rng = np.random.default_rng(6)
        train = self._contexts(30, False, rng)
        reg = 0.37
        fc, final_mse = train_linear(train, reg=reg)
        dim = self.budget.total
        A = np.array([np.append(c.flat(), 1.0) for c in train])
        Y = np.array([c.target_future for c in train])
        expected = ridge_lstsq(A, Y, reg)
        assert np.allclose(fc.weights, expected.T, atol=1e-8)
        objective = float(np.sum((A @ expected - Y) ** 2) + reg * np.sum(expected**2))
        assert final_mse == pytest.approx(objective / len(train), rel=1e-9)
        assert fc.weights.shape == (2, dim + 1)

    def test_regularizes_in_place_at_the_default_budget(self):
        # 1121 features: the gram matrix is 10 MB; adding reg * eye(1121)
        # to it would peak near twice that beside the design matrix
        rng = np.random.default_rng(8)
        budget = Budget(512, 96, 512)
        train = [make_ctx(rng, budget) for _ in range(156)]
        n_features = budget.total + 1
        gram_bytes = n_features * n_features * 8
        design_bytes = len(train) * n_features * 8
        tracemalloc.start()
        try:
            fc, _ = train_linear(train, reg=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fc.weights.shape == (budget.horizon, n_features)
        assert peak < 1.5 * gram_bytes + design_bytes

    def test_training_mse_bounds_context_average(self):
        rng = np.random.default_rng(7)
        train = self._contexts(25, False, rng)
        fc, final_mse = train_linear(train, reg=1e-2)
        per_ctx = [
            float(np.sum((fc.forecast(c) - c.target_future) ** 2)) for c in train
        ]
        assert float(np.mean(per_ctx)) <= final_mse + 1e-9

    def test_objective_monotone_in_reg(self):
        rng = np.random.default_rng(8)
        train = self._contexts(40, False, rng)
        losses = [
            train_linear(train, reg=r)[1]
            for r in (1e-6, 1e-4, 1e-2, 1.0, 1e2)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_gradient_check_against_numerical_minimizer(self):
        from scipy.optimize import minimize

        rng = np.random.default_rng(9)
        budget = Budget(3, 2, 3)
        train = [make_ctx(rng, budget) for _ in range(10)]
        reg = 0.05
        fc, final_mse = train_linear(train, reg=reg)
        A = np.array([np.append(c.flat(), 1.0) for c in train])
        Y = np.array([c.target_future for c in train])
        d = A.shape[1]

        def objective(v):
            V = v.reshape(d, 2)
            R = A @ V - Y
            return float(np.sum(R * R) + reg * np.sum(V * V))

        def grad(v):
            V = v.reshape(d, 2)
            return (2.0 * A.T @ (A @ V - Y) + 2.0 * reg * V).ravel()

        res = minimize(objective, np.zeros(d * 2), jac=grad, method="L-BFGS-B",
                       options={"maxiter": 5000, "ftol": 1e-15, "gtol": 1e-12})
        numeric = res.x.reshape(d, 2).T
        denom = max(1.0, float(np.linalg.norm(fc.weights)))
        assert float(np.linalg.norm(numeric - fc.weights)) / denom < 1e-5
        assert res.fun == pytest.approx(final_mse * len(train), rel=1e-9)

    def test_empty_and_invalid(self):
        with pytest.raises(EmptyTrainingSetError):
            train_linear([], reg=1.0)
        rng = np.random.default_rng(10)
        with pytest.raises(EmptyTrainingSetError):
            train_linear([make_ctx(rng, self.budget, with_future=False)], reg=1.0)
        with pytest.raises(ValueError):
            train_linear([make_ctx(rng, self.budget)], reg=-1.0)


class TestForecastDispatch:
    def test_copy_through_dispatch(self):
        rng = np.random.default_rng(11)
        ctx = make_ctx(rng, Budget(4, 2, 4))
        out = forecast(ExampleCopyForecaster(), ctx)
        assert np.array_equal(out, ctx.example_future)

    def test_zero_input_naive_gives_zeros(self):
        ctx = ContextWindow(
            example_input=np.empty(0), example_future=np.empty(0),
            target_input=np.zeros(6), horizon=3,
        )
        assert np.array_equal(forecast(SeasonalNaiveForecaster(2), ctx), np.zeros(3))

    def test_zero_shot_ignores_example_segments(self):
        rng = np.random.default_rng(12)
        base = make_ctx(rng, Budget(4, 2, 4))
        perturbed = ContextWindow(
            example_input=rng.normal(size=4), example_future=rng.normal(size=2),
            target_input=base.target_input, horizon=2,
        )
        fc = SeasonalNaiveForecaster(2)
        assert np.array_equal(forecast(fc, base), forecast(fc, perturbed))

    def test_mode_mismatch(self):
        zs_ctx = ContextWindow(
            example_input=np.empty(0), example_future=np.empty(0),
            target_input=np.ones(10), horizon=2,
        )
        with pytest.raises(ModeMismatchError):
            forecast(ExampleCopyForecaster(), zs_ctx)
        rng = np.random.default_rng(13)
        fc, _ = train_linear([make_ctx(rng, Budget(4, 2, 4)) for _ in range(12)], reg=0.1)
        with pytest.raises(ModeMismatchError):
            forecast(fc, zs_ctx)

    def test_trained_forecaster_spot_check(self):
        # average training error never exceeds the reported objective value
        rng = np.random.default_rng(14)
        train = [make_ctx(rng, Budget(4, 2, 4)) for _ in range(30)]
        fc, final_mse = train_linear(train, reg=1e-3)
        sses = [
            float(np.sum((forecast(fc, c) - c.target_future) ** 2)) for c in train
        ]
        assert float(np.mean(sses)) <= final_mse + 1e-9

