import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mafn import losses as L
from mafn import tensor as T
from mafn.errors import ContractError, NumericError
from mafn.gradcheck import check_gradients
from mafn.tensor import Tensor


class TestStateLoss:
    def test_confident_correct_logits_vanish(self):
        logits = Tensor(np.array([[50.0, 0.0], [0.0, 50.0]]))
        loss = L.state_loss(logits, [0, 1], [1.0, 1.0])
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_uniform_logits_log_k(self):
        logits = Tensor(np.zeros((3, 4)))
        loss = L.state_loss(logits, [0, 2, 3], [1.0, 1.0, 1.0])
        assert loss.item() == pytest.approx(np.log(4.0), abs=1e-12)

    def test_mask_equals_restriction(self, rng):
        logits = rng.normal(size=(6, 3))
        targets = rng.integers(0, 3, size=6)
        mask = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        masked = L.state_loss(Tensor(logits), targets, mask).item()
        restricted = L.state_loss(Tensor(logits[:3]), targets[:3], np.ones(3)).item()
        assert masked == pytest.approx(restricted, abs=1e-12)

    def test_all_zero_mask_gives_zero_loss_and_gradient(self, rng):
        logits = T.parameter(rng.normal(size=(2, 3)))
        loss = L.state_loss(logits, [0, 1], [0.0, 0.0])
        assert loss.item() == 0.0
        loss.backward()
        np.testing.assert_array_equal(logits.grad, np.zeros((2, 3)))

    def test_masked_positions_ignored(self, rng):
        logits = rng.normal(size=(4, 3))
        garbage = logits.copy()
        garbage[2:] = 1e6
        mask = np.array([1.0, 1.0, 0.0, 0.0])
        a = L.state_loss(Tensor(logits), [0, 1, 2, 0], mask).item()
        b = L.state_loss(Tensor(garbage), [0, 1, 1, 2], mask).item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_gradient(self, rng):
        logits = T.parameter(rng.normal(size=(4, 3)))
        targets = rng.integers(0, 3, size=4)
        mask = np.array([1.0, 1.0, 1.0, 0.0])
        check_gradients(lambda: L.state_loss(logits, targets, mask), [logits])


class TestDegradationLoss:
    def test_monotone_is_free(self):
        assert L.degradation_loss(Tensor([0.0, 1.0, 2.0]), 0.0).item() == 0.0

    def test_single_reversal(self):
        assert L.degradation_loss(Tensor([1.0, 0.0]), 0.0).item() == pytest.approx(1.0)

    def test_hand_evaluation(self):
        # diffs 2, -1: hinge 1; squares 4 + 1; (1 + 0.5*5)/2 = 1.75
        loss = L.degradation_loss(Tensor([0.0, 2.0, 1.0]), 0.5)
        assert loss.item() == pytest.approx(1.75, abs=1e-12)

    def test_needs_two_steps(self):
        with pytest.raises(ContractError):
            L.degradation_loss(Tensor([1.0]), 0.1)

    def test_batch_mean(self):
        single = L.degradation_loss(Tensor([0.0, 2.0, 1.0]), 0.5).item()
        batch = L.degradation_loss(Tensor([[0.0, 2.0, 1.0], [0.0, 1.0, 2.0]]), 0.5).item()
        flat_second = L.degradation_loss(Tensor([0.0, 1.0, 2.0]), 0.5).item()
        assert batch == pytest.approx((single + flat_second) / 2.0, abs=1e-12)

    def test_gradient(self, rng):
        trend = T.parameter(rng.normal(size=(2, 5)))
        check_gradients(lambda: L.degradation_loss(trend, 0.3), [trend])


class TestForecastLoss:
    def test_perfect_forecast(self, rng):
        y = rng.normal(size=(4, 3))
        assert L.forecast_loss(Tensor(y), y, np.ones(4)).item() == 0.0

    def test_one_step_two_sensors(self):
        pred = Tensor(np.array([[1.0, -1.0]]))
        target = np.array([[0.0, 0.0]])
        assert L.forecast_loss(pred, target, np.array([1.0])).item() == pytest.approx(2.0)

    def test_masked_garbage_ignored(self, rng):
        pred = rng.normal(size=(3, 2))
        target = rng.normal(size=(3, 2))
        garbage = target.copy()
        garbage[1:] = 1e9
        mask = np.array([1.0, 0.0, 0.0])
        a = L.forecast_loss(Tensor(pred), target, mask).item()
        b = L.forecast_loss(Tensor(pred), garbage, mask).item()
        assert a == pytest.approx(b, abs=1e-9)

    def test_all_zero_mask_gives_zero_loss_and_gradient(self, rng):
        pred = T.parameter(rng.normal(size=(2, 2)))
        loss = L.forecast_loss(pred, rng.normal(size=(2, 2)), np.zeros(2))
        assert loss.item() == 0.0
        loss.backward()
        np.testing.assert_array_equal(pred.grad, np.zeros((2, 2)))

    def test_gradient(self, rng):
        pred = T.parameter(rng.normal(size=(2, 3, 2)))
        target = rng.normal(size=(2, 3, 2))
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        check_gradients(lambda: L.forecast_loss(pred, target, mask), [pred])


class TestRulLoss:
    def test_exact_prediction(self):
        assert L.rul_loss(Tensor([5.0]), [5.0], 2.0, 1.0).item() == 0.0

    def test_late_error(self):
        assert L.rul_loss(Tensor([15.0]), [10.0], 2.0, 1.0).item() == pytest.approx(50.0, abs=1e-12)

    def test_early_error(self):
        assert L.rul_loss(Tensor([5.0]), [10.0], 2.0, 1.0).item() == pytest.approx(25.0, abs=1e-12)

    @given(st.floats(0.1, 50.0))
    def test_asymmetry(self, e):
        late = L.rul_loss(Tensor([10.0 + e]), [10.0], 2.0, 1.0).item()
        early = L.rul_loss(Tensor([10.0 - e]), [10.0], 2.0, 1.0).item()
        assert late > early

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            L.rul_loss(Tensor(np.zeros(0)), np.zeros(0), 2.0, 1.0)

    def test_gradient(self, rng):
        pred = T.parameter(rng.normal(size=6))
        target = rng.normal(size=6)
        check_gradients(lambda: L.rul_loss(pred, target, 2.0, 1.0), [pred])


class TestTotalLoss:
    def _components(self, values):
        return {
            name: Tensor(np.float64(v))
            for name, v in zip(("state", "degradation", "forecast", "rul"), values)
        }

    def test_selector(self):
        w = L.LossWeights(w_state=0.0, w_degradation=0.0, w_forecast=0.0, w_rul=1.0)
        total = L.total_loss(self._components((1.0, 2.0, 3.0, 4.0)), w)
        assert total.item() == pytest.approx(4.0)

    def test_sum(self):
        w = L.LossWeights(w_state=1.0, w_degradation=1.0, w_forecast=1.0, w_rul=1.0)
        assert L.total_loss(self._components((1, 2, 3, 4)), w).item() == pytest.approx(10.0)

    def test_homogeneity(self):
        w1 = L.LossWeights(w_state=0.5, w_degradation=0.3, w_forecast=1.0, w_rul=1.0)
        w2 = L.LossWeights(w_state=1.0, w_degradation=0.6, w_forecast=2.0, w_rul=2.0)
        comps = self._components((1.0, 2.0, 3.0, 4.0))
        assert L.total_loss(comps, w2).item() == pytest.approx(2 * L.total_loss(comps, w1).item())

    def test_nan_component_named(self):
        comps = self._components((1.0, np.nan, 3.0, 4.0))
        with pytest.raises(NumericError, match="degradation"):
            L.total_loss(comps, L.LossWeights())

    def test_nan_weighted_sum_raises(self):
        comps = self._components((np.inf, 2.0, 3.0, 4.0))     # 0 * inf is NaN
        w = L.LossWeights(w_state=0.0, w_degradation=1.0, w_forecast=1.0, w_rul=1.0)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="total"):
            L.total_loss(comps, w)

    def test_weight_condition_enforced(self):
        with pytest.raises(ContractError):
            L.LossWeights(lambda_late=1.0, lambda_early=1.0)


class TestMetrics:
    def test_perfect_prediction_all_zero(self):
        y = np.array([10.0, 20.0, 30.0])
        assert L.rmse(y, y) == 0.0
        assert L.relative_error(y, y) == 0.0
        assert L.score(y, y) == 0.0

    def test_score_late_branch(self):
        assert L.score([20.0], [10.0]) == pytest.approx(np.e - 1.0, abs=1e-9)

    def test_score_early_branch(self):
        assert L.score([0.0], [13.0]) == pytest.approx(np.e - 1.0, abs=1e-9)

    def test_score_late_costs_more(self):
        for d in (1.0, 5.0, 20.0):
            assert L.score([10.0 + d], [10.0]) > L.score([10.0 - d], [10.0])

    def test_re_epsilon(self):
        # truth 0 stays finite thanks to the 1e-8 guard
        assert L.relative_error([1.0], [0.0]) == pytest.approx(1.0 / 1e-8, rel=1e-6)

    def test_rmse_definition(self, rng):
        p = rng.normal(size=10)
        t = rng.normal(size=10)
        assert L.rmse(p, t) == pytest.approx(float(np.sqrt(np.mean((p - t) ** 2))))
