import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mafn import tensor as T
from mafn.errors import ContractError, DimensionError, NumericError
from mafn.gradcheck import check_gradients
from mafn.tensor import Tensor
from tests.taped import add, getitem, matmul, mul, sum_of_squares, taped_log_softmax, taped_tanh, tsum, weighted_sum


def product(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` as one ``dense`` node with a zero bias."""
    return T.dense(a, b, Tensor(np.zeros(b.shape[-1])), False)


class TestMatmul:
    """The matmul inside ``dense``: its values, gradients and shape errors."""

    def test_identity(self):
        out = product(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [4.0]])

    def test_hand_product(self):
        out = product(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
        np.testing.assert_array_equal(out.data, [[17.0], [39.0]])

    def test_scalar_product_rule(self):
        a = T.parameter([[2.0]])
        b = T.parameter([[3.0]])
        out = product(a, b)
        np.testing.assert_array_equal(out.data, [[6.0]])
        tsum(out).backward()
        np.testing.assert_array_equal(a.grad, [[3.0]])
        np.testing.assert_array_equal(b.grad, [[2.0]])

    def test_shape_mismatch_names_both(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            product(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_batched_against_numpy(self, rng):
        a = rng.normal(size=(4, 3, 2))
        b = rng.normal(size=(2, 5))
        out = product(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, a @ b)

    def test_batch_mismatch_names_both(self):
        with pytest.raises(DimensionError, match=r"batch dimensions disagree: \(2, 3, 4\) @ \(3, 4, 5\)"):
            product(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))


class TestElementwise:
    """The bias add and ReLU inside ``dense``, and the broadcast gradient
    that ``_unbroadcast`` sums back down."""

    def test_relu_sign_cases(self):
        out = T.dense(Tensor([[-1.0, 0.0, 2.0]]), Tensor(np.eye(3)), Tensor(np.zeros(3)), True)
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 2.0]])

    def test_relu_grad_zero_at_zero(self):
        x = T.parameter([[-1.0, 0.0, 2.0]])
        tsum(T.dense(x, Tensor(np.eye(3)), Tensor(np.zeros(3)), True)).backward()
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])

    def test_bias_add_broadcast(self):
        x = T.parameter(np.ones((4, 3)))
        b = T.parameter(np.array([1.0, 2.0, 3.0]))
        out = T.dense(x, Tensor(np.eye(3)), b, False)
        np.testing.assert_array_equal(out.data[0], [2.0, 3.0, 4.0])
        tsum(out).backward()
        np.testing.assert_array_equal(b.grad, [4.0, 4.0, 4.0])

    def test_trailing_one_broadcast_mul(self):
        a = T.parameter(np.ones((2, 3, 1)))
        h = T.parameter(np.full((2, 3, 4), 2.0))
        out = mul(a, h)
        assert out.shape == (2, 3, 4)
        tsum(out).backward()
        np.testing.assert_array_equal(a.grad, np.full((2, 3, 1), 8.0))


def attention_weights(scores) -> np.ndarray:
    """The softmax over time inside ``additive_attention``, its scores set
    to ``scores`` up to rounding: one attention unit whose ``v`` is twice the
    largest finite |score| and states whose tanh is each score's share of
    ``v``; a NaN score stays NaN and leaves the others finite."""
    x = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    scale = 2.0 * np.abs(x[np.isfinite(x)]).max(initial=1.0)
    one, zero = Tensor([[1.0]]), Tensor([[0.0]])
    _, weights = T.additive_attention(Tensor(np.arctanh(x / scale)[..., None]), one, zero, zero, Tensor([[scale]]))
    return weights.data[0]


class TestSoftmax:
    """The softmax of ``additive_attention``, the one softmax left."""

    def test_uniform_by_symmetry(self):
        np.testing.assert_allclose(attention_weights([0.0, 0.0, 0.0]), [1 / 3] * 3, atol=1e-15)

    def test_overflow_safe(self):
        out = attention_weights([1000.0, 0.0])
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_direct_evaluation(self):
        out = attention_weights([1.0, 2.0])
        e = np.e
        np.testing.assert_allclose(out, [1 / (1 + e), e / (1 + e)], atol=1e-12)
        np.testing.assert_allclose(out, [0.26894, 0.73106], atol=1e-5)

    def test_nan_raises(self):
        with pytest.raises(NumericError, match="softmax input contains NaN"):
            attention_weights([np.nan, 1.0])

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8), st.floats(-100, 100))
    def test_sums_to_one_and_shift_invariant(self, values, shift):
        x = np.asarray(values)
        a = attention_weights(x)
        b = attention_weights(x + shift)
        assert abs(a.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestConcat:
    def test_definition(self):
        out = T.concat([Tensor([[1.0, 2.0]]), Tensor([[3.0]])], axis=-1)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]])

    def test_trend_embedding_widths(self):
        # a 4-wide trend vector plus an 8-wide embedding fuse to width 12
        out = T.concat([Tensor(np.zeros(4)), Tensor(np.ones(8))], axis=0)
        assert out.shape == (12,)

    def test_gradient_is_identity_split(self):
        a = T.parameter(np.zeros((2, 3)))
        b = T.parameter(np.zeros((2, 1)))
        tsum(T.concat([a, b], axis=1)).backward()
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(b.grad, np.ones((2, 1)))

    def test_off_axis_mismatch(self):
        with pytest.raises(DimensionError):
            T.concat([Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 1)))], axis=1)


class TestBackward:
    def test_linear(self):
        x = T.parameter([1.0, 5.0, -2.0])
        tsum(x).backward()
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_analytic_derivative(self):
        x = T.parameter([1.0, 2.0])
        sum_of_squares(x).backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        x = T.parameter([1.0, 2.0])
        with pytest.raises(ContractError):
            mul(x, x).backward()

    def test_double_backward_doubles_exactly(self, rng):
        x = T.parameter(rng.normal(size=5))
        w = T.parameter(rng.normal(size=5))

        def loss():
            return tsum(add(taped_tanh(mul(x, w)), mul(x, x)))

        loss().backward()
        once = (x.grad.copy(), w.grad.copy())
        loss().backward()
        np.testing.assert_array_equal(x.grad, 2.0 * once[0])
        np.testing.assert_array_equal(w.grad, 2.0 * once[1])

    def test_reused_tensor_accumulates(self):
        x = T.parameter([3.0])
        tsum(add(mul(x, x), x)).backward()   # d/dx (x^2 + x) = 2x + 1
        np.testing.assert_array_equal(x.grad, [7.0])

    def test_composite_matches_finite_differences(self, rng):
        a = T.parameter(rng.normal(size=(3, 4)))
        b = T.parameter(rng.normal(size=(4, 2)))
        c = T.parameter(rng.normal(size=(2,)))

        def loss():
            h = taped_tanh(add(matmul(a, b), c))
            return tsum(mul(mul(h, h), taped_tanh(add(mul(Tensor(0.1), h), Tensor(0.3)))))

        check_gradients(loss, [a, b, c], tol=1e-4)

    def test_deterministic_forward(self, rng):
        x = rng.normal(size=(4, 4))
        r1 = taped_log_softmax(taped_tanh(matmul(Tensor(x), Tensor(x))), axis=1).data
        r2 = taped_log_softmax(taped_tanh(matmul(Tensor(x), Tensor(x))), axis=1).data
        assert np.array_equal(r1, r2)

    def test_no_grad_blocks_taping(self):
        x = T.parameter([1.0])
        with T.no_grad():
            y = mul(x, x)
        assert not y.requires_grad
        with pytest.raises(ContractError):
            y.backward()


class TestShapeOps:
    # the library indexes no tensor; the getitem tests pin the reference op
    # that the conv and degradation-loss oracles slice through
    def test_getitem_grad_scatters(self):
        x = T.parameter(np.arange(12.0).reshape(3, 4))
        tsum(getitem(x, (slice(1, None), slice(None, 2)))).backward()
        expected = np.zeros((3, 4))
        expected[1:, :2] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    @pytest.mark.parametrize("idx", [
        1, (slice(None), -1), (Ellipsis, slice(None, None, -2)), (None, slice(1, 3), 2),
        (np.int64(0), slice(None)),
    ])
    def test_getitem_basic_index_gradient(self, rng, idx):
        x = T.parameter(rng.normal(size=(3, 4)))
        w = rng.normal(size=x.data[idx].shape)
        weighted_sum(getitem(x, idx), w).backward()
        expected = np.zeros((3, 4))
        expected[idx] = w
        np.testing.assert_array_equal(x.grad, expected)
        check_gradients(lambda: sum_of_squares(getitem(x, idx)), [x])

    @pytest.mark.parametrize("idx", [
        np.array([0, 0]), [1, 2], (slice(None), np.array([1])), np.array([True, False, True]), True,
    ])
    def test_getitem_array_index_rejected(self, idx):
        x = T.parameter(np.zeros((3, 4)))
        with pytest.raises(ContractError, match="gather_rows"):
            getitem(x, idx)

    def test_gather_rows_accumulates_repeats(self):
        table = T.parameter(np.eye(3))
        tsum(T.gather_rows(table, np.array([1, 1]))).backward()
        np.testing.assert_array_equal(table.grad, [[0, 0, 0], [2, 2, 2], [0, 0, 0]])

    def test_gather_out_of_range(self):
        with pytest.raises(ContractError):
            T.gather_rows(Tensor(np.eye(2)), np.array([2]))

    def test_reshape_grad(self):
        x = T.parameter(np.arange(6.0))
        tsum(x.reshape((2, 3))).backward()
        np.testing.assert_array_equal(x.grad, np.ones(6))

    def test_invariant_product_shape_equals_length(self, rng):
        t = Tensor(rng.normal(size=(3, 2, 4)))
        assert int(np.prod(t.shape)) == t.data.size
