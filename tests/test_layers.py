import numpy as np
import pytest

from mafn import layers as nn
from mafn import tensor as T
from mafn.errors import ContractError, DimensionError
from mafn.gradcheck import check_gradients
from mafn.tensor import Tensor


def naive_conv1d(x, W, b, kernel):
    """Direct nested-loop evaluation of same-padded stride-1 convolution."""
    t_len, channels = x.shape
    n_filters = W.shape[2]
    p = (kernel - 1) // 2
    out = np.zeros((t_len, n_filters))
    for t in range(t_len):
        for n in range(n_filters):
            acc = b[n]
            for j in range(kernel):
                src = t + j - p
                if 0 <= src < t_len:
                    acc += W[j, :, n] @ x[src]
            out[t, n] = max(acc, 0.0)
    return out


class TestEmbedding:
    def test_single_row(self):
        table = nn.EmbeddingTable.__new__(nn.EmbeddingTable)
        table.weights = T.parameter([[1.0, 2.0, 3.0]])
        out = table([0, 0])
        np.testing.assert_array_equal(out.data, [[1, 2, 3], [1, 2, 3]])

    def test_lookup_order(self):
        table = nn.EmbeddingTable.__new__(nn.EmbeddingTable)
        table.weights = T.parameter(np.eye(3))
        out = table([2, 0])
        np.testing.assert_array_equal(out.data, [[0, 0, 1], [1, 0, 0]])

    def test_gradient_accumulates_per_row(self):
        table = nn.EmbeddingTable.__new__(nn.EmbeddingTable)
        table.weights = T.parameter(np.zeros((3, 2)))
        table([1, 1]).sum().backward()
        np.testing.assert_array_equal(table.weights.grad, [[0, 0], [2, 2], [0, 0]])

    def test_out_of_range_id(self, rng):
        table = nn.EmbeddingTable(rng, 3, 2)
        with pytest.raises(ContractError):
            table([3])


class TestConv1d:
    def test_identity_kernel(self, rng):
        conv = nn.Conv1d(rng, 1, 1, 1, "relu")
        conv.W.data[:] = 1.0
        conv.b.data[:] = 0.0
        x = Tensor(np.abs(rng.normal(size=(1, 6, 1))))
        np.testing.assert_allclose(conv(x).data, x.data)

    def test_hand_convolution(self, rng):
        conv = nn.Conv1d(rng, 1, 1, 3, activation=None)
        conv.W.data[:] = 1.0
        conv.b.data[:] = 0.0
        out = conv(Tensor(np.array([[[1.0], [2.0], [3.0], [4.0]]])))
        np.testing.assert_array_equal(out.data.ravel(), [3.0, 6.0, 9.0, 7.0])

    @pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5])
    def test_matches_naive_loop(self, rng, kernel):
        conv = nn.Conv1d(rng, 3, 4, kernel, "relu")
        x = rng.normal(size=(7, 3))
        expected = naive_conv1d(x, conv.W.data, conv.b.data, kernel)
        np.testing.assert_allclose(conv(Tensor(x[None])).data[0], expected, atol=1e-12)

    def test_batched_equals_stacked(self, rng):
        conv = nn.Conv1d(rng, 2, 3, 3, "relu")
        xs = rng.normal(size=(4, 6, 2))
        batched = conv(Tensor(xs)).data
        for i in range(4):
            np.testing.assert_allclose(batched[i], conv(Tensor(xs[i : i + 1])).data[0], atol=1e-14)

    def test_degenerate_window(self, rng):
        conv = nn.Conv1d(rng, 1, 1, 9, "relu")
        with pytest.raises(ContractError):
            conv(Tensor(np.zeros((1, 4, 1))))

    def test_channel_mismatch(self, rng):
        conv = nn.Conv1d(rng, 3, 2, 3)
        with pytest.raises(DimensionError):
            conv(Tensor(np.zeros((1, 5, 2))))

    def test_unbatched_input_rejected(self, rng):
        conv = nn.Conv1d(rng, 3, 2, 3)
        with pytest.raises(DimensionError):
            conv(Tensor(np.zeros((5, 3))))

    def test_gradients(self, rng):
        conv = nn.Conv1d(rng, 2, 2, 3, "tanh")
        x = T.parameter(rng.normal(size=(1, 5, 2)))
        check_gradients(lambda: T.square(conv(x)).sum(), [x, conv.W, conv.b])


def numpy_lstm(x, W_x, W_h, b, h, c):
    """Independent oracle: the LSTM equations over (B, T, F), each gate
    written out with its own block of the stacked i, f, g, o weights."""
    n = h.shape[1]
    Wi, Wf, Wg, Wo = (W_x[:, k * n : (k + 1) * n] for k in range(4))
    Ui, Uf, Ug, Uo = (W_h[:, k * n : (k + 1) * n] for k in range(4))
    bi, bf, bg, bo = (b[k * n : (k + 1) * n] for k in range(4))

    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    hidden = []
    for t in range(x.shape[1]):
        xt = x[:, t, :]
        i = sigmoid(xt @ Wi + h @ Ui + bi)
        f = sigmoid(xt @ Wf + h @ Uf + bf)
        g = np.tanh(xt @ Wg + h @ Ug + bg)
        o = sigmoid(xt @ Wo + h @ Uo + bo)
        c = f * c + i * g
        h = o * np.tanh(c)
        hidden.append(h)
    return np.stack(hidden, axis=1)


def random_cell(rng, n_in, n_hidden):
    cell = nn.LstmCell(rng, n_in, n_hidden)
    for p in (cell.W_x, cell.W_h, cell.b):
        p.data = rng.normal(size=p.shape)
    return cell


class TestLstm:
    def test_stacked_shapes(self, rng):
        cell = nn.LstmCell(rng, 3, 4)
        assert [(name, t.shape) for name, t in cell.parameters()] == [
            ("W_x", (3, 16)), ("W_h", (4, 16)), ("b", (16,))
        ]

    def test_zero_weights_give_zero_hidden(self, rng):
        cell = nn.LstmCell(rng, 3, 4)
        for p in (cell.W_x, cell.W_h, cell.b):
            p.data[:] = 0.0
        h, c = cell.initial_state(1)
        x = Tensor(rng.normal(size=(1, 3)))
        h1, _ = cell.step(T.matmul(x, cell.W_x), h, c)
        np.testing.assert_array_equal(h1.data, np.zeros((1, 4)))

    def test_saturated_forget_gate_carries_cell(self, rng):
        cell = nn.LstmCell(rng, 2, 3)
        cell.W_x.data[:] = 0.0
        cell.b.data[3:6] = 10.0              # forget gate pinned open
        c_prev = Tensor(rng.normal(size=(1, 3)))
        h_prev = Tensor(np.zeros((1, 3)))
        x = Tensor(rng.normal(size=(1, 2)))
        _, c1 = cell.step(T.matmul(x, cell.W_x), h_prev, c_prev)
        np.testing.assert_allclose(c1.data, c_prev.data, atol=1e-3)

    def test_hidden_bounded(self, rng):
        cell = nn.LstmCell(rng, 2, 3)
        h, c = cell.initial_state(4)
        for _ in range(10):
            x = Tensor(rng.normal(size=(4, 2)) * 5.0)
            h, c = cell.step(T.matmul(x, cell.W_x), h, c)
        assert (np.abs(h.data) < 1.0).all()

    def test_gradients(self, rng):
        cell = nn.LstmCell(rng, 2, 2)
        x = T.parameter(rng.normal(size=(1, 2)))
        h0 = Tensor(np.zeros((1, 2)))
        c0 = Tensor(np.zeros((1, 2)))

        def loss():
            h, c = cell.step(T.matmul(x, cell.W_x), h0, c0)
            return (T.square(h) + T.square(c)).sum()

        tensors = [x] + [t for _, t in cell.parameters()]
        check_gradients(loss, tensors)

    def test_forget_bias_initialized_to_one(self, rng):
        cell = nn.LstmCell(rng, 3, 4)
        expected = np.zeros(16)
        expected[4:8] = 1.0                  # b[H:2H] is the forget gate
        np.testing.assert_array_equal(cell.b.data, expected)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_unroll_matches_numpy_oracle(self, rng, reverse):
        cell = random_cell(rng, 3, 4)
        x = rng.normal(size=(2, 6, 3))
        zeros = np.zeros((2, 4))
        ordered = x[:, ::-1] if reverse else x
        expected = numpy_lstm(ordered, cell.W_x.data, cell.W_h.data, cell.b.data, zeros, zeros)
        if reverse:
            expected = expected[:, ::-1]
        out = nn.lstm_unroll(Tensor(x), cell, reverse=reverse).data
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-14)

    def test_constant_input_scan_matches_numpy_oracle(self, rng):
        # the decoders' use: one projection of a constant input, fed every step
        cell = random_cell(rng, 3, 4)
        context = rng.normal(size=(2, 3))
        h0, c0 = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        xw = T.matmul(Tensor(context), cell.W_x)
        out = cell.scan([xw] * 5, Tensor(h0), Tensor(c0))
        x = np.repeat(context[:, None, :], 5, axis=1)
        expected = numpy_lstm(x, cell.W_x.data, cell.W_h.data, cell.b.data, h0, c0)
        np.testing.assert_allclose(np.stack([h.data for h in out], axis=1), expected, rtol=0, atol=1e-14)


class TestBilstm:
    def test_single_step(self, rng):
        fwd, bwd = nn.LstmCell(rng, 2, 3), nn.LstmCell(rng, 2, 3)
        x = Tensor(rng.normal(size=(1, 1, 2)))
        out = nn.bilstm(x, fwd, bwd)
        x0 = x[:, 0, :]
        hf, _ = fwd.step(T.matmul(x0, fwd.W_x), *fwd.initial_state(1))
        hb, _ = bwd.step(T.matmul(x0, bwd.W_x), *bwd.initial_state(1))
        np.testing.assert_allclose(out.data[0, 0, :3], hf.data[0])
        np.testing.assert_allclose(out.data[0, 0, 3:], hb.data[0])

    def test_reversal_symmetry(self, rng):
        a, b = nn.LstmCell(rng, 2, 3), nn.LstmCell(rng, 2, 3)
        x = rng.normal(size=(5, 2))
        fwd_view = nn.bilstm(Tensor(x[None]), a, b).data[0]
        rev_view = nn.bilstm(Tensor(x[None, ::-1].copy()), b, a).data[0]
        swapped = np.concatenate([rev_view[::-1, 3:], rev_view[::-1, :3]], axis=1)
        np.testing.assert_allclose(fwd_view, swapped, atol=1e-14)

    def test_compositional_oracle(self, rng):
        fwd, bwd = nn.LstmCell(rng, 3, 2), nn.LstmCell(rng, 3, 2)
        x = rng.normal(size=(1, 3, 3))
        out = nn.bilstm(Tensor(x), fwd, bwd).data
        fpart = nn.lstm_unroll(Tensor(x), fwd).data
        bpart = nn.lstm_unroll(Tensor(x), bwd, reverse=True).data
        np.testing.assert_allclose(out, np.concatenate([fpart, bpart], axis=2), atol=1e-14)

    def test_causality_split(self, rng):
        fwd, bwd = nn.LstmCell(rng, 2, 3), nn.LstmCell(rng, 2, 3)
        x = rng.normal(size=(6, 2))
        base = nn.bilstm(Tensor(x[None]), fwd, bwd).data[0]
        t = 2
        perturbed = x.copy()
        perturbed[t + 1] += 1.0
        after = nn.bilstm(Tensor(perturbed[None]), fwd, bwd).data[0]
        # forward half at t ignores the future; backward half at t+2 ignores the past
        np.testing.assert_array_equal(base[: t + 1, :3], after[: t + 1, :3])
        np.testing.assert_array_equal(base[t + 2 :, 3:], after[t + 2 :, 3:])
        assert not np.allclose(base[t + 1 :, :3], after[t + 1 :, :3])

    def test_unbatched_input_rejected(self, rng):
        fwd, bwd = nn.LstmCell(rng, 2, 3), nn.LstmCell(rng, 2, 3)
        with pytest.raises(DimensionError):
            nn.bilstm(Tensor(np.zeros((4, 2))), fwd, bwd)


class TestAttention:
    def test_identical_states_uniform(self, rng):
        attn = nn.Attention(rng, 4, 3)
        h = np.tile(rng.normal(size=(1, 1, 4)), (1, 5, 1))
        context, weights = attn(Tensor(h))
        np.testing.assert_allclose(weights.data, np.full((1, 5), 0.2), atol=1e-12)
        np.testing.assert_allclose(context.data, h[:, 0], atol=1e-12)

    def test_single_step(self, rng):
        attn = nn.Attention(rng, 4, 3)
        h = rng.normal(size=(1, 1, 4))
        context, weights = attn(Tensor(h))
        np.testing.assert_allclose(weights.data, [[1.0]])
        np.testing.assert_allclose(context.data, h[:, 0])

    def test_direct_sum_oracle(self, rng):
        attn = nn.Attention(rng, 4, 3)
        h = rng.normal(size=(3, 4))
        context, weights = attn(Tensor(h[None]))
        manual = sum(weights.data[0, t] * h[t] for t in range(3))
        np.testing.assert_allclose(context.data[0], manual, atol=1e-14)

    def test_weights_sum_to_one(self, rng):
        attn = nn.Attention(rng, 6, 4)
        for _ in range(10):
            _, weights = attn(Tensor(rng.normal(size=(1, 7, 6)) * 10.0))
            assert abs(weights.data.sum() - 1.0) <= 1e-12

    def test_unbatched_input_rejected(self, rng):
        attn = nn.Attention(rng, 4, 3)
        with pytest.raises(DimensionError):
            attn(Tensor(np.zeros((5, 4))))

    def test_gradients(self, rng):
        attn = nn.Attention(rng, 4, 3)
        h = T.parameter(rng.normal(size=(1, 3, 4)))

        def loss():
            context, _ = attn(h)
            return T.square(context).sum()

        check_gradients(loss, [h] + [t for _, t in attn.parameters()])


class TestDense:
    def test_identity(self, rng):
        layer = nn.Dense(rng, 3, 3, None)
        layer.W.data = np.eye(3)
        layer.b.data[:] = 0.0
        x = rng.normal(size=(2, 3))
        np.testing.assert_allclose(layer(Tensor(x)).data, x)

    def test_hand_affine(self, rng):
        layer = nn.Dense(rng, 2, 1, None)
        layer.W.data = np.array([[1.0], [1.0]])
        layer.b.data = np.array([0.5])
        np.testing.assert_array_equal(layer(Tensor([[1.0, 2.0]])).data, [[3.5]])

    def test_relu_clamps_negative(self, rng):
        layer = nn.Dense(rng, 1, 1, "relu")
        layer.W.data = np.array([[-2.0]])
        np.testing.assert_array_equal(layer(Tensor([[1.0]])).data, [[0.0]])

    def test_gradients(self, rng):
        layer = nn.Dense(rng, 3, 2, "relu")
        x = T.parameter(rng.normal(size=(4, 3)))
        check_gradients(lambda: T.square(layer(x)).sum(), [x, layer.W, layer.b])
