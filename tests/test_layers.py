import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mafn import layers as nn
from mafn import tensor as T
from mafn.config import TrainConfig
from mafn.data import SELECTED_SENSORS
from mafn.errors import ContractError, DimensionError
from mafn.gradcheck import check_gradients
from mafn.model import MafnModel
from mafn.tensor import Tensor
from tests.taped import add, matmul, sum_of_squares, tsum, weighted_sum
from tests.test_fused_ops import ZERO_SHARES, assert_bits_equal, with_zeros


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
        tsum(table([1, 1])).backward()
        np.testing.assert_array_equal(table.weights.grad, [[0, 0], [2, 2], [0, 0]])

    def test_out_of_range_id(self, rng):
        table = nn.EmbeddingTable(rng, 3, 2)
        with pytest.raises(ContractError):
            table([3])


class TestConv1d:
    def test_identity_kernel(self, rng):
        conv = nn.Conv1d(rng, 1, 1, 1)
        conv.W.data[:] = 1.0
        conv.b.data[:] = 0.0
        x = Tensor(np.abs(rng.normal(size=(1, 6, 1))))
        np.testing.assert_allclose(conv(x).data, x.data)

    def test_hand_convolution(self, rng):
        conv = nn.Conv1d(rng, 1, 1, 3)
        conv.W.data[:] = 1.0
        conv.b.data[:] = 0.0
        out = conv(Tensor(np.array([[[1.0], [2.0], [3.0], [4.0]]])))
        np.testing.assert_array_equal(out.data.ravel(), [3.0, 6.0, 9.0, 7.0])

    @pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5])
    def test_matches_naive_loop(self, rng, kernel):
        conv = nn.Conv1d(rng, 3, 4, kernel)
        x = rng.normal(size=(7, 3))
        expected = naive_conv1d(x, conv.W.data, conv.b.data, kernel)
        np.testing.assert_allclose(conv(Tensor(x[None])).data[0], expected, atol=1e-12)

    def test_batched_equals_stacked(self, rng):
        conv = nn.Conv1d(rng, 2, 3, 3)
        xs = rng.normal(size=(4, 6, 2))
        batched = conv(Tensor(xs)).data
        for i in range(4):
            np.testing.assert_allclose(batched[i], conv(Tensor(xs[i : i + 1])).data[0], atol=1e-14)

    def test_degenerate_window(self, rng):
        conv = nn.Conv1d(rng, 1, 1, 9)
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
        conv = nn.Conv1d(rng, 2, 2, 3)
        x = T.parameter(rng.normal(size=(1, 5, 2)))
        check_gradients(lambda: sum_of_squares(conv(x)), [x, conv.W, conv.b])


def numpy_lstm(xw, W_h, b, h, c, dhidden=None):
    """Independent oracle: the LSTM equations over the input projection
    ``xw = x @ W_x`` (B, T, 4H), each gate written out with its own block of
    the stacked i, f, g, o weights.  With ``dhidden`` (the loss gradient of
    the hidden states) it also runs backpropagation through time gate by
    gate and returns ``(hidden, dxw, dh0, dc0, dW_h, db)``."""
    n = h.shape[1]
    blocks = [slice(k * n, (k + 1) * n) for k in range(4)]
    U = [W_h[:, s] for s in blocks]
    bias = [b[s] for s in blocks]

    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    hidden, tape = [], []
    for t in range(xw.shape[1]):
        x = [xw[:, t, s] for s in blocks]
        i = sigmoid(x[0] + h @ U[0] + bias[0])
        f = sigmoid(x[1] + h @ U[1] + bias[1])
        g = np.tanh(x[2] + h @ U[2] + bias[2])
        o = sigmoid(x[3] + h @ U[3] + bias[3])
        tape.append((h, c, i, f, g, o))
        c = f * c + i * g
        h = o * np.tanh(c)
        tape[-1] += (c,)
        hidden.append(h)
    hidden = np.stack(hidden, axis=1)
    if dhidden is None:
        return hidden

    dxw = np.zeros_like(xw)
    dU = [np.zeros_like(u) for u in U]
    db = [np.zeros_like(v) for v in bias]
    dh = np.zeros_like(h)
    dc = np.zeros_like(c)
    for t in range(xw.shape[1] - 1, -1, -1):
        h_prev, c_prev, i, f, g, o, c_t = tape[t]
        dh = dh + dhidden[:, t]
        do = dh * np.tanh(c_t)
        dc = dc + dh * o * (1.0 - np.tanh(c_t) ** 2)
        dzs = [
            dc * g * i * (1.0 - i),
            dc * c_prev * f * (1.0 - f),
            dc * i * (1.0 - g * g),
            do * o * (1.0 - o),
        ]
        dc = dc * f
        dh = np.zeros_like(dh)
        for k, dz in enumerate(dzs):
            dxw[:, t, blocks[k]] = dz
            dU[k] += h_prev.T @ dz
            db[k] += dz.sum(axis=0)
            dh = dh + dz @ U[k].T
    return hidden, dxw, dh, dc, np.concatenate(dU, axis=1), np.concatenate(db)


def random_cell(rng, n_in, n_hidden):
    cell = nn.LstmCell(rng, n_in, n_hidden)
    for p in (cell.W_x, cell.W_h, cell.b):
        p.data = rng.normal(size=p.shape)
    return cell


def scan_step_oracle(xw, W_h, b, h, c, dhidden):
    """Reference for one direction of ``lstm_scan``, left to right: the
    same stacked-gate arithmetic in the same order, written step by step
    without buffers or in-place updates, so its results are bit-equal to the
    op's.  Returns ``(hidden, dxw, dh0, dc0, dW_h, db)`` for the loss
    gradient ``dhidden`` of the (B, T, H) hidden states; ``xw`` is (B, T, 4H)."""
    n = h.shape[1]
    steps = xw.shape[1]
    h_prev, c_prev, acts, tanh_cs, hidden = [], [], [], [], []
    for t in range(steps):
        z = (xw[:, t] + h @ W_h) + b
        sig = 1.0 / (1.0 + np.exp(-z))
        i, f, g, o = sig[:, :n], sig[:, n : 2 * n], np.tanh(z[:, 2 * n : 3 * n]), sig[:, 3 * n :]
        h_prev.append(h)
        c_prev.append(c)
        c = f * c + i * g
        h = o * np.tanh(c)
        acts.append((i, f, g, o))
        tanh_cs.append(np.tanh(c))
        hidden.append(h)
    dz = np.empty((steps,) + xw[:, 0].shape)
    dh = np.zeros_like(h)
    dc = np.zeros_like(c)
    for t in range(steps - 1, -1, -1):
        (i, f, g, o), tc = acts[t], tanh_cs[t]
        dh = dh + dhidden[:, t]
        dc = dc + dh * (o * (1.0 - tc * tc))
        dz[t] = np.concatenate([
            (g * (i * (1.0 - i))) * dc,
            (c_prev[t] * (f * (1.0 - f))) * dc,
            (i * (1.0 - g * g)) * dc,
            (tc * (o * (1.0 - o))) * dh,
        ], axis=1)
        dc = dc * f
        dh = dz[t] @ W_h.T
    dW_h = np.stack(h_prev).reshape(-1, n).T @ dz.reshape(-1, 4 * n)
    return np.stack(hidden, axis=1), dz.transpose(1, 0, 2), dh, dc, dW_h, dz.sum(axis=(0, 1))


def zero_state(cell, batch):
    """A zero (B, 2H) ``[h0 | c0]`` for ``cell``, as ``bilstm`` starts each direction."""
    return Tensor(np.zeros((batch, 2 * cell.n_hidden)))


def scan_cell(cell, x, hc, steps=None):
    """Hidden states of ``cell`` run from ``hc`` = [h0 | c0] over the
    (B, T, n_in) input ``x``; a (B, n_in) input held for ``steps`` steps is
    the decoders' use."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    steps = x.shape[1] if steps is None else steps
    return T.lstm_scan([(x, cell.W_x, hc, cell.W_h, cell.b)], steps)


class TestLstm:
    def test_stacked_shapes(self, rng):
        cell = nn.LstmCell(rng, 3, 4)
        assert [(name, t.shape) for name, t in cell.parameters()] == [
            ("W_x", (3, 16)), ("W_h", (4, 16)), ("b", (16,))
        ]

    def test_no_per_step_methods(self):
        assert not hasattr(nn.LstmCell, "step") and not hasattr(nn.LstmCell, "scan")

    def test_zero_weights_give_zero_hidden(self, rng):
        cell = nn.LstmCell(rng, 3, 4)
        for p in (cell.W_x, cell.W_h, cell.b):
            p.data[:] = 0.0
        h1 = scan_cell(cell, rng.normal(size=(1, 1, 3)), zero_state(cell, 1))
        np.testing.assert_array_equal(h1.data, np.zeros((1, 1, 4)))

    def test_saturated_forget_gate_carries_cell(self, rng):
        # i = o = 1/2 and g = 0 with zero weights, so h = tanh(c) / 2 shows c
        cell = nn.LstmCell(rng, 2, 3)
        cell.W_x.data[:] = 0.0
        cell.W_h.data[:] = 0.0
        cell.b.data[3:6] = 10.0              # forget gate pinned open
        c_prev = rng.normal(size=(1, 3))
        h = scan_cell(cell, rng.normal(size=(1, 4, 2)), Tensor(np.concatenate([np.zeros((1, 3)), c_prev], axis=1)))
        c = np.arctanh(2.0 * h.data)
        for t in range(4):
            np.testing.assert_allclose(c[:, t], c_prev, atol=1e-3)

    def test_hidden_bounded(self, rng):
        cell = nn.LstmCell(rng, 2, 3)
        h = scan_cell(cell, rng.normal(size=(4, 10, 2)) * 5.0, zero_state(cell, 4))
        assert (np.abs(h.data) < 1.0).all()

    def test_gradients(self, rng):
        cell = nn.LstmCell(rng, 2, 2)
        x = T.parameter(rng.normal(size=(1, 2)))
        hc0 = zero_state(cell, 1)

        def loss():
            # the second step's h reads the first step's c
            return sum_of_squares(scan_cell(cell, x, hc0, steps=2))

        tensors = [x] + [t for _, t in cell.parameters()]
        check_gradients(loss, tensors)

    def test_forget_bias_initialized_to_one(self, rng):
        cell = nn.LstmCell(rng, 3, 4)
        expected = np.zeros(16)
        expected[4:8] = 1.0                  # b[H:2H] is the forget gate
        np.testing.assert_array_equal(cell.b.data, expected)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_unroll_matches_numpy_oracle(self, rng, reverse):
        # the cell runs as the first (left-to-right) or second (right-to-left)
        # direction of a bilstm; its half of the output is its unroll
        cell, other = random_cell(rng, 3, 4), random_cell(rng, 3, 4)
        x = rng.normal(size=(2, 6, 3))
        zeros = np.zeros((2, 4))
        ordered = x[:, ::-1] if reverse else x
        expected = numpy_lstm(ordered @ cell.W_x.data, cell.W_h.data, cell.b.data, zeros, zeros)
        if reverse:
            expected = expected[:, ::-1]
        out = nn.bilstm(Tensor(x), *((other, cell) if reverse else (cell, other))).data
        np.testing.assert_allclose(out[..., 4:] if reverse else out[..., :4], expected, rtol=0, atol=1e-14)

    def test_constant_input_scan_matches_numpy_oracle(self, rng):
        # the decoders' use: one projection of a constant input, fed every step
        cell = random_cell(rng, 3, 4)
        context = rng.normal(size=(2, 3))
        h0, c0 = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        out = scan_cell(cell, context, Tensor(np.concatenate([h0, c0], axis=1)), steps=5)
        x = np.repeat(context[:, None], 5, axis=1)
        expected = numpy_lstm(x @ cell.W_x.data, cell.W_h.data, cell.b.data, h0, c0)
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-14)


SCAN_CASES = [
    # (batch, steps, two directions, constant input)
    (2, 5, False, False),
    (2, 5, True, False),
    (2, 5, False, True),
    (2, 5, True, True),
    (1, 1, False, False),
    (1, 1, True, True),
    (1, 4, True, False),
    (3, 1, False, True),
    # the encoder's use (two directions) and the decoders' (one, constant input)
    (1, 1, True, False),
    (1, 5, True, False),
    (3, 4, True, False),
    (1, 1, False, True),
    (1, 5, False, True),
    (3, 4, False, True),
]


def scan_problem(rng, batch, steps, two, constant, n=3, n_in=2):
    """Random leaves of one lstm_scan call, direction by direction, and a
    fixed loss weighting of its (B, steps, dirs * n) output."""
    directions = []
    for _ in range(2 if two else 1):
        x = T.parameter(rng.normal(size=(batch, n_in) if constant else (batch, steps, n_in)))
        W_x = T.parameter(rng.normal(size=(n_in, 4 * n)))
        hc0 = T.parameter(np.concatenate([rng.normal(size=(batch, n)), rng.normal(size=(batch, n))], axis=1))
        W_h, b = T.parameter(rng.normal(size=(n, 4 * n))), T.parameter(rng.normal(size=4 * n))
        directions.append((x, W_x, hc0, W_h, b))
    return directions, rng.normal(size=(batch, steps, len(directions) * n))


def per_direction_oracle(directions, steps, weight, oracle):
    """Hidden states and gradients of a scan, one direction at a time, by the
    graph the scan replaced: ``x @ W_x`` as a taped matmul, reshaped to
    (B, 1, 4H) for a constant input, then ``oracle`` over that projection
    (time-reversed for the second direction), whose projection gradient goes
    back through the taped nodes' own gradient functions.  The gradients come
    in leaf order, ``(x, W_x, hc0, W_h, b)`` per direction, the oracle's
    ``dh0`` and ``dc0`` side by side as ``hc0``'s."""
    n = directions[0][3].shape[0]
    hidden, grads = [], []
    for d, (x, W_x, hc0, W_h, b) in enumerate(directions):
        proj = matmul(x, W_x)
        xw = proj.reshape((x.shape[0], 1, 4 * n)) if x.ndim == 2 else proj
        flip = (lambda a: a[:, ::-1]) if d else (lambda a: a)
        full = np.broadcast_to(xw.data, (x.shape[0], steps, 4 * n))
        h, dxw, dh0, dc0, dW_h, db = oracle(
            flip(full), W_h.data, b.data, hc0.data[:, :n], hc0.data[:, n:], flip(weight[..., d * n : (d + 1) * n])
        )
        # the projection's gradient reached the tape contiguous; a constant
        # input's was summed over the scan's steps in scan order
        if x.ndim == 2:
            (dxw,) = xw._grad_fn(dxw.sum(axis=1, keepdims=True))
        else:
            dxw = np.ascontiguousarray(flip(dxw))
        hidden.append(flip(h))
        grads += [*proj._grad_fn(dxw), np.concatenate([dh0, dc0], axis=1), dW_h, db]
    return np.concatenate(hidden, axis=2), grads


def leaves_of(directions):
    return [t for direction in directions for t in direction]


def assert_matches_reference(directions, steps, weight):
    """The scan's output and the gradients its tape node hands each leaf
    equal :func:`per_direction_oracle` over ``scan_step_oracle`` bit for bit,
    the sign of zero included."""
    out = T.lstm_scan(directions, steps)
    hidden, grads = per_direction_oracle(directions, steps, weight, scan_step_oracle)
    assert_bits_equal(out.data, hidden)
    for got, expected in zip(out._grad_fn(weight), grads, strict=True):
        assert_bits_equal(got, expected)


@st.composite
def scan_cases(draw):
    """Batch 1-4 or 64, steps 1-6 or 30, one or two directions, a sequence
    or a constant input; input and hidden widths, the share of signed zeros
    in the upstream gradient, and a seed."""
    return (draw(st.one_of(st.integers(1, 4), st.just(64))), draw(st.one_of(st.integers(1, 6), st.just(30))),
            draw(st.booleans()), draw(st.booleans()), draw(st.integers(1, 4)), draw(st.sampled_from([1, 3, 24])),
            draw(ZERO_SHARES), draw(st.integers(0, 2**32 - 1)))


def default_batch_peak(taped):
    """tracemalloc peak, in bytes, of a default-config B=64 forward, and of
    its backward when ``taped``; with the tape off, the validation pass."""
    cfg = TrainConfig()
    model = MafnModel(cfg, len(SELECTED_SENSORS), np.random.default_rng(0))
    data = np.random.default_rng(1)
    windows = data.normal(size=(64, cfg.window, len(SELECTED_SENSORS)))
    states = data.integers(0, cfg.k_states, size=(64, cfg.window))
    tracemalloc.start()
    try:
        if taped:
            out = model.forward(windows, states)
            add(add(add(tsum(out.state_logits), tsum(out.degradation)), tsum(out.forecast)), tsum(out.rul)).backward()
        else:
            with T.no_grad():
                model.forward(windows, states)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def scan_backward_peak():
    """tracemalloc peak, in bytes, of the encoder-sized scan's backward alone:
    B=64, 30 steps, 16 inputs, H=24, two directions."""
    directions, weight = scan_problem(np.random.default_rng(0), 64, 30, True, False, n=24, n_in=16)
    out = T.lstm_scan(directions, 30)
    tracemalloc.start()
    try:
        out._grad_fn(weight)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def default_gradient_digest():
    """sha256 of every parameter gradient, in registration order, of a
    default-config model (seed 0) after one backward of its four summed heads
    at batch 1, 7 and 64, each batch on a fresh model and data seed 1."""
    digest, cfg = hashlib.sha256(), TrainConfig()
    for batch in (1, 7, 64):
        model = MafnModel(cfg, len(SELECTED_SENSORS), np.random.default_rng(0))
        data = np.random.default_rng(1)
        out = model.forward(data.normal(size=(batch, cfg.window, len(SELECTED_SENSORS))),
                            data.integers(0, cfg.k_states, size=(batch, cfg.window)))
        add(add(add(tsum(out.state_logits), tsum(out.degradation)), tsum(out.forecast)), tsum(out.rul)).backward()
        for p in model.parameters().values():
            digest.update(p.grad.tobytes())
    return digest.hexdigest()


class TestLstmScan:
    @pytest.mark.parametrize("batch,steps,two,constant", SCAN_CASES)
    def test_gradients(self, rng, batch, steps, two, constant):
        directions, weight = scan_problem(rng, batch, steps, two, constant)

        def loss():
            return weighted_sum(T.lstm_scan(directions, steps), weight)

        check_gradients(loss, leaves_of(directions))

    @pytest.mark.parametrize("batch,steps,two,constant", SCAN_CASES)
    def test_matches_numpy_oracle(self, rng, batch, steps, two, constant):
        directions, weight = scan_problem(rng, batch, steps, two, constant)
        out = T.lstm_scan(directions, steps)
        weighted_sum(out, weight).backward()
        hidden, grads = per_direction_oracle(directions, steps, weight, numpy_lstm)
        np.testing.assert_allclose(out.data, hidden, rtol=0, atol=1e-14)
        for leaf, expected in zip(leaves_of(directions), grads):
            np.testing.assert_allclose(leaf.grad, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("two,constant", [(True, False), (False, True)])
    @pytest.mark.parametrize("batch", [1, 2, 64])
    def test_bit_equal_to_per_direction_oracle(self, rng, batch, two, constant):
        # the encoder's sizes (16 filters in) and the decoders' (a 48-wide context)
        directions, weight = scan_problem(rng, batch, 30, two, constant, n=24, n_in=48 if constant else 16)
        assert_matches_reference(directions, 30, weight)

    @pytest.mark.parametrize("steps", [1, 2, 3, 4])
    @pytest.mark.parametrize("batch", [1, 64])
    def test_bit_equal_on_short_two_direction_sequences(self, rng, batch, steps):
        # the backward swaps the right-to-left direction's steps in pairs, in
        # place: no pair, one pair, one pair around a middle step, two pairs
        directions, weight = scan_problem(rng, batch, steps, True, False, n=24, n_in=16)
        assert_matches_reference(directions, steps, weight)

    @settings(max_examples=60, deadline=None)
    @given(scan_cases())
    def test_bit_equal_to_projection_graph(self, case):
        # the scan's own projection and its gradients keep the taped graph's
        # matmul shapes: per-batch (T, F) @ (F, 4H), or (B, F) @ (F, 4H)
        batch, steps, two, constant, n_in, n, share, seed = case
        rng = np.random.default_rng(seed)
        directions, _ = scan_problem(rng, batch, steps, two, constant, n=n, n_in=n_in)
        assert_matches_reference(directions, steps, with_zeros(rng, (batch, steps, len(directions) * n), share))

    @pytest.mark.parametrize("two,constant", [(False, False), (True, False), (False, True), (True, True)])
    @pytest.mark.parametrize("batch", [1, 2, 64])
    def test_tape_off_matches_taped(self, rng, batch, two, constant):
        # with the tape off the scan reuses one gate, cell and tanh slot
        directions, _ = scan_problem(rng, batch, 30, two, constant, n=24)
        taped = T.lstm_scan(directions, 30)
        with T.no_grad():
            untaped = T.lstm_scan(directions, 30)
        assert taped.requires_grad and not untaped.requires_grad
        np.testing.assert_array_equal(untaped.data, taped.data)

    def test_tape_off_forward_keeps_no_history(self):
        # 12.0 MiB while the scan kept every step's gates, cells and tanh(c)
        # with the tape off, 8.0 MiB while each (B, T, 4H) projection x @ W_x
        # lived beside the scan's own copy of it
        peak = default_batch_peak(taped=False)
        assert peak < 6.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_taped_step_holds_no_projection(self):
        # 19.3 MiB while the tape held each (B, T, 4H) projection x @ W_x and
        # the backward built its BPTT factors from temporaries
        peak = default_batch_peak(taped=True)
        assert peak < 17.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_backward_holds_one_factor_buffer(self):
        # 5.65 MiB while the factors were direction-major; 7.07 MiB when the
        # right-to-left direction is reversed by a copy, 6.64 MiB when one
        # direction's rows outlive the next one's, and 8.48 MiB when the rows
        # are a second buffer instead of the factors' own memory
        peak = scan_backward_peak()
        assert peak < 6.0 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_default_model_gradient_bits(self):
        # every parameter gradient, bit for bit: a change to the scan's sum
        # order shows here before it reaches the golden checkpoint hashes
        assert default_gradient_digest() == "c0eccfff11c8588da451f2a80d99b212b879e83a5427e2488cb3d5a077cb0d35"

    def test_one_tape_node(self, rng):
        fwd, bwd = random_cell(rng, 3, 4), random_cell(rng, 3, 4)
        x = T.parameter(rng.normal(size=(2, 7, 3)))
        out = nn.bilstm(x, fwd, bwd)
        assert out._op == "lstm_scan"
        zeros = out._parents[2]
        assert zeros.shape == (2, 8) and not zeros.data.any()
        assert out._parents == (x, fwd.W_x, zeros, fwd.W_h, fwd.b, x, bwd.W_x, zeros, bwd.W_h, bwd.b)

    def test_grad_only_on_leaves(self, rng):
        cell = random_cell(rng, 3, 4)
        x = T.parameter(rng.normal(size=(2, 5, 3)))
        hidden = T.lstm_scan([(x, cell.W_x, zero_state(cell, 2), cell.W_h, cell.b)], 5)
        loss = sum_of_squares(hidden)
        loss.backward()
        assert hidden.grad is None and loss.grad is None
        leaves = [x, cell.W_x, cell.W_h, cell.b]
        once = [t.grad.copy() for t in leaves]
        loss.backward()
        for t, g in zip(leaves, once):
            np.testing.assert_array_equal(t.grad, 2.0 * g)

    @pytest.mark.parametrize("xw_shape,steps", [((2, 3, 12), 4), ((2, 5, 8), 5), ((3, 5, 12), 5), ((2, 5), 5)])
    def test_shape_mismatch_rejected(self, rng, xw_shape, steps):
        # ``xw_shape`` is the projection x @ W_x a bad direction would make:
        # too few steps, too few gate columns, another batch, or a constant
        # input with too few gate columns (and beside a sequence); and an
        # initial state [h0 | c0] of h0's width alone, or one column too wide
        hc0 = Tensor(np.zeros((2, 6)))
        W_h, b = Tensor(np.zeros((3, 12))), Tensor(np.zeros(12))
        x, W_x = Tensor(np.zeros((2, steps, 4))), Tensor(np.zeros((4, 12)))
        good = (x, W_x, hc0, W_h, b)
        bad = (Tensor(np.zeros(xw_shape[:-1] + (4,))), Tensor(np.zeros((4, xw_shape[-1]))), hc0, W_h, b)
        narrow, wide = ((x, W_x, Tensor(np.zeros((2, width))), W_h, b) for width in (3, 7))
        for directions in ([bad], [good, bad], [bad, good], [narrow], [good, wide]):
            with pytest.raises(DimensionError):
                T.lstm_scan(directions, steps)

    @pytest.mark.parametrize("x_shape,w_shape", [((2, 5, 4), (3, 12)), ((2, 4), (3, 12)), ((2,), (2, 12)),
                                                 ((2, 5, 1, 4), (4, 12))])
    def test_projection_shapes_checked(self, x_shape, w_shape):
        # W_x rows other than the input's width, and inputs of rank 1 or 4
        bad = (Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)), Tensor(np.zeros((2, 6))),
               Tensor(np.zeros((3, 12))), Tensor(np.zeros(12)))
        with pytest.raises(DimensionError):
            T.lstm_scan([bad], 5)

    def test_direction_count_rejected(self, rng):
        direction = (Tensor(np.zeros((2, 5, 4))), Tensor(np.zeros((4, 12))), Tensor(np.zeros((2, 6))),
                     Tensor(np.zeros((3, 12))), Tensor(np.zeros(12)))
        for directions in ([], [direction] * 3):
            with pytest.raises(ContractError):
                T.lstm_scan(directions, 5)


class TestBilstm:
    def test_single_step(self, rng):
        fwd, bwd = nn.LstmCell(rng, 2, 3), nn.LstmCell(rng, 2, 3)
        x = Tensor(rng.normal(size=(1, 1, 2)))
        out = nn.bilstm(x, fwd, bwd)
        hf = scan_cell(fwd, x, zero_state(fwd, 1))
        hb = scan_cell(bwd, x, zero_state(bwd, 1))
        np.testing.assert_allclose(out.data[0, 0, :3], hf.data[0, 0])
        np.testing.assert_allclose(out.data[0, 0, 3:], hb.data[0, 0])

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
        fpart = scan_cell(fwd, x, zero_state(fwd, 1)).data
        bpart = scan_cell(bwd, x[:, ::-1], zero_state(bwd, 1)).data[:, ::-1]
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

    @pytest.mark.parametrize("sizes", [(3, 4), (4, 3)])
    def test_cell_size_mismatch_rejected(self, rng, sizes):
        fwd, bwd = (nn.LstmCell(rng, 2, n) for n in sizes)
        with pytest.raises(DimensionError):
            nn.bilstm(Tensor(np.zeros((1, 4, 2))), fwd, bwd)


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
            return sum_of_squares(context)

        check_gradients(loss, [h] + [t for _, t in attn.parameters()])


class TestDense:
    def test_identity(self, rng):
        layer = nn.Dense(rng, 3, 3)
        layer.W.data = np.eye(3)
        layer.b.data[:] = 0.0
        x = rng.normal(size=(2, 3))
        np.testing.assert_allclose(layer(Tensor(x)).data, x)

    def test_hand_affine(self, rng):
        layer = nn.Dense(rng, 2, 1)
        layer.W.data = np.array([[1.0], [1.0]])
        layer.b.data = np.array([0.5])
        np.testing.assert_array_equal(layer(Tensor([[1.0, 2.0]])).data, [[3.5]])

    def test_relu_clamps_negative(self, rng):
        layer = nn.Dense(rng, 1, 1, relu=True)
        layer.W.data = np.array([[-2.0]])
        np.testing.assert_array_equal(layer(Tensor([[1.0]])).data, [[0.0]])

    def test_gradients(self, rng):
        layer = nn.Dense(rng, 3, 2, relu=True)
        x = T.parameter(rng.normal(size=(4, 3)))
        check_gradients(lambda: sum_of_squares(layer(x)), [x, layer.W, layer.b])
