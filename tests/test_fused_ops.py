"""``tensor.conv1d`` and ``tensor.additive_attention`` against the taped
graphs they replace.

The references are the layers' code before the fusion: a convolution built
from zero pads, tap slices, two concats and a matmul, and attention built
from about ten taped ops around a taped softmax.  Outputs and every
gradient must be equal bit for bit, the sign of zero included.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mafn import layers as nn
from mafn import tensor as T
from mafn.errors import ContractError, DimensionError, NumericError
from mafn.gradcheck import check_gradients
from mafn.tensor import Tensor


def taped_tanh(x: Tensor) -> Tensor:
    """A taped tanh: the attention reference graph's nonlinearity, and a
    smooth op for the tape's own gradient tests."""
    out = np.tanh(x.data)
    return T._make(out, (x,), lambda g: (g * (1.0 - out * out),), "tanh")


def reference_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """The taped softmax the attention layer used."""
    if np.isnan(x.data).any():
        raise NumericError("softmax input contains NaN")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return T._make(out, (x,), grad_fn, "softmax")


def reference_conv(conv: nn.Conv1d, x: Tensor) -> Tensor:
    """``T.conv1d(x, conv.W) + conv.b`` as pads, tap slices, concats and a
    matmul: ``Conv1d.__call__`` before its ReLU."""
    B, t_len, C = x.shape
    kernel, n_channels, n_filters = conv.W.shape
    if C != n_channels:
        raise DimensionError(f"conv1d expects {n_channels} channels, got {C}")
    p = (kernel - 1) // 2
    right = kernel - 1 - p
    pieces = []
    if p:
        pieces.append(Tensor(np.zeros((B, p, C))))
    pieces.append(x)
    if right:
        pieces.append(Tensor(np.zeros((B, right, C))))
    xp = T.concat(pieces, axis=1) if len(pieces) > 1 else x
    taps = [xp[:, j : j + t_len, :] for j in range(kernel)]
    cols = T.concat(taps, axis=2)
    w2 = conv.W.reshape((kernel * n_channels, n_filters))
    return T.matmul(cols, w2) + conv.b


def reference_attention(attn: nn.Attention, h: Tensor):
    """``Attention.__call__`` as taped matmuls, tanh, softmax, a (B, T, 1)
    broadcast multiply and a sum over time."""
    B, t_len, _ = h.shape
    pre = taped_tanh(T.matmul(h, attn.Wh) + T.matmul(attn.s, attn.Ws))
    scores = T.matmul(pre, attn.v).reshape((B, t_len))
    weights = reference_softmax(scores, axis=-1)
    context = (weights.reshape((B, t_len, 1)) * h).sum(axis=1)
    return context, weights


def with_zeros(rng, shape, share):
    """Normal draws with about ``share`` of the entries set to +0.0 or -0.0."""
    a = rng.normal(size=shape)
    a[rng.random(shape) < share] = 0.0
    a[rng.random(shape) < share] = -0.0
    return a


def grads_of(build, leaves, upstream):
    """Output data and each leaf's gradient of ``(build() * upstream).sum()``."""
    for leaf in leaves:
        leaf.zero_grad()
    out = build()
    (out * Tensor(upstream)).sum().backward()
    return out.data, [leaf.grad for leaf in leaves]


def assert_bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


# the share of signed zeros in an upstream gradient; 1.0 makes it all -0.0
ZERO_SHARES = st.sampled_from([0.0, 0.3, 1.0])


@st.composite
def conv_cases(draw):
    kernel = draw(st.integers(1, 6))
    t_len = draw(st.integers(-(-kernel // 2), 8))
    return (draw(st.integers(1, 4)), t_len, draw(st.integers(1, 3)), draw(st.integers(1, 3)), kernel,
            draw(st.booleans()), draw(ZERO_SHARES), draw(st.integers(0, 2**32 - 1)))


@st.composite
def attention_cases(draw):
    return (draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 3)),
            draw(ZERO_SHARES), draw(st.integers(0, 2**32 - 1)))


class TestConv1dOp:
    @settings(max_examples=80, deadline=None)
    @given(conv_cases())
    def test_bits_match_sliced_graph(self, case):
        B, t_len, C, F, kernel, relu, share, seed = case
        rng = np.random.default_rng(seed)
        conv = nn.Conv1d(rng, C, F, kernel)
        conv.b.data = rng.normal(size=F)
        x = T.parameter(with_zeros(rng, (B, t_len, C), 0.2))
        upstream = with_zeros(rng, (B, t_len, F), share)
        leaves = [x, conv.W, conv.b]
        if relu:    # the layer against the reference through a taped ReLU
            out, grads = grads_of(lambda: conv(x), leaves, upstream)
            ref_out, ref_grads = grads_of(lambda: T.relu(reference_conv(conv, x)), leaves, upstream)
        else:       # the op plus bias against the reference itself
            out, grads = grads_of(lambda: T.conv1d(x, conv.W) + conv.b, leaves, upstream)
            ref_out, ref_grads = grads_of(lambda: reference_conv(conv, x), leaves, upstream)
        assert_bits_equal(out, ref_out)
        for g, ref in zip(grads, ref_grads):
            assert_bits_equal(g, ref)

    def test_one_tape_node(self, rng):
        x = T.parameter(rng.normal(size=(2, 5, 3)))
        W = T.parameter(rng.normal(size=(4, 3, 2)))
        out = T.conv1d(x, W)
        assert out._op == "conv1d" and out._parents == (x, W)

    @pytest.mark.parametrize("kernel,t_len", [(1, 1), (2, 1), (4, 2), (5, 3), (6, 3)])
    def test_gradients(self, rng, kernel, t_len):
        conv = nn.Conv1d(rng, 2, 3, kernel)
        x = T.parameter(rng.normal(size=(2, t_len, 2)))
        check_gradients(lambda: T.square(T.conv1d(x, conv.W) + conv.b).sum(), [x, conv.W, conv.b])

    @pytest.mark.parametrize("shape", [(5, 3), (1, 5, 2), (1, 5, 3, 1)])
    def test_bad_input_shape_rejected(self, rng, shape):
        with pytest.raises(DimensionError):
            T.conv1d(Tensor(np.zeros(shape)), Tensor(np.zeros((3, 3, 2))))

    def test_kernel_longer_than_twice_window_rejected(self):
        with pytest.raises(ContractError):
            T.conv1d(Tensor(np.zeros((1, 2, 1))), Tensor(np.zeros((5, 1, 1))))


class TestAdditiveAttentionOp:
    @settings(max_examples=80, deadline=None)
    @given(attention_cases())
    def test_bits_match_taped_graph(self, case):
        B, t_len, H, A, share, seed = case
        rng = np.random.default_rng(seed)
        attn = nn.Attention(rng, H, A)
        h = T.parameter(with_zeros(rng, (B, t_len, H), 0.2) * 3.0)
        upstream = with_zeros(rng, (B, H), share)
        leaves = [h] + [t for _, t in attn.parameters()]
        out, grads = grads_of(lambda: attn(h)[0], leaves, upstream)
        ref_out, ref_grads = grads_of(lambda: reference_attention(attn, h)[0], leaves, upstream)
        assert_bits_equal(out, ref_out)
        for g, ref in zip(grads, ref_grads):
            assert_bits_equal(g, ref)
        assert_bits_equal(attn(h)[1].data, reference_attention(attn, h)[1].data)

    def test_weights_are_constant(self, rng):
        attn = nn.Attention(rng, 4, 3)
        context, weights = attn(T.parameter(rng.normal(size=(2, 5, 4))))
        assert context.requires_grad and context._op == "additive_attention"
        assert not weights.requires_grad and weights._grad_fn is None

    @pytest.mark.parametrize("t_len", [1, 4])
    def test_gradients(self, rng, t_len):
        attn = nn.Attention(rng, 4, 3)
        h = T.parameter(rng.normal(size=(2, t_len, 4)))
        check_gradients(lambda: T.square(attn(h)[0]).sum(), [h] + [t for _, t in attn.parameters()])

    @pytest.mark.parametrize("shape", [(5, 4), (1, 5, 3)])
    def test_bad_input_shape_rejected(self, rng, shape):
        attn = nn.Attention(rng, 4, 3)
        with pytest.raises(DimensionError):
            attn(Tensor(np.zeros(shape)))
