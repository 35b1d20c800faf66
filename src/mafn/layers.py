"""Differentiable layers: embedding, same-padded 1-D convolution, LSTM,
bidirectional LSTM, additive attention, dense (one tape node each).

Layers are immutable parameter containers during inference; training mutates
their gradients and must be serialized per model instance.  Initialization
draws from a caller-supplied numpy Generator so construction order fixes the
parameter values for a given seed.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import DimensionError
from .tensor import Tensor


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Dense:
    """y = x @ W + b, through a ReLU when ``relu``: one
    :func:`mafn.tensor.dense` node."""

    def __init__(self, rng, n_in: int, n_out: int, relu: bool = False):
        self.W = T.parameter(glorot_uniform(rng, n_in, n_out, (n_in, n_out)))
        self.b = T.parameter(np.zeros(n_out))
        self.relu = relu

    def __call__(self, x: Tensor) -> Tensor:
        return T.dense(x, self.W, self.b, self.relu)

    def parameters(self):
        return [("W", self.W), ("b", self.b)]


class EmbeddingTable:
    """K discrete states mapped to dense rows of an (K, m) table."""

    def __init__(self, rng, n_states: int, dim: int):
        self.weights = T.parameter(glorot_uniform(rng, n_states, dim, (n_states, dim)))

    def __call__(self, state_ids) -> Tensor:
        return T.gather_rows(self.weights, np.asarray(state_ids))

    def parameters(self):
        return [("W", self.weights)]


class Conv1d:
    """Temporal convolution with stride 1 and same (zero) padding, then bias
    and ReLU.

    Kernels have shape (kernel, channels, filters); padding is
    floor((kernel-1)/2) on the left and kernel-1-p on the right so the
    output length equals the input length; :func:`mafn.tensor.conv1d` is one
    node, the bias and ReLU inside it.
    """

    def __init__(self, rng, n_channels: int, n_filters: int, kernel: int):
        fan_in = kernel * n_channels
        self.W = T.parameter(glorot_uniform(rng, fan_in, n_filters, (kernel, n_channels, n_filters)))
        self.b = T.parameter(np.zeros(n_filters))

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv1d(x, self.W, self.b)

    def parameters(self):
        return [("W", self.W), ("b", self.b)]


class LstmCell:
    """Standard LSTM gate equations, gates stacked in i, f, g, o column order:
    W_x (n_in, 4H), W_h (H, 4H), b (4H); the forget-gate bias b[H:2H] starts
    at 1.  A cell holds parameters only: :func:`mafn.tensor.lstm_scan` takes
    its input and W_x, projects the input itself (a constant input, the
    decoders', once) and runs the recurrence; :func:`bilstm` runs two cells
    in one scan."""

    def __init__(self, rng, n_in: int, n_hidden: int):
        self.n_hidden = n_hidden
        lim_x = np.sqrt(6.0 / (n_in + n_hidden))
        lim_h = np.sqrt(6.0 / (2 * n_hidden))
        w_x, w_h = [], []
        for _ in range(4):                 # per-gate draws, in gate order
            w_x.append(rng.uniform(-lim_x, lim_x, size=(n_in, n_hidden)))
            w_h.append(rng.uniform(-lim_h, lim_h, size=(n_hidden, n_hidden)))
        self.W_x = T.parameter(np.concatenate(w_x, axis=1))
        self.W_h = T.parameter(np.concatenate(w_h, axis=1))
        bias = np.zeros(4 * n_hidden)
        bias[n_hidden : 2 * n_hidden] = 1.0
        self.b = T.parameter(bias)

    def parameters(self):
        return [("W_x", self.W_x), ("W_h", self.W_h), ("b", self.b)]


def bilstm(x: Tensor, fwd_cell: LstmCell, bwd_cell: LstmCell) -> Tensor:
    """Forward and backward hidden states side by side, (B, T, 2H): both
    directions run as one two-direction :func:`mafn.tensor.lstm_scan`, which
    projects ``x`` by each cell's W_x itself."""
    if x.ndim != 3:
        raise DimensionError(f"bilstm input must be (B, T, F), got {x.shape}")
    B, t_len, _ = x.shape
    zeros = Tensor(np.zeros((B, 2 * fwd_cell.n_hidden)))
    return T.lstm_scan([(x, cell.W_x, zeros, cell.W_h, cell.b) for cell in (fwd_cell, bwd_cell)], t_len)


class Attention:
    """Additive attention with a learned query vector.

    Scores e_t = v . tanh(h_t Wh + s Ws); softmax over time gives weights
    whose convex combination of the hidden states is the context
    (:func:`mafn.tensor.additive_attention`: one node, constant weights).
    """

    def __init__(self, rng, n_hidden: int, n_attn: int):
        self.Wh = T.parameter(glorot_uniform(rng, n_hidden, n_attn, (n_hidden, n_attn)))
        self.Ws = T.parameter(glorot_uniform(rng, n_attn, n_attn, (n_attn, n_attn)))
        self.v = T.parameter(glorot_uniform(rng, n_attn, 1, (n_attn, 1)))
        self.s = T.parameter(glorot_uniform(rng, 1, n_attn, (1, n_attn)))

    def __call__(self, h: Tensor):
        """Context (B, H) and attention weights (B, T) of hidden states (B, T, H)."""
        return T.additive_attention(h, self.Wh, self.s, self.Ws, self.v)

    def parameters(self):
        return [("Wh", self.Wh), ("Ws", self.Ws), ("v", self.v), ("s", self.s)]
