"""Differentiable layers: embedding, same-padded 1-D convolution, LSTM,
bidirectional LSTM, additive attention, dense.

Layers are immutable parameter containers during inference; training mutates
their gradients and must be serialized per model instance.  Initialization
draws from a caller-supplied numpy Generator so construction order fixes the
parameter values for a given seed.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError
from .tensor import Tensor


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Dense:
    """y = activation(x @ W + b); activation in {None, "relu", "tanh"}."""

    def __init__(self, rng, n_in: int, n_out: int, activation: Optional[str] = None):
        self.W = T.parameter(glorot_uniform(rng, n_in, n_out, (n_in, n_out)))
        self.b = T.parameter(np.zeros(n_out))
        if activation not in (None, "relu", "tanh"):
            raise ContractError(f"unknown activation {activation!r}")
        self.activation = activation

    def __call__(self, x: Tensor) -> Tensor:
        y = T.matmul(x, self.W) + self.b
        if self.activation == "relu":
            y = T.relu(y)
        elif self.activation == "tanh":
            y = T.tanh(y)
        return y

    def parameters(self):
        return [("W", self.W), ("b", self.b)]


class EmbeddingTable:
    """K discrete states mapped to dense rows of an (K, m) table."""

    def __init__(self, rng, n_states: int, dim: int):
        self.weights = T.parameter(glorot_uniform(rng, n_states, dim, (n_states, dim)))

    @property
    def n_states(self) -> int:
        return self.weights.shape[0]

    def __call__(self, state_ids) -> Tensor:
        return T.gather_rows(self.weights, np.asarray(state_ids))

    def parameters(self):
        return [("W", self.weights)]


class Conv1d:
    """Temporal convolution with stride 1 and same (zero) padding.

    Kernels have shape (kernel, channels, filters); padding is
    floor((kernel-1)/2) on the left and kernel-1-p on the right so the
    output length equals the input length.
    """

    def __init__(self, rng, n_channels: int, n_filters: int, kernel: int, activation: str = "relu"):
        fan_in = kernel * n_channels
        self.W = T.parameter(glorot_uniform(rng, fan_in, n_filters, (kernel, n_channels, n_filters)))
        self.b = T.parameter(np.zeros(n_filters))
        self.kernel = kernel
        self.n_channels = n_channels
        self.n_filters = n_filters
        if activation not in (None, "relu", "tanh"):
            raise ContractError(f"unknown activation {activation!r}")
        self.activation = activation

    def __call__(self, x: Tensor) -> Tensor:
        squeeze = x.ndim == 2
        if squeeze:
            x = x.reshape((1,) + x.shape)
        if x.ndim != 3:
            raise DimensionError(f"conv1d input must be (T, C) or (B, T, C), got {x.shape}")
        B, t_len, C = x.shape
        if C != self.n_channels:
            raise DimensionError(f"conv1d expects {self.n_channels} channels, got {C}")
        if self.kernel > 2 * t_len:
            raise ContractError(f"kernel {self.kernel} too long for window {t_len}")
        p = (self.kernel - 1) // 2
        right = self.kernel - 1 - p
        pieces = []
        if p:
            pieces.append(Tensor(np.zeros((B, p, C))))
        pieces.append(x)
        if right:
            pieces.append(Tensor(np.zeros((B, right, C))))
        xp = T.concat(pieces, axis=1) if len(pieces) > 1 else x
        taps = [xp[:, j : j + t_len, :] for j in range(self.kernel)]
        cols = T.concat(taps, axis=2)                              # (B, T, kernel*C)
        w2 = self.W.reshape((self.kernel * self.n_channels, self.n_filters))
        y = T.matmul(cols, w2) + self.b
        if self.activation == "relu":
            y = T.relu(y)
        elif self.activation == "tanh":
            y = T.tanh(y)
        return y.reshape(y.shape[1:]) if squeeze else y

    def parameters(self):
        return [("W", self.W), ("b", self.b)]


class LstmCell:
    """Standard LSTM gate equations; forget-gate bias starts at 1."""

    GATES = ("i", "f", "g", "o")

    def __init__(self, rng, n_in: int, n_hidden: int):
        self.n_in = n_in
        self.n_hidden = n_hidden
        lim_x = np.sqrt(6.0 / (n_in + n_hidden))
        lim_h = np.sqrt(6.0 / (2 * n_hidden))
        self.W_x = {}
        self.W_h = {}
        self.b = {}
        for gate in self.GATES:
            self.W_x[gate] = T.parameter(rng.uniform(-lim_x, lim_x, size=(n_in, n_hidden)))
            self.W_h[gate] = T.parameter(rng.uniform(-lim_h, lim_h, size=(n_hidden, n_hidden)))
            bias = np.ones(n_hidden) if gate == "f" else np.zeros(n_hidden)
            self.b[gate] = T.parameter(bias)

    def step(self, x: Tensor, h_prev: Tensor, c_prev: Tensor):
        pre = {
            gate: T.matmul(x, self.W_x[gate]) + T.matmul(h_prev, self.W_h[gate]) + self.b[gate]
            for gate in self.GATES
        }
        i = T.sigmoid(pre["i"])
        f = T.sigmoid(pre["f"])
        g = T.tanh(pre["g"])
        o = T.sigmoid(pre["o"])
        c = f * c_prev + i * g
        h = o * T.tanh(c)
        return h, c

    def initial_state(self, batch: int):
        zeros = np.zeros((batch, self.n_hidden))
        return Tensor(zeros), Tensor(zeros.copy())

    def parameters(self):
        out = []
        for gate in self.GATES:
            out.append((f"W_x{gate}", self.W_x[gate]))
            out.append((f"W_h{gate}", self.W_h[gate]))
            out.append((f"b_{gate}", self.b[gate]))
        return out


def lstm_unroll(x: Tensor, cell: LstmCell, reverse: bool = False) -> Tensor:
    """Run a cell over (B, T, F); returns hidden states (B, T, H).

    With ``reverse`` the scan runs right-to-left but the output keeps the
    input's time order.
    """
    if x.ndim != 3:
        raise DimensionError(f"lstm_unroll input must be (B, T, F), got {x.shape}")
    B, t_len, _ = x.shape
    h, c = cell.initial_state(B)
    steps = range(t_len - 1, -1, -1) if reverse else range(t_len)
    outputs: dict = {}
    for t in steps:
        h, c = cell.step(x[:, t, :], h, c)
        outputs[t] = h
    return T.stack([outputs[t] for t in range(t_len)], axis=1)


def bilstm(x: Tensor, fwd_cell: LstmCell, bwd_cell: LstmCell) -> Tensor:
    """Concatenated forward and backward hidden states, (B, T, 2H) or (T, 2H)."""
    squeeze = x.ndim == 2
    if squeeze:
        x = x.reshape((1,) + x.shape)
    out = T.concat(
        [lstm_unroll(x, fwd_cell), lstm_unroll(x, bwd_cell, reverse=True)], axis=2
    )
    return out.reshape(out.shape[1:]) if squeeze else out


class Attention:
    """Additive attention with a learned query vector.

    Scores e_t = v . tanh(h_t Wh + s Ws); softmax over time gives weights
    whose convex combination of the hidden states is the context.
    """

    def __init__(self, rng, n_hidden: int, n_attn: int):
        self.Wh = T.parameter(glorot_uniform(rng, n_hidden, n_attn, (n_hidden, n_attn)))
        self.Ws = T.parameter(glorot_uniform(rng, n_attn, n_attn, (n_attn, n_attn)))
        self.v = T.parameter(glorot_uniform(rng, n_attn, 1, (n_attn, 1)))
        self.s = T.parameter(glorot_uniform(rng, 1, n_attn, (1, n_attn)))

    def __call__(self, h: Tensor):
        squeeze = h.ndim == 2
        if squeeze:
            h = h.reshape((1,) + h.shape)
        B, t_len, _ = h.shape
        pre = T.tanh(T.matmul(h, self.Wh) + T.matmul(self.s, self.Ws))
        scores = T.matmul(pre, self.v).reshape((B, t_len))
        weights = T.softmax(scores, axis=-1)
        context = (weights.reshape((B, t_len, 1)) * h).sum(axis=1)
        if squeeze:
            return context.reshape(context.shape[1:]), weights.reshape((t_len,))
        return context, weights

    def parameters(self):
        return [("Wh", self.Wh), ("Ws", self.Ws), ("v", self.v), ("s", self.s)]
