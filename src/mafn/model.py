"""The full network: state embedding -> Conv1D -> BiLSTM + attention shared
encoder -> four heads (future states, degradation trend, fused trajectory
forecast, RUL).

The trend and state heads are LSTM decoders unrolled over the forecast
horizon in a single pass (no autoregressive feedback); both start from the
attention context, linearly projected to their initial (h, c) pair, and
receive the context as input at every step.  The fusion head concatenates
each step's trend vector with the embedding of that step's state (the true
future state under teacher forcing, the state head's argmax otherwise) and
maps the pair through dense layers to the per-step sensor forecast.

The RUL head consumes the attention context alone and works on a normalized
scale (cycles / rul_cap), so its loss is commensurate with the other heads;
prediction helpers convert back to cycles and clamp to [0, rul_cap].

``forward`` takes (B, T, D) windows only and runs every head.  On one
history's trailing window, ``predict_rul`` runs ``encode`` (embedding,
Conv1D, BiLSTM, attention) and ``rul_head`` alone; ``forecast_trajectory``
runs the full ``forward``.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import tensor as T
from .cluster import ClusterModel
from .config import TrainConfig
from .data import (
    EngineRecord,
    N_RAW_SENSORS,
    NormalizationStats,
    denormalize_values,
    normalize_record,
    record_states,
    select_sensors,
)
from .errors import ContractError, DimensionError, NumericError
from .layers import Attention, Conv1d, Dense, EmbeddingTable, LstmCell, bilstm
from .tensor import Tensor


@dataclass
class MafnOutput:
    state_logits: Tensor       # (B, H, K)
    degradation: Tensor        # (B, H): scalar trend per step
    trend_vectors: Tensor      # (B, H, d_d)
    forecast: Tensor           # (B, H, d_s)
    rul: Tensor                # (B,): normalized (cycles / rul_cap)
    attention_weights: Tensor  # (B, T_w)


class MafnModel:
    def __init__(self, config: TrainConfig, n_sensors: int, rng: np.random.Generator):
        self.config = config
        self.n_sensors = n_sensors
        c = config
        self.embedding = EmbeddingTable(rng, c.k_states, c.embedding_dim)
        self.conv = Conv1d(rng, n_sensors + c.embedding_dim, c.n_filters, c.kernel_size, "relu")
        self.enc_fwd = LstmCell(rng, c.n_filters, c.lstm_hidden)
        self.enc_bwd = LstmCell(rng, c.n_filters, c.lstm_hidden)
        enc_out = 2 * c.lstm_hidden
        self.attention = Attention(rng, enc_out, c.lstm_hidden)
        r1, r2 = c.rul_widths
        self.rul_l1 = Dense(rng, enc_out, r1, "relu")
        self.rul_l2 = Dense(rng, r1, r2, "relu")
        self.rul_out = Dense(rng, r2, 1, None)
        self.trend_init = Dense(rng, enc_out, 2 * c.trend_dim, None)
        self.trend_cell = LstmCell(rng, enc_out, c.trend_dim)
        self.trend_proj = Dense(rng, c.trend_dim, 1, None)
        self.state_init = Dense(rng, enc_out, 2 * c.lstm_hidden, None)
        self.state_cell = LstmCell(rng, enc_out, c.lstm_hidden)
        self.state_proj = Dense(rng, c.lstm_hidden, c.k_states, None)
        self.fusion_layers = []
        width_in = c.trend_dim + c.embedding_dim
        for width in c.fusion_widths:
            self.fusion_layers.append(Dense(rng, width_in, width, "relu"))
            width_in = width
        self.fusion_out = Dense(rng, width_in, n_sensors, None)

    # -- parameter registry ----------------------------------------------------

    def parameters(self) -> "OrderedDict[str, Tensor]":
        groups = [
            ("embedding", self.embedding),
            ("conv", self.conv),
            ("encoder.fwd", self.enc_fwd),
            ("encoder.bwd", self.enc_bwd),
            ("attention", self.attention),
            ("rul.l1", self.rul_l1),
            ("rul.l2", self.rul_l2),
            ("rul.out", self.rul_out),
            ("trend.init", self.trend_init),
            ("trend.cell", self.trend_cell),
            ("trend.proj", self.trend_proj),
            ("state.init", self.state_init),
            ("state.cell", self.state_cell),
            ("state.proj", self.state_proj),
        ]
        for i, layer in enumerate(self.fusion_layers, start=1):
            groups.append((f"fusion.l{i}", layer))
        groups.append(("fusion.out", self.fusion_out))
        out: "OrderedDict[str, Tensor]" = OrderedDict()
        for prefix, obj in groups:
            for name, tensor in obj.parameters():
                out[f"{prefix}.{name}"] = tensor
        return out

    def load_state(self, params: dict):
        own = self.parameters()
        missing = set(own) - set(params)
        if missing:
            raise ContractError(f"checkpoint is missing parameters: {sorted(missing)[:5]}")
        extra = set(params) - set(own)
        if extra:
            raise ContractError(f"checkpoint has parameters the model lacks: {sorted(extra)[:5]}")
        for name, tensor in own.items():
            arr = np.asarray(params[name], dtype=np.float64)
            if arr.shape != tensor.shape:
                raise DimensionError(
                    f"parameter {name}: expected shape {tensor.shape}, found {arr.shape}"
                )
            tensor.data = arr.copy()
            tensor.grad = None

    def state_arrays(self) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict((name, t.data.copy()) for name, t in self.parameters().items())

    # -- forward ----------------------------------------------------------------

    def _decode(self, cell: LstmCell, init: Dense, context: Tensor, horizon: int) -> Tensor:
        hidden = cell.n_hidden
        hc = init(context)
        # the constant input, projected once
        xw = T.matmul(context, cell.W_x).reshape((context.shape[0], 1, 4 * hidden))
        return T.lstm_scan([(xw, hc[:, :hidden], hc[:, hidden:], cell.W_h, cell.b)], horizon)  # (B, H, hidden)

    def encode(self, windows, state_ids):
        """Shared encoder: the attention context (B, 2H) and weights (B, T)."""
        x = windows if isinstance(windows, Tensor) else Tensor(windows)
        ids = np.asarray(state_ids, dtype=np.int64)
        if x.ndim != 3:
            raise DimensionError(f"input window must be (B, T, D), got {x.shape}")
        if ids.shape != x.shape[:2]:
            raise DimensionError(f"state ids {ids.shape} do not match window {x.shape}")
        if x.shape[2] != self.n_sensors:
            raise DimensionError(
                f"encoder stage: expected {self.n_sensors} sensor channels, got {x.shape[2]}"
            )
        emb = self.embedding(ids)                          # (B, T, m)
        augmented = T.concat([x, emb], axis=2)             # (B, T, D+m)
        features = self.conv(augmented)                    # (B, T, N_f)
        hidden = bilstm(features, self.enc_fwd, self.enc_bwd)
        return self.attention(hidden)

    def rul_head(self, context: Tensor) -> Tensor:
        """Normalized RUL (B,) from the attention context."""
        return self.rul_out(self.rul_l2(self.rul_l1(context))).reshape((context.shape[0],))

    def forward(self, windows, state_ids, future_states=None, horizon: Optional[int] = None) -> MafnOutput:
        """Run every head on a (B, T, D) batch of windows.

        ``future_states`` (when given) teacher-forces the fusion head with
        the true future state ids; otherwise the state head's argmax feeds
        the fusion embedding lookup.
        """
        h_steps = self.config.horizon if horizon is None else int(horizon)
        if h_steps < 1:
            raise ContractError(f"horizon must be >= 1, got {h_steps}")
        context, weights = self.encode(windows, state_ids)  # (B, 2H), (B, T)
        batch, rul = context.shape[0], self.rul_head(context)

        trend_vecs = self._decode(self.trend_cell, self.trend_init, context, h_steps)
        trend = self.trend_proj(trend_vecs).reshape((batch, h_steps))

        state_hidden = self._decode(self.state_cell, self.state_init, context, h_steps)
        logits = self.state_proj(state_hidden)             # (B, H, K)

        if future_states is not None:
            fusion_ids = np.asarray(future_states, dtype=np.int64)
            if fusion_ids.shape != (batch, h_steps):
                raise DimensionError(
                    f"fusion stage: future states {fusion_ids.shape} do not match horizon {h_steps}"
                )
        else:
            fusion_ids = logits.data.argmax(axis=-1)
        fused = T.concat([trend_vecs, self.embedding(fusion_ids)], axis=2)
        for layer in self.fusion_layers:
            fused = layer(fused)
        forecast = self.fusion_out(fused)                  # (B, H, d_s)
        return MafnOutput(logits, trend, trend_vecs, forecast, rul, weights)


# -- inference over raw engine histories -----------------------------------------


@dataclass(frozen=True)
class PreprocessBundle:
    """Everything needed to turn a raw engine history into model inputs."""

    config: TrainConfig
    cluster: ClusterModel
    stats: NormalizationStats


def clamp_rul(raw_cycles: float, cap: float) -> float:
    if not np.isfinite(raw_cycles):
        raise NumericError(f"RUL head produced {raw_cycles}")
    return float(min(max(raw_cycles, 0.0), cap))


def min_history(cfg: TrainConfig) -> int:
    """The fewest cycles an inference history may hold: 1 when ``pad_short``
    left-pads it, the window otherwise."""
    return 1 if cfg.pad_short else cfg.window


def prepare_window(record: EngineRecord, bundle: PreprocessBundle):
    """The normalized trailing window of a raw history and its state ids.

    The window is cut before the per-cycle selection, normalization and state
    assignment; ``pad_short`` left-pads a short history with its first cycle.
    """
    cfg = bundle.config
    if record.length < min_history(cfg):
        raise ContractError(
            f"history of {record.length} cycles is shorter than the window ({cfg.window})"
            + ("" if cfg.pad_short else "; enable pad_short to left-pad by repeating the first cycle")
        )
    rows = np.maximum(np.arange(record.length - cfg.window, record.length), 0)
    record = replace(record, cycle_index=np.arange(1, cfg.window + 1),
                     op_settings=record.op_settings[rows], sensors=record.sensors[rows])
    if len(record.sensor_ids) == N_RAW_SENSORS:
        record = select_sensors(record, keep=bundle.stats.sensor_ids)
    if record.sensor_ids != bundle.stats.sensor_ids:
        raise ContractError(
            f"record sensors {record.sensor_ids} do not match checkpoint {bundle.stats.sensor_ids}"
        )
    record = normalize_record(record, bundle.stats)
    return record.sensors, record_states(record, bundle.cluster)


def predict_rul(record: EngineRecord, model: MafnModel, bundle: PreprocessBundle) -> float:
    """RUL estimate in cycles from the last window, clamped to [0, rul_cap];
    runs the encoder and the RUL head only, not the forecasting heads."""
    inputs, states = prepare_window(record, bundle)
    with T.no_grad():
        context, _ = model.encode(inputs[None], states[None])
        rul = model.rul_head(context).item()
    return clamp_rul(rul * bundle.config.rul_cap, bundle.config.rul_cap)


def forecast_trajectory(
    record: EngineRecord,
    model: MafnModel,
    bundle: PreprocessBundle,
    horizon: Optional[int] = None,
):
    """Post-cutoff forecast from one forward: denormalized (H, d_s) sensors,
    H state ids and the RUL in cycles as :func:`predict_rul` gives it."""
    inputs, states = prepare_window(record, bundle)
    with T.no_grad():
        out = model.forward(inputs[None], states[None], horizon=horizon)
    predicted_states = out.state_logits.data[0].argmax(axis=-1)
    sensors = denormalize_values(out.forecast.data[0], bundle.stats)
    rul = clamp_rul(out.rul.item() * bundle.config.rul_cap, bundle.config.rul_cap)
    return sensors, predicted_states, rul
