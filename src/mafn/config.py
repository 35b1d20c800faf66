"""Training configuration: every hyperparameter the model leaves open.

Configs serialize to a flat ``key = value`` text file (one key per line,
``#`` comments, comma-separated lists).  Environment variables prefixed
``MAFN_`` override file values, e.g. ``MAFN_SEED=7`` beats ``seed = 7``.
"""
from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from typing import Tuple

from .data import N_RAW_SENSORS, numbered_lines
from .errors import ContractError, DataError
from .losses import LossWeights

ENV_PREFIX = "MAFN_"
# the most values (2**25 float64, 256 MiB) the network's parameters, or one
# activation of a training batch, may hold; a config above it fails to load
MAX_ARRAY_VALUES = 1 << 25


@dataclass
class TrainConfig:
    # windowing
    window: int = 30                   # input window length T_w
    horizon: int = 5                   # forecast horizon H
    stride: int = 1
    rul_cap: float = 125.0
    # state identification
    k_states: int = 6
    cluster_features: str = "settings"  # "settings" | "sensors"
    cluster_restarts: int = 10
    cluster_max_iter: int = 100
    cluster_tol: float = 1e-8
    # architecture
    embedding_dim: int = 8
    kernel_size: int = 3
    n_filters: int = 16
    lstm_hidden: int = 24
    trend_dim: int = 4
    fusion_widths: Tuple[int, ...] = (32, 16)
    rul_widths: Tuple[int, ...] = (32, 16)
    # loss weighting
    w_state: float = 0.5
    w_degradation: float = 0.3
    w_forecast: float = 1.0
    w_rul: float = 1.0
    lambda_smooth: float = 0.1
    lambda_late: float = 2.0
    lambda_early: float = 1.0
    # optimization
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip: float = 5.0
    batch_size: int = 64
    max_epochs: int = 100
    patience: int = 10
    val_fraction: float = 0.2
    # misc
    pad_short: bool = False            # left-pad too-short inference histories
    seed: int = 0

    def validate(self) -> "TrainConfig":
        require_finite(self)
        positive = [
            "window", "horizon", "stride", "rul_cap", "k_states", "embedding_dim",
            "kernel_size", "n_filters", "lstm_hidden", "trend_dim", "learning_rate", "adam_eps",
            "batch_size", "max_epochs", "cluster_restarts", "cluster_max_iter",
        ]
        for name in positive:
            if getattr(self, name) <= 0:
                raise ContractError(f"config field {name} must be positive, got {getattr(self, name)}")
        if self.patience < 0:
            raise ContractError("patience must be >= 0")
        if self.window < self.kernel_size:
            raise ContractError(f"window {self.window} is shorter than kernel_size {self.kernel_size}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ContractError(f"config field {name} must lie in [0, 1), got {getattr(self, name)}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ContractError(f"val_fraction must lie in (0, 1), got {self.val_fraction}")
        LossWeights.from_config(self)      # the one check of the loss weights
        if self.cluster_features not in ("settings", "sensors"):
            raise ContractError(f"cluster_features must be 'settings' or 'sensors', got {self.cluster_features!r}")
        if not all(w > 0 for w in self.fusion_widths) or not self.fusion_widths:
            raise ContractError("fusion_widths must be a nonempty list of positive ints")
        if len(self.rul_widths) != 2 or not all(w > 0 for w in self.rul_widths):
            raise ContractError("rul_widths must be two positive ints")
        params, activation = model_sizes(self)
        if params > MAX_ARRAY_VALUES:
            raise ContractError(
                f"the layer sizes give {params:,} parameters, more than the bound of {MAX_ARRAY_VALUES:,}"
            )
        if activation > MAX_ARRAY_VALUES:
            raise ContractError(
                f"a batch of {self.batch_size} windows needs an activation of {activation:,} values, "
                f"more than the bound of {MAX_ARRAY_VALUES:,}; reduce batch_size, window, horizon "
                "or the layer sizes"
            )
        return self

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["fusion_widths"] = list(self.fusion_widths)
        out["rul_widths"] = list(self.rul_widths)
        return out


def model_sizes(cfg: TrainConfig, n_sensors: int = N_RAW_SENSORS):
    """(parameter count, values in the largest activation of one training
    batch) of the network ``cfg`` describes, from the config alone.

    ``n_sensors`` defaults to all raw channels, more than the pipeline feeds.
    """
    S, K, m = n_sensors, cfg.k_states, cfg.embedding_dim
    F, h, d = cfg.n_filters, cfg.lstm_hidden, cfg.trend_dim
    r1, r2 = cfg.rul_widths
    fusion = (d + m, *cfg.fusion_widths, S)

    def dense(n_in, n_out):
        return (n_in + 1) * n_out

    def lstm(n_in, n_hidden):
        return (n_in + n_hidden + 1) * 4 * n_hidden

    params = (
        K * m + dense(cfg.kernel_size * (S + m), F) + 2 * lstm(F, h)
        + 2 * h * h + h * h + 2 * h                                     # attention
        + dense(2 * h, r1) + dense(r1, r2) + dense(r2, 1)               # RUL head
        + dense(2 * h, 2 * d) + lstm(2 * h, d) + dense(d, 1)            # trend decoder
        + dense(2 * h, 2 * h) + lstm(2 * h, h) + dense(h, K)            # state decoder
        + sum(dense(a, b) for a, b in zip(fusion, fusion[1:]))
    )
    per_window = max(
        cfg.window * max(cfg.kernel_size * (S + m), F, 4 * h),         # conv columns, encoder gates
        cfg.horizon * max(4 * h, 4 * d, K, *fusion),                   # decoder gates, heads
        r1, r2,
    )
    return params, cfg.batch_size * per_window


def require_finite(spec) -> None:
    """ContractError naming the first float field of a dataclass, or float
    inside a tuple field, that is NaN or infinite."""
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        items = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in items):
            raise ContractError(f"field {f.name} must be finite, got {value}")


_FIELD_COMMENTS = {
    "window": "input window length in cycles",
    "horizon": "forecast horizon in cycles",
    "rul_cap": "cap applied to RUL targets and predictions",
    "k_states": "number of discrete operational states",
    "cluster_features": "columns to cluster: settings | sensors",
    "fusion_widths": "hidden widths of the fusion stack, comma-separated",
    "rul_widths": "hidden widths of the two RUL head layers",
    "pad_short": "left-pad histories shorter than the window at inference",
}


def default_config_text() -> str:
    """The full default config as a flat key = value file with comments."""
    lines = ["# mafn configuration: flat key = value, '#' starts a comment"]
    for f in dataclasses.fields(TrainConfig):
        value = getattr(TrainConfig(), f.name)
        comment = _FIELD_COMMENTS.get(f.name)
        rendered = _render_value(value)
        lines.append(f"{f.name} = {rendered}" + (f"  # {comment}" if comment else ""))
    return "\n".join(lines) + "\n"


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


def _parse_value(name: str, raw: str, py_type):
    raw = raw.strip()
    try:
        if py_type is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if py_type is int:
            return int(raw)
        if py_type is float:
            return float(raw)
        if py_type is str:
            return raw
        # tuple of ints
        return tuple(int(p) for p in raw.split(",") if p.strip())
    except ValueError as e:
        raise DataError(f"config field {name}: {e}") from None


def _field_types():
    hints = {}
    for f in dataclasses.fields(TrainConfig):
        default = getattr(TrainConfig(), f.name)
        hints[f.name] = bool if isinstance(default, bool) else type(default)
    return hints


def parse_config_text(text: str, path: str = "<string>") -> TrainConfig:
    types = _field_types()
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise DataError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in types:
            raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _parse_value(key, raw, types[key])
    return TrainConfig(**values)


def load_config(path, apply_env: bool = True) -> TrainConfig:
    text = "".join(line for _, line in numbered_lines(path))
    cfg = parse_config_text(text, path=str(path))
    if apply_env:
        cfg = apply_env_overrides(cfg)
    return cfg.validate()


def apply_env_overrides(cfg: TrainConfig, environ=None) -> TrainConfig:
    environ = os.environ if environ is None else environ
    types = _field_types()
    updates = {}
    for name, py_type in types.items():
        key = ENV_PREFIX + name.upper()
        if key in environ:
            updates[name] = _parse_value(name, environ[key], py_type)
    return dataclasses.replace(cfg, **updates) if updates else cfg
