"""Mini-batch training: Adam, loss weighting, gradient clipping, early
stopping, and seeded reproducibility.

Given (seed, config, data) the produced parameters are bit-for-bit
deterministic: initialization, shuffling, and every update draw from
generators derived from the config seed, and all arithmetic is float64.
"""
from __future__ import annotations

import logging
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import losses as L
from . import tensor as T
from .config import TrainConfig
from .data import WindowDataset, truncate_at_fraction
from .errors import ContractError, NumericError
from .model import MafnModel, MafnOutput
from .tensor import Tensor

log = logging.getLogger(__name__)

LOG_COLUMNS = ("epoch", "L_state", "L_degradation", "L_forecast", "L_RUL", "L_total", "val_total")


class Adam:
    """Bias-corrected Adam over a named parameter dict."""

    def __init__(self, params: "OrderedDict[str, Tensor]", lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            if p.grad is None:
                raise ContractError(f"adam step: parameter {name!r} has no gradient")
            g = p.grad
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            m_hat = self.m[name] / (1.0 - self.beta1 ** t)
            v_hat = self.v[name] / (1.0 - self.beta2 ** t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_gradients(params: "OrderedDict[str, Tensor]", max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


@dataclass
class TrainResult:
    params: "OrderedDict[str, np.ndarray]"     # best-validation snapshot
    log_rows: list                             # dicts keyed by LOG_COLUMNS
    best_epoch: int
    best_val: float
    epochs_run: int
    stop_reason: str


def _batch_losses(
    model: MafnModel, ds: WindowDataset, idx: np.ndarray, cfg: TrainConfig, weights: L.LossWeights
) -> dict:
    out: MafnOutput = model.forward(
        ds.inputs[idx], ds.states[idx], future_states=ds.future_states[idx]
    )
    mask = ds.mask[idx]
    rul_target = ds.rul[idx] / cfg.rul_cap
    components = {
        "state": L.state_loss(out.state_logits, ds.future_states[idx], mask),
        "forecast": L.forecast_loss(out.forecast, ds.future_sensors[idx], mask),
        "degradation": L.degradation_loss(out.degradation, weights.lambda_smooth),
        "rul": L.rul_loss(out.rul, rul_target, weights.lambda_late, weights.lambda_early),
    }
    components["total"] = L.total_loss(components, weights)
    return components


def _dataset_loss(model: MafnModel, ds: WindowDataset, cfg: TrainConfig, weights: L.LossWeights) -> float:
    """Mean total loss over a dataset (no gradient tracking)."""
    total = 0.0
    n = 0
    with T.no_grad():
        for start in range(0, len(ds), cfg.batch_size):
            idx = np.arange(start, min(start + cfg.batch_size, len(ds)))
            components = _batch_losses(model, ds, idx, cfg, weights)
            total += components["total"].item() * len(idx)
            n += len(idx)
    return total / max(n, 1)


# a diverging run overflows inside matmul and exp before the NaN checks in
# softmax and total_loss raise; those report it once, without numpy warnings
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(
    train_ds: WindowDataset,
    val_ds: WindowDataset,
    config: TrainConfig,
    n_sensors: int,
    progress: Optional[Callable[[dict], None]] = None,
) -> TrainResult:
    """Train a fresh model; keep the best-validation parameter snapshot.

    Stops when ``patience`` epochs pass without validation improvement or
    at ``max_epochs``.  A NaN loss aborts with the offending component and
    batch named.
    """
    if len(train_ds) < 1 or len(val_ds) < 1:
        raise ContractError("training needs at least one train and one validation window")
    config.validate()
    weights = L.LossWeights.from_config(config)
    model = MafnModel(config, n_sensors, np.random.default_rng(config.seed))
    params = model.parameters()
    opt = Adam(params, config.learning_rate, config.beta1, config.beta2, config.adam_eps)
    shuffle_rng = np.random.default_rng(config.seed + 0x5EED)

    best_val = np.inf
    best_params = model.state_arrays()
    best_epoch = 0
    bad_epochs = 0
    rows = []
    stop_reason = "max_epochs"

    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(len(train_ds))
        sums = {"state": 0.0, "degradation": 0.0, "forecast": 0.0, "rul": 0.0, "total": 0.0}
        seen = 0
        clipped = 0
        for b, start in enumerate(range(0, len(order), config.batch_size)):
            idx = order[start : start + config.batch_size]
            opt.zero_grad()
            try:
                components = _batch_losses(model, train_ds, idx, config, weights)
            except NumericError as e:
                raise NumericError(f"{e} (epoch {epoch}, batch {b})") from None
            components["total"].backward()
            norm = clip_gradients(params, config.grad_clip)
            if config.grad_clip > 0 and norm > config.grad_clip:
                clipped += 1
            opt.step()
            for name in sums:
                sums[name] += components[name].item() * len(idx)
            seen += len(idx)
        if clipped:
            log.debug("epoch %d: clipped gradients on %d batches", epoch, clipped)

        val_total = _dataset_loss(model, val_ds, config, weights)
        row = {
            "epoch": epoch,
            "L_state": sums["state"] / seen,
            "L_degradation": sums["degradation"] / seen,
            "L_forecast": sums["forecast"] / seen,
            "L_RUL": sums["rul"] / seen,
            "L_total": sums["total"] / seen,
            "val_total": val_total,
        }
        rows.append(row)
        if progress is not None:
            progress(row)

        if val_total < best_val:
            best_val = val_total
            best_params = model.state_arrays()
            best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > config.patience:
                stop_reason = "early_stop"
                break

    return TrainResult(
        params=best_params,
        log_rows=rows,
        best_epoch=best_epoch,
        best_val=best_val,
        epochs_run=len(rows),
        stop_reason=stop_reason,
    )


def format_log_csv(rows: Sequence[dict]) -> str:
    lines = [",".join(LOG_COLUMNS)]
    for row in rows:
        lines.append(
            ",".join(
                str(row["epoch"]) if col == "epoch" else format(row[col], ".12g")
                for col in LOG_COLUMNS
            )
        )
    return "\n".join(lines) + "\n"


# -- evaluation protocols ---------------------------------------------------------

CUTOFF_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))


@dataclass
class CutoffReport:
    rows: list          # (cutoff_pct, rmse, re, score)
    skipped: int        # engines too short after truncation


def evaluate_cutoffs(
    records,
    predict_fn: Callable,
    window: int,
    rul_cap: float,
    cutoffs: Sequence[float] = CUTOFF_GRID,
) -> CutoffReport:
    """Truncate every run-to-failure engine at each cutoff and score
    predictions against the capped residual life min(L - cut, rul_cap).

    Truncations shorter than ``window`` are skipped with a warning count; a
    cutoff where every engine is too short contributes no row.
    """
    rows = []
    skipped = 0
    for pct in cutoffs:
        preds, truths = [], []
        for rec in records:
            truncated, residual = truncate_at_fraction(rec, pct)
            if truncated.length < window:
                skipped += 1
                continue
            preds.append(predict_fn(truncated))
            truths.append(min(float(residual), rul_cap))
        if not preds:
            log.warning("cutoff %g: every truncation shorter than the window; row skipped", pct)
            continue
        p = np.asarray(preds)
        t = np.asarray(truths)
        rows.append((pct, L.rmse(p, t), L.relative_error(p, t), L.score(p, t)))
    if not rows:
        raise ContractError("no engine long enough at any cutoff")
    if skipped:
        log.warning("evaluate_cutoffs skipped %d short truncations", skipped)
    return CutoffReport(rows=rows, skipped=skipped)


def evaluate_testset(records, rul_truth: np.ndarray, predict_fn: Callable, rul_cap: float):
    """Score one prediction per pre-truncated test engine against the RUL
    file (capped, consistent with capped training targets)."""
    if len(records) != len(rul_truth):
        raise ContractError(
            f"test set has {len(records)} engines but RUL file lists {len(rul_truth)}"
        )
    preds = np.asarray([predict_fn(rec) for rec in records])
    truths = np.minimum(np.asarray(rul_truth, dtype=np.float64), rul_cap)
    return L.rmse(preds, truths), L.score(preds, truths)
