"""Mini-batch training: Adam over flat moment arrays, loss weighting,
gradient clipping, early stopping, and seeded reproducibility.

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
from .errors import ContractError, DataError, NumericError
from .model import MafnModel, MafnOutput, PreprocessBundle, min_history, predict_rul
from .tensor import Tensor

log = logging.getLogger(__name__)

LOG_COLUMNS = ("epoch", "L_state", "L_degradation", "L_forecast", "L_RUL", "L_total", "val_total")


class Adam:
    """Bias-corrected Adam over a named parameter dict.  The moments are two
    flat float64 arrays in parameter order; each step gathers the gradients
    and the parameters with one concatenate each, updates them with in-place
    ufuncs in the per-parameter expression order, and rebinds each
    parameter's ``data`` to its view of the updated array."""

    def __init__(self, params: "OrderedDict[str, Tensor]", lr: float, beta1: float = TrainConfig.beta1,
                 beta2: float = TrainConfig.beta2, eps: float = TrainConfig.adam_eps):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        sizes = [p.data.size for p in params.values()]
        self.m = np.zeros(sum(sizes))
        self.v = np.zeros(sum(sizes))
        self._offsets = np.cumsum(sizes)[:-1]

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        """One update; a parameter without a gradient raises before any
        moment, parameter or the step count changes."""
        for name, p in self.params.items():
            if p.grad is None:
                raise ContractError(f"adam step: parameter {name!r} has no gradient")
        self.step_count += 1
        t, m, v = self.step_count, self.m, self.v
        g = np.concatenate([p.grad.reshape(-1) for p in self.params.values()])
        data = np.concatenate([p.data.reshape(-1) for p in self.params.values()])
        # m = b1 * m + (1 - b1) * g and v = b2 * v + ((1 - b2) * g) * g
        update = np.multiply(g, 1.0 - self.beta1)
        m *= self.beta1
        m += update
        np.multiply(g, 1.0 - self.beta2, out=update)
        update *= g
        v *= self.beta2
        v += update
        # data - lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(m, 1.0 - self.beta1 ** t, out=update)
        update *= self.lr
        np.divide(v, 1.0 - self.beta2 ** t, out=g)
        np.sqrt(g, out=g)
        g += self.eps
        update /= g
        data -= update
        for p, view in zip(self.params.values(), np.split(data, self._offsets)):
            p.data = view.reshape(p.data.shape)


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


def _batch_losses(model: MafnModel, ds: WindowDataset, idx: np.ndarray, cfg: TrainConfig) -> dict:
    b = ds.batch(idx)
    out: MafnOutput = model.forward(b["inputs"], b["states"], future_states=b["future_states"])
    components = {
        "state": L.state_loss(out.state_logits, b["future_states"], b["mask"]),
        "forecast": L.forecast_loss(out.forecast, b["future_sensors"], b["mask"]),
        "degradation": L.degradation_loss(out.degradation, cfg.lambda_smooth),
        "rul": L.rul_loss(out.rul, b["rul"] / cfg.rul_cap, cfg.lambda_late, cfg.lambda_early),
    }
    components["total"] = L.total_loss(components, cfg)
    return components


def _dataset_loss(model: MafnModel, ds: WindowDataset, cfg: TrainConfig) -> float:
    """Mean total loss over a dataset (no gradient tracking)."""
    total = 0.0
    n = 0
    with T.no_grad():
        for start in range(0, len(ds), cfg.batch_size):
            idx = np.arange(start, min(start + cfg.batch_size, len(ds)))
            components = _batch_losses(model, ds, idx, cfg)
            total += components["total"].item() * len(idx)
            n += len(idx)
    return total / max(n, 1)


# a diverging run overflows inside matmul and exp before the NaN checks in
# the attention softmax and total_loss raise; those report it once, without numpy warnings
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
                components = _batch_losses(model, train_ds, idx, config)
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

        val_total = _dataset_loss(model, val_ds, config)
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


def evaluate_cutoffs(records, model: MafnModel, bundle: PreprocessBundle) -> list:
    """One ``(cutoff_pct, rmse, re, score)`` row per cutoff of ``CUTOFF_GRID``:
    every engine cut there, scored against its capped residual life
    min(L - cut, rul_cap).

    Truncations shorter than ``min_history`` are skipped with a warning
    count; a cutoff where every engine is too short contributes no row.
    """
    if not records:
        raise DataError("no engine to evaluate: the data holds no engine records")
    shortest = min_history(bundle.config)
    rows = []
    skipped = 0
    for pct in CUTOFF_GRID:
        cut = [truncate_at_fraction(rec, pct) for rec in records]
        kept = [(truncated, residual) for truncated, residual in cut if truncated.length >= shortest]
        skipped += len(cut) - len(kept)
        if not kept:
            log.warning("cutoff %g: every truncation shorter than the window; row skipped", pct)
            continue
        truncated, residuals = zip(*kept)
        p, t = _predicted(truncated, residuals, model, bundle)
        rows.append((pct, L.rmse(p, t), L.relative_error(p, t), L.score(p, t)))
    if not rows:
        raise ContractError("no engine long enough at any cutoff")
    if skipped:
        log.warning("evaluate_cutoffs skipped %d short truncations", skipped)
    return rows


def evaluate_testset(records, rul_truth: np.ndarray, model: MafnModel, bundle: PreprocessBundle):
    """(rmse, score) of one prediction per pre-truncated test engine against
    the RUL file (capped, consistent with capped training targets).  An
    engine shorter than ``min_history`` raises, so no prediction is dropped
    and each stays paired with its line of the RUL file."""
    if len(records) != len(rul_truth):
        raise ContractError(
            f"test set has {len(records)} engines but RUL file lists {len(rul_truth)}"
        )
    p, t = _predicted(records, rul_truth, model, bundle)
    return L.rmse(p, t), L.score(p, t)


def _predicted(records, truths, model: MafnModel, bundle: PreprocessBundle):
    """The one scoring loop of both protocols: one ``predict_rul`` per
    record, and the truths capped at ``rul_cap``, as float64 arrays."""
    preds = np.asarray([predict_rul(rec, model, bundle) for rec in records])
    return preds, np.minimum(np.asarray(truths, dtype=np.float64), bundle.config.rul_cap)
