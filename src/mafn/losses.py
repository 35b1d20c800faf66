"""The four head losses, their weighted total, and the evaluation metrics.

All losses run through the autodiff tape and are therefore usable as
training objectives; the metrics operate on plain numpy arrays.  Masked
losses ignore padded horizon positions entirely: garbage at masked slots
cannot change the result.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .errors import ContractError, NumericError
from .tensor import Tensor


@dataclass(frozen=True)
class LossWeights:
    w_state: float = 0.5
    w_degradation: float = 0.3
    w_forecast: float = 1.0
    w_rul: float = 1.0
    lambda_smooth: float = 0.1
    lambda_late: float = 2.0
    lambda_early: float = 1.0

    def __post_init__(self):
        if min(self.w_state, self.w_degradation, self.w_forecast, self.w_rul) < 0:
            raise ContractError("loss weights must be nonnegative")
        if min(self.lambda_smooth, self.lambda_late, self.lambda_early) < 0:
            raise ContractError("loss multipliers must be nonnegative")
        if not self.lambda_late > self.lambda_early:
            raise ContractError(
                f"lambda_late ({self.lambda_late}) must exceed lambda_early ({self.lambda_early})"
            )
        if max(self.w_state, self.w_degradation, self.w_forecast, self.w_rul) == 0:
            raise ContractError("at least one loss weight must be positive")

    @classmethod
    def from_config(cls, cfg) -> "LossWeights":
        """The weights and multipliers of a config, which shares their field names."""
        return cls(**{f.name: getattr(cfg, f.name) for f in fields(cls)})


def state_loss(logits: Tensor, targets, mask) -> Tensor:
    """Masked sparse categorical cross-entropy.

    ``logits`` is (..., H, K); ``targets`` holds class ids (..., H); ``mask``
    marks valid horizon steps; an all-zero mask gives a graph-connected 0.
    Log-probabilities come from a max-shifted log-softmax, never from
    exponentiated probabilities.
    """
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.float64)
    k = logits.shape[-1]
    if targets.shape != logits.shape[:-1] or mask.shape != targets.shape:
        raise ContractError(
            f"state_loss shapes disagree: logits {logits.shape}, targets {targets.shape}, mask {mask.shape}"
        )
    onehot = np.zeros(logits.shape)
    np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
    lp = T.log_softmax(logits, axis=-1)
    picked = (lp * Tensor(onehot)).sum(axis=-1)
    return -(picked * Tensor(mask)).sum() / max(float(mask.sum()), 1.0)


def degradation_loss(trend: Tensor, lambda_smooth: float) -> Tensor:
    """Monotonicity hinge plus smoothness penalty on consecutive differences.

    (sum max(0, -(y[t+1]-y[t])) + lambda * sum (y[t+1]-y[t])^2) / (H-1),
    averaged over any leading batch dimensions.
    """
    h = trend.shape[-1]
    if h < 2:
        raise ContractError(f"degradation_loss needs a horizon >= 2, got {h}")
    diffs = trend[..., 1:] - trend[..., :-1]
    mono = T.relu(-diffs).sum(axis=-1)
    smooth = T.square(diffs).sum(axis=-1)
    per_sample = (mono + lambda_smooth * smooth) / float(h - 1)
    return per_sample.mean() if per_sample.ndim else per_sample


def forecast_loss(pred: Tensor, target, mask) -> Tensor:
    """Masked mean squared error, summed over sensors per step.

    sum_t m_t ||pred_t - target_t||^2 / sum_t m_t across all leading dims;
    an all-zero mask gives a graph-connected 0.
    """
    target = np.asarray(target, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if pred.shape != target.shape or mask.shape != pred.shape[:-1]:
        raise ContractError(
            f"forecast_loss shapes disagree: pred {pred.shape}, target {target.shape}, mask {mask.shape}"
        )
    sq = T.square(pred - Tensor(target)).sum(axis=-1)
    return (sq * Tensor(mask)).sum() / max(float(mask.sum()), 1.0)


def rul_loss(pred: Tensor, target, lambda_late: float, lambda_early: float) -> Tensor:
    """Asymmetric squared hinge: late (over-)predictions cost more.

    mean over the batch of lambda_late*relu(pred-y)^2 + lambda_early*relu(y-pred)^2.
    """
    target = np.asarray(target, dtype=np.float64)
    if pred.size == 0:
        raise ContractError("rul_loss needs a nonempty batch")
    if pred.shape != target.shape:
        raise ContractError(f"rul_loss shapes disagree: pred {pred.shape}, target {target.shape}")
    diff = pred - Tensor(target)
    late = T.square(T.relu(diff))
    early = T.square(T.relu(-diff))
    return (lambda_late * late + lambda_early * early).mean()


def total_loss(components: dict, weights: LossWeights) -> Tensor:
    """w_state*L_state + w_degradation*L_degradation + w_forecast*L_forecast + w_rul*L_rul.

    Raises NumericError when a component or the weighted sum (0 * inf) is NaN.
    """
    for name, value in components.items():
        if np.isnan(value.data).any():
            raise NumericError(f"loss component {name!r} is NaN")
    w = {
        "state": weights.w_state,
        "degradation": weights.w_degradation,
        "forecast": weights.w_forecast,
        "rul": weights.w_rul,
    }
    unknown = set(components) - set(w)
    if unknown:
        raise ContractError(f"unknown loss components: {sorted(unknown)}")
    out = None
    for name, value in components.items():
        term = w[name] * value
        out = term if out is None else out + term
    if out is None:
        raise ContractError("total_loss needs at least one component")
    if np.isnan(out.data).any():
        raise NumericError("weighted total loss is NaN")
    return out


# -- evaluation metrics ---------------------------------------------------------


def rmse(pred, truth) -> float:
    pred, truth = _paired(pred, truth)
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def relative_error(pred, truth, eps: float = 1e-8) -> float:
    pred, truth = _paired(pred, truth)
    return float(np.mean(np.abs(pred - truth) / (truth + eps)))


def score(pred, truth) -> float:
    """Asymmetric exponential prognostic penalty summed over engines.

    Early predictions (pred <= truth) cost exp(-(pred-truth)/13) - 1;
    late ones cost exp((pred-truth)/10) - 1.
    """
    pred, truth = _paired(pred, truth)
    d = pred - truth
    early = np.expm1(-d / 13.0)
    late = np.expm1(d / 10.0)
    return float(np.where(d <= 0, early, late).sum())


def _paired(pred, truth):
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ContractError(f"metric shapes disagree: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise ContractError("metric needs a nonempty input")
    return pred, truth
