"""The four head losses, their weighted total, and the evaluation metrics.

Each head loss and their weighted total is one tape node, usable as a
training objective: its forward and backward run in numpy the expressions
of the taped graph it replaced, in the same order (a division as a product
with the reciprocal, a negation as a product with -1, reductions over
explicit axes), so values and gradients are bit-equal to that graph's,
whose ``_unbroadcast`` calls were identities.  The metrics operate on plain
numpy arrays.  Masked losses ignore padded horizon positions entirely:
garbage at masked slots cannot change the result.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import TrainConfig
from .errors import ContractError, NumericError
from .tensor import Tensor


@dataclass(frozen=True)
class LossWeights:
    """The head weights :func:`total_loss` reads, by default the config's;
    ``TrainConfig.validate`` checks them."""

    w_state: float = TrainConfig.w_state
    w_degradation: float = TrainConfig.w_degradation
    w_forecast: float = TrainConfig.w_forecast
    w_rul: float = TrainConfig.w_rul


def state_loss(logits: Tensor, targets, mask) -> Tensor:
    """Masked sparse categorical cross-entropy.

    ``logits`` is (..., H, K); ``targets`` holds class ids (..., H); ``mask``
    marks valid horizon steps; an all-zero mask gives a graph-connected 0.
    Log-probabilities come from a max-shifted log-softmax, never from
    exponentiated probabilities.
    """
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.float64)
    if targets.shape != logits.shape[:-1] or mask.shape != targets.shape:
        raise ContractError(
            f"state_loss shapes disagree: logits {logits.shape}, targets {targets.shape}, mask {mask.shape}"
        )
    if np.isnan(logits.data).any():
        raise NumericError("log_softmax input contains NaN")
    onehot = np.zeros(logits.shape)
    np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    scale = 1.0 / max(float(mask.sum()), 1.0)
    picked = (lp * onehot).sum(axis=-1)

    def grad_fn(g):
        g = (((g * scale) * -1.0) * mask)[..., None] * onehot
        return (g - np.exp(lp) * g.sum(axis=-1, keepdims=True),)

    return T._make(((picked * mask).sum(axis=_all(mask)) * -1.0) * scale, (logits,), grad_fn, "state_loss")


def degradation_loss(trend: Tensor, lambda_smooth: float) -> Tensor:
    """Monotonicity hinge plus smoothness penalty on consecutive differences.

    (sum max(0, -(y[t+1]-y[t])) + lambda * sum (y[t+1]-y[t])^2) / (H-1),
    averaged over any leading batch dimensions.
    """
    h = trend.shape[-1]
    if h < 2:
        raise ContractError(f"degradation_loss needs a horizon >= 2, got {h}")
    diffs = trend.data[..., 1:] - trend.data[..., :-1]
    falls = diffs * -1.0
    scale = 1.0 / float(h - 1)
    per_sample = (np.maximum(falls, 0.0).sum(axis=-1) + lambda_smooth * (diffs * diffs).sum(axis=-1)) * scale

    def grad_fn(g):
        g = ((g / per_sample.size) * scale)[..., None]
        g = (g * (falls > 0.0)) * -1.0 + ((g * lambda_smooth) * 2.0) * diffs
        later, earlier = np.zeros_like(trend.data), np.zeros_like(trend.data)
        later[..., 1:], earlier[..., :-1] = g, -g
        return (later + earlier,)

    return T._make(per_sample.mean(axis=_all(per_sample)), (trend,), grad_fn, "degradation_loss")


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
    diff = pred.data - target
    scale = 1.0 / max(float(mask.sum()), 1.0)

    def grad_fn(g):
        return ((((g * scale) * mask)[..., None] * 2.0) * diff,)

    return T._make(((diff * diff).sum(axis=-1) * mask).sum(axis=_all(mask)) * scale, (pred,), grad_fn, "forecast_loss")


def rul_loss(pred: Tensor, target, lambda_late: float, lambda_early: float) -> Tensor:
    """Asymmetric squared hinge: late (over-)predictions cost more.

    mean over the batch of lambda_late*relu(pred-y)^2 + lambda_early*relu(y-pred)^2.
    """
    target = np.asarray(target, dtype=np.float64)
    if pred.size == 0:
        raise ContractError("rul_loss needs a nonempty batch")
    if pred.shape != target.shape:
        raise ContractError(f"rul_loss shapes disagree: pred {pred.shape}, target {target.shape}")
    diff = pred.data - target
    rises = diff * -1.0
    late, early = np.maximum(diff, 0.0), np.maximum(rises, 0.0)

    def grad_fn(g):
        g = g / diff.size
        d_late = ((g * lambda_late) * 2.0 * late) * (diff > 0.0)
        d_early = (((g * lambda_early) * 2.0 * early) * (rises > 0.0)) * -1.0
        return (d_late + d_early,)

    per_sample = lambda_late * (late * late) + lambda_early * (early * early)
    return T._make(per_sample.mean(axis=_all(per_sample)), (pred,), grad_fn, "rul_loss")


def total_loss(components: dict, weights) -> Tensor:
    """w_state*L_state + w_degradation*L_degradation + w_forecast*L_forecast + w_rul*L_rul,
    the weights read from ``weights``, a ``LossWeights`` or a ``TrainConfig``.

    One tape node: its forward sums ``w * L`` in component order, each weight
    a 0-d float64, and its backward is ``g * w`` per component, bit-equal to
    the taped products and sums it replaced.  Raises NumericError when a
    component or the weighted sum (0 * inf) is NaN.
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
    if not components:
        raise ContractError("total_loss needs at least one component")
    scales = [np.asarray(w[name], dtype=np.float64) for name in components]
    out = None
    for scale, value in zip(scales, components.values()):
        term = scale * value.data
        out = term if out is None else out + term
    if np.isnan(out).any():
        raise NumericError("weighted total loss is NaN")
    return T._make(out, tuple(components.values()), lambda g: tuple(g * scale for scale in scales), "total_loss")


def _all(a: np.ndarray) -> tuple:
    """Every axis of ``a``: the taped graph reduced over this tuple, not None."""
    return tuple(range(a.ndim))


# -- evaluation metrics ---------------------------------------------------------


def rmse(pred, truth) -> float:
    pred, truth = _paired(pred, truth)
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def relative_error(pred, truth) -> float:
    pred, truth = _paired(pred, truth)
    return float(np.mean(np.abs(pred - truth) / (truth + 1e-8)))


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
