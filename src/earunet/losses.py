"""Segmentation losses with analytic gradients.

Binary cross-entropy is the elementwise mean of -(y log p + (1-y) log(1-p))
with predictions clamped to [eps, 1-eps] before the logs.  Dice loss is
1 - (2*sum(y*p) + 1) / (sum(y) + sum(p) + 1) with the sums running over
the whole batch, so the empty-empty case is defined (loss 0).  All
reductions run in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .tensor import Tensor4

CLAMP_EPS = 1e-7

# (w_bce, w_dice) weight combinations, keyed "w_bce:w_dice"
LOSS_PRESETS = {
    "1:0": (1.0, 0.0),
    "0:1": (0.0, 1.0),
    "0.2:0.8": (0.2, 0.8),
    "0.5:0.5": (0.5, 0.5),
    "0.8:0.2": (0.8, 0.2),
    "1:1": (1.0, 1.0),
}


@dataclass(frozen=True)
class LossWeights:
    w_bce: float
    w_dice: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.w_bce) and math.isfinite(self.w_dice)):
            raise ParameterError(f"loss weights must be finite, got {self}")
        if self.w_bce < 0 or self.w_dice < 0:
            raise ParameterError(f"loss weights must be non-negative, got {self}")
        if self.w_bce + self.w_dice <= 0:
            raise ParameterError("at least one loss weight must be positive")


def _check_pair(pred: Tensor4, target: Tensor4) -> None:
    if pred.dims != target.dims:
        raise ShapeError(f"pred dims {pred.dims} do not match target dims {target.dims}")


def bce_loss(pred: Tensor4, target: Tensor4) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient w.r.t. pred."""
    _check_pair(pred, target)
    p = pred.data.astype(np.float64)
    y = target.data.astype(np.float64)
    pc = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)
    n = p.size
    loss = float(np.mean(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))))
    inside = (p > CLAMP_EPS) & (p < 1.0 - CLAMP_EPS)
    grad = np.where(inside, ((1.0 - y) / (1.0 - pc) - y / pc) / n, 0.0)
    return loss, grad.astype(pred.data.dtype)


def dice_loss(pred: Tensor4, target: Tensor4) -> tuple[float, np.ndarray]:
    """Batch-aggregated Dice loss (smoothing constant 1) and its gradient."""
    _check_pair(pred, target)
    p = pred.data.astype(np.float64)
    y = target.data.astype(np.float64)
    num = 2.0 * float(np.sum(y * p)) + 1.0
    den = float(np.sum(y)) + float(np.sum(p)) + 1.0
    loss = 1.0 - num / den
    grad = -(2.0 * y * den - num) / (den * den)
    return loss, grad.astype(pred.data.dtype)


def combo_loss(
    pred: Tensor4, target: Tensor4, w: LossWeights
) -> tuple[float, np.ndarray]:
    """Weighted sum w_bce*BCE + w_dice*DL; gradient combines linearly."""
    _check_pair(pred, target)
    loss = 0.0
    grad = np.zeros_like(pred.data)
    if w.w_bce:
        lb, gb = bce_loss(pred, target)
        loss += w.w_bce * lb
        grad += np.asarray(w.w_bce, dtype=grad.dtype) * gb
    if w.w_dice:
        ld, gd = dice_loss(pred, target)
        loss += w.w_dice * ld
        grad += np.asarray(w.w_dice, dtype=grad.dtype) * gd
    return loss, grad
