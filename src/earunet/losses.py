"""The segmentation loss, w_bce*BCE + w_dice*DL, with its analytic gradient.

Binary cross-entropy is the elementwise mean of -(y log p + (1-y) log(1-p))
with predictions clamped to [eps, 1-eps] before the logs; a clamped pixel
gets no BCE gradient.  Dice loss (Milletari et al., arXiv:1606.04797) is
1 - (2*sum(y*p) + 1) / (sum(y) + sum(p) + 1) with the sums running over
the whole batch, so the empty-empty case is defined (loss 0).  All
reductions run in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParameterError, ShapeError
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


def combo_loss(
    pred: Tensor4, target: Tensor4, w: LossWeights
) -> tuple[float, np.ndarray]:
    """Weighted sum w_bce*BCE + w_dice*DL and its gradient w.r.t. pred, in
    pred's dtype; a term whose weight is 0 is not computed.  pred and target
    must have equal dims and be non-empty, finite and in [0, 1]."""
    if pred.dims != target.dims:
        raise ShapeError(f"pred dims {pred.dims} do not match target dims {target.dims}")
    p = pred.data.astype(np.float64)
    y = target.data.astype(np.float64)
    for name, a in (("pred", p), ("target", y)):
        # written so that NaN fails the test too
        if not (a.size and a.min() >= 0.0 and a.max() <= 1.0):
            raise InputError(f"combo_loss: {name} must be non-empty, finite and in [0, 1]")
    loss = 0.0
    grad = np.zeros_like(pred.data)
    if w.w_bce:
        pc = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)
        n = p.size
        loss += w.w_bce * float(np.mean(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))))
        inside = (p > CLAMP_EPS) & (p < 1.0 - CLAMP_EPS)
        gb = np.where(inside, ((1.0 - y) / (1.0 - pc) - y / pc) / n, 0.0)
        grad += np.asarray(w.w_bce, dtype=grad.dtype) * gb.astype(grad.dtype)
    if w.w_dice:
        num = 2.0 * float(np.sum(y * p)) + 1.0
        den = float(np.sum(y)) + float(np.sum(p)) + 1.0
        loss += w.w_dice * (1.0 - num / den)
        gd = -(2.0 * y * den - num) / (den * den)
        grad += np.asarray(w.w_dice, dtype=grad.dtype) * gd.astype(grad.dtype)
    return loss, grad
