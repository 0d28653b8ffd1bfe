"""One training step and its optimizer.

``train_step`` is the body of a training loop: a train-mode forward, the
1:1 combo loss and the backward of its tape.  ``adam_step`` is
bias-corrected Adam (Kingma & Ba, arXiv:1412.6980) over the named
trainable arrays.  Its state is the checkpoint's ``AdamMoments``, so a run
resumes through ``Checkpoint``: save ``named_state``, the moments, the
step rng's ``bit_generator.state`` and the epoch; after ``restore_params``
and putting the rng state back, the next step gives the same bytes as an
unbroken run.

The model and loss are called through their module attributes, so a
tracer that patches those attributes sees every call.
"""

from __future__ import annotations

import numpy as np

from . import losses, model
from .checkpoint import AdamMoments
from .errors import ParameterError
from .tensor import Tensor4

LR = 1e-3
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8
LOSS = losses.LossWeights(*losses.LOSS_PRESETS["1:1"])


def train_step(params: model.ModelParams, cfg: model.ModelConfig, x: np.ndarray,
               target: np.ndarray, rng: np.random.Generator):
    """(loss, grads, probs) of one step on the (N, 1, H, W) batch ``x``: the
    grads are named as ``named_trainable``, ``rng`` draws stochastic depth,
    and the running statistics move once."""
    y, tape = model.forward_training(params, cfg, Tensor4(x), rng)
    loss, grad = losses.combo_loss(y, Tensor4(target), LOSS)
    grads, _ = model.backward_from_context(params, tape, grad)
    return loss, grads, y.data


def adam_step(trainable: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              moments: AdamMoments) -> None:
    """One Adam step on ``trainable``, in place, advancing ``moments.t``.
    Empty moments at t == 0 start from zeros.  Raises ParameterError naming
    the first array that the grads or moments lack or have beyond
    ``trainable``."""
    fresh = moments.t == 0 and not moments.m and not moments.v
    m = {k: np.zeros_like(a) for k, a in trainable.items()} if fresh else moments.m
    v = {k: np.zeros_like(a) for k, a in trainable.items()} if fresh else moments.v
    for what, group in (("grads", grads), ("moments.m", m), ("moments.v", v)):
        if group.keys() != trainable.keys():
            odd = next(k for k in [*trainable, *group] if (k in trainable) != (k in group))
            raise ParameterError(f"{what} do not name exactly the trainable arrays: {odd!r}")
    moments.m, moments.v = m, v
    moments.t += 1
    c1, c2 = 1 - BETA1**moments.t, 1 - BETA2**moments.t
    for k, a in trainable.items():
        g = grads[k]
        m[k] *= BETA1
        m[k] += (1 - BETA1) * g
        v[k] *= BETA2
        v[k] += (1 - BETA2) * g * g
        a -= (LR * (m[k] / c1) / (np.sqrt(v[k] / c2) + EPS)).astype(a.dtype)
