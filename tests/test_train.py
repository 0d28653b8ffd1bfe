"""Training end to end: the kernels, batch-norm statistics, augmentation and
loss together make a model learn."""

import importlib.util
from pathlib import Path

import numpy as np

from earunet import augment
from earunet import model as M
from earunet.losses import LossWeights, combo_loss
from earunet.preprocess import preprocess_case
from earunet.tensor import Tensor4
from earunet.volumes import CtVolume, LabelVolume

# loaded by path: perfbench/ on sys.path would shadow tests/oracles.py
_spec = importlib.util.spec_from_file_location(
    "phantoms", Path(__file__).resolve().parent.parent / "perfbench" / "phantoms.py")
phantoms = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(phantoms)

SPACING = (2.5, 1.0, 1.0)


def phantom_pairs(seed: int) -> list:
    """The 98 preprocessed 32x32 slice pairs of one 40x128x128 phantom."""
    vox, mask = phantoms.ct_phantom(np.random.default_rng(seed), (40, 128, 128), SPACING)
    return preprocess_case(CtVolume(vox, SPACING), LabelVolume(mask, SPACING), str(seed), size=32)


def adam(arrays: dict, grads: dict, m: dict, v: dict, t: int, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """One bias-corrected Adam step (Kingma & Ba, arXiv:1412.6980), in place."""
    for k, a in arrays.items():
        g = grads[k]
        m[k] *= b1
        m[k] += (1 - b1) * g
        v[k] *= b2
        v[k] += (1 - b2) * g * g
        a -= (lr * (m[k] / (1 - b1**t)) / (np.sqrt(v[k] / (1 - b2**t)) + eps)).astype(a.dtype)


def test_micro_learns_to_segment_a_held_out_phantom():
    """100 Adam steps of batch 8 on two phantoms; pooled Dice on a third.

    The bar is 0.75: liver is 45% of the held-out pixels, so an all-liver
    mask scores 0.623, and untrained micro nets score 0.42-0.67 (seeds 0-3).
    Seeds 0-3 reach 0.80-0.88 at step 100.  With frozen running statistics
    (BN momentum 0) infer normalizes with the initial ones and this reaches
    only 0.62."""
    cfg = M.preset_config("micro")
    params = M.build_model(cfg, np.random.default_rng(0))
    train = phantom_pairs(1) + phantom_pairs(2)
    held_out = phantom_pairs(99)
    assert (len(train), len(held_out)) == (196, 98)

    trainable = M.named_trainable(params)
    m = {k: np.zeros_like(a) for k, a in trainable.items()}
    v = {k: np.zeros_like(a) for k, a in trainable.items()}
    specs = augment.all_augmentations()
    rng = np.random.default_rng(5)
    for t in range(1, 101):
        picks = rng.integers(len(train), size=8)
        batch = [augment.augment(train[i], specs[rng.integers(len(specs))], rng) for i in picks]
        x = Tensor4(np.stack([p.image for p in batch])[:, None])
        target = Tensor4(np.stack([p.mask for p in batch])[:, None].astype(np.float32))
        pred, tape = M.forward_training(params, cfg, x, rng)
        _, grad = combo_loss(pred, target, LossWeights(1.0, 1.0))
        grads, _ = M.backward_from_context(params, tape, grad)
        adam(trainable, grads, m, v, t)

    images = np.stack([p.image for p in held_out])[:, None]
    probs = np.concatenate([M.forward(params, cfg, Tensor4(images[i : i + 32])).data
                            for i in range(0, len(images), 32)])
    pred = probs[:, 0] > 0.5
    truth = np.stack([p.mask for p in held_out]).astype(bool)
    dice = 2 * np.count_nonzero(pred & truth) / (np.count_nonzero(pred) + np.count_nonzero(truth))
    assert dice >= 0.75, dice
