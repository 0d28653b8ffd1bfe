"""Training end to end: the kernels, batch-norm statistics, augmentation and
loss together make a model learn, Adam matches its textbook form, and a run
resumed from a checkpoint repeats the unbroken run's bytes."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from earunet import augment, losses
from earunet import model as M
from earunet.checkpoint import AdamMoments, Checkpoint, load_checkpoint, restore_params, save_checkpoint
from earunet.errors import ParameterError
from earunet.preprocess import preprocess_case
from earunet.tensor import Tensor4
from earunet.train import adam_step, train_step
from earunet.volumes import CtVolume, LabelVolume
from oracles import adam_naive

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
    moments = AdamMoments()
    specs = augment.all_augmentations()
    rng = np.random.default_rng(5)
    for _ in range(100):
        picks = rng.integers(len(train), size=8)
        batch = [augment.augment(train[i], specs[rng.integers(len(specs))], rng) for i in picks]
        x = np.stack([p.image for p in batch])[:, None]
        target = np.stack([p.mask for p in batch])[:, None].astype(np.float32)
        _, grads, _ = train_step(params, cfg, x, target, rng)
        adam_step(trainable, grads, moments)

    images = np.stack([p.image for p in held_out])[:, None]
    probs = np.concatenate([M.forward(params, cfg, Tensor4(images[i : i + 32])).data
                            for i in range(0, len(images), 32)])
    pred = probs[:, 0] > 0.5
    truth = np.stack([p.mask for p in held_out]).astype(bool)
    dice = 2 * np.count_nonzero(pred & truth) / (np.count_nonzero(pred) + np.count_nonzero(truth))
    assert dice >= 0.75, dice


def test_train_step_calls_through_the_module_attributes(monkeypatch):
    # a tracer patches these attributes; a step that bound them at import
    # would run dark under it
    calls = []
    for mod, name in ((M, "forward_training"), (losses, "combo_loss"), (M, "backward_from_context")):
        def counted(*args, _f=getattr(mod, name), _name=name):
            calls.append(_name)
            return _f(*args)

        monkeypatch.setattr(mod, name, counted)
    cfg = M.preset_config("micro")
    params = M.build_model(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    x = rng.random((2, 1, 32, 32), dtype=np.float32)
    loss, grads, probs = train_step(params, cfg, x, (x > 0.5).astype(np.float32), rng)
    assert calls == ["forward_training", "combo_loss", "backward_from_context"]
    assert grads.keys() == M.named_trainable(params).keys() and probs.shape == x.shape


@pytest.mark.parametrize("t", [1, 3])
def test_adam_step_matches_the_textbook_oracle(t):
    # at t = 1 bias correction scales the step by sqrt(1 - b2) / (1 - b1),
    # about 0.32, so a step without it is off by ~2e-3, far above atol
    rng = np.random.default_rng(t)
    trainable = {"w": rng.standard_normal((4, 3)).astype(np.float32),
                 "b": rng.standard_normal(5).astype(np.float32)}
    grads = {k: rng.standard_normal(a.shape).astype(np.float32) for k, a in trainable.items()}
    moments = AdamMoments()
    if t > 1:  # the moments after step t - 1
        moments = AdamMoments(t - 1, {k: 0.1 * g for k, g in grads.items()},
                              {k: (0.01 * g * g).astype(np.float32) for k, g in grads.items()})
    zeros = {k: np.zeros_like(a) for k, a in trainable.items()}
    want = {k: adam_naive(a, grads[k], moments.m.get(k, zeros[k]), moments.v.get(k, zeros[k]), t)
            for k, a in trainable.items()}
    adam_step(trainable, grads, moments)
    assert moments.t == t
    for k, (a, m, v) in want.items():
        assert trainable[k].dtype == moments.m[k].dtype == moments.v[k].dtype == np.float32
        np.testing.assert_allclose(trainable[k], a, rtol=0, atol=1e-6)
        np.testing.assert_allclose(moments.m[k], m, rtol=1e-6)
        np.testing.assert_allclose(moments.v[k], v, rtol=1e-6)


@pytest.mark.parametrize(
    "grads,moments,match",
    [
        ({"w": np.ones(2)}, AdamMoments(), "grads .*'b'"),
        ({"w": np.ones(2), "b": np.ones(1)}, AdamMoments(1, {"w": np.ones(2)}, {"w": np.ones(2)}),
         "moments.m .*'b'"),
        ({"w": np.ones(2), "b": np.ones(1), "c": np.ones(1)}, AdamMoments(), "grads .*'c'"),
    ],
    ids=["grad-missing", "moment-missing", "grad-extra"],
)
def test_adam_step_names_the_array_it_cannot_step(grads, moments, match):
    trainable = {"w": np.zeros(2), "b": np.zeros(1)}
    with pytest.raises(ParameterError, match=match):
        adam_step(trainable, grads, moments)
    assert not trainable["w"].any() and not trainable["b"].any()


def _steps(params, cfg, moments: AdamMoments, rng: np.random.Generator, n: int) -> None:
    """n steps of batch 8 on random inputs drawn from the step rng."""
    trainable = M.named_trainable(params)
    for _ in range(n):
        x = rng.random((8, 1, cfg.input_size, cfg.input_size), dtype=np.float32)
        target = (rng.random(x.shape) < 0.4).astype(np.float32)
        adam_step(trainable, train_step(params, cfg, x, target, rng)[1], moments)


def test_resume_from_a_checkpoint_repeats_the_unbroken_run(tmp_path):
    cfg = M.preset_config("micro")
    straight, straight_moments, straight_rng = (
        M.build_model(cfg, np.random.default_rng(0)), AdamMoments(), np.random.default_rng(7))
    _steps(straight, cfg, straight_moments, straight_rng, 6)

    first, moments, rng = M.build_model(cfg, np.random.default_rng(0)), AdamMoments(), np.random.default_rng(7)
    _steps(first, cfg, moments, rng, 3)
    path = tmp_path / "step3.ckpt"
    save_checkpoint(Checkpoint(cfg, M.named_state(first), moments, rng.bit_generator.state, epoch=3), path)
    ckpt = load_checkpoint(path)
    resumed = M.build_model(ckpt.config, np.random.default_rng(1))
    restore_params(M.named_state(resumed), ckpt)
    rng = np.random.default_rng(2)
    rng.bit_generator.state = ckpt.rng_state
    assert ckpt.epoch == 3 and ckpt.moments.t == 3
    _steps(resumed, cfg, ckpt.moments, rng, 3)

    def same(a: dict, b: dict) -> bool:
        return a.keys() == b.keys() and all(
            a[k].dtype == b[k].dtype and a[k].tobytes() == b[k].tobytes() for k in a)

    assert same(M.named_state(resumed), M.named_state(straight))
    assert same(ckpt.moments.m, straight_moments.m) and same(ckpt.moments.v, straight_moments.v)
    assert ckpt.moments.t == straight_moments.t == 6
    assert rng.random() == straight_rng.random()
