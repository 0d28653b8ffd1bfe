"""sha256 digests of what the model builds and computes, for a same-bytes check.

Prints one line per preset and part:

- ``params``: every parameter array that ``build_model`` draws (seed 0,
  float32), with its name, dtype and shape;
- ``infer`` (``desk``, n=16): the infer output, after every running
  statistic is drawn at random so that the folded batch norms do work;
- ``train.*`` (``desk`` n=8 and ``micro`` n=4): one train step through
  ``combo_loss`` at ``train.LOSS`` (1:1) and ``backward_from_context``:
  its output, loss, input gradient, every parameter gradient and every
  running statistic after the step;
- ``train.adam`` (``micro`` n=4): the trainable arrays and the Adam moments
  after three ``train_step`` + ``adam_step`` steps.

Run from the repository root:

    PYTHONPATH=src python3 tools/digest.py

A refactor that claims the same bytes prints the same lines before and
after it.  The package on PYTHONPATH is the one digested (``src`` of this
checkout when none is), so the parent's is compared by pointing PYTHONPATH
at its ``src``.  Compare at one BLAS thread count: the float32 sums of a
gemm, and so the bytes, differ between thread counts.
"""

import hashlib
import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from earunet import losses, model, train  # noqa: E402
from earunet.checkpoint import AdamMoments  # noqa: E402
from earunet.tensor import Tensor4  # noqa: E402


def sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def named_arrays(arrays: dict) -> str:
    return sha(*(p for k, a in arrays.items() for p in (f"{k} {a.dtype} {a.shape}\n", a)))


def running_stats(params) -> dict:
    return {k: a for k, a in model.named_state(params).items() if ".running_" in k}


def infer_digest(preset: str, n: int) -> str:
    cfg = model.preset_config(preset)
    params = model.build_model(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    for k, a in running_stats(params).items():
        a[...] = rng.uniform(0.5, 2.0, a.shape) if k.endswith("var") else rng.normal(0, 0.1, a.shape)
    s = cfg.input_size
    x = Tensor4(rng.random((n, 1, s, s), dtype=np.float32))
    return sha(model.forward(params, cfg, x).data)


def train_digests(preset: str, n: int) -> dict[str, str]:
    cfg = model.preset_config(preset)
    params = model.build_model(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    s = cfg.input_size
    x = Tensor4(rng.random((n, 1, s, s), dtype=np.float32))
    target = Tensor4((rng.random(x.dims) < 0.3).astype(np.float32))
    y, tape = model.forward_training(params, cfg, x, rng)
    loss, grad = losses.combo_loss(y, target, train.LOSS)
    grads, gx = model.backward_from_context(params, tape, grad)
    return {
        "train.output": sha(y.data),
        "train.loss": sha(np.float64(loss)),
        "train.input_grad": sha(gx),
        "train.param_grads": named_arrays(grads),
        "train.running_stats": named_arrays(running_stats(params)),
    }


def adam_digest(preset: str, n: int) -> str:
    cfg = model.preset_config(preset)
    params = model.build_model(cfg, np.random.default_rng(0))
    trainable, moments = model.named_trainable(params), AdamMoments()
    rng = np.random.default_rng(1)
    s = cfg.input_size
    for _ in range(3):
        x = rng.random((n, 1, s, s), dtype=np.float32)
        target = (rng.random(x.shape) < 0.3).astype(np.float32)
        train.adam_step(trainable, train.train_step(params, cfg, x, target, rng)[1], moments)
    return sha(named_arrays(trainable), named_arrays(moments.m), named_arrays(moments.v))


def main() -> None:
    for preset in ("micro", "desk"):
        params = model.build_model(model.preset_config(preset), np.random.default_rng(0))
        print(preset, "params", named_arrays(model.named_state(params)))
    print("desk", "infer", infer_digest("desk", 16))
    for preset, n in (("desk", 8), ("micro", 4)):
        for part, digest in train_digests(preset, n).items():
            print(preset, part, digest)
    print("micro", "train.adam", adam_digest("micro", 4))


if __name__ == "__main__":
    main()
