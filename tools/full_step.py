"""One paper-scale train step: the `full` preset at batch 2, in this process.

No benchmark workload runs at this scale.  The step builds the model
(seed 0), draws an input and a target (rng 1), and times the train
forward and the backward; it then reads the process's peak RSS and times
one infer forward, which is printed but not gated.  The tape keeps each
conv unit's BN-normalized input and recomputes activations, SE products
and decoder concats in backward; keeping the swish units' (xh, s, y)
peaked at 2680 MB.

Run from the repository root, in a fresh process so that ru_maxrss is
this step's peak:

    PYTHONPATH=src python3 tools/full_step.py

Exits 1 if the peak RSS exceeds 2000 MB.
"""

import resource
import sys
import time

import numpy as np

from earunet import losses, model
from earunet.tensor import Tensor4

BOUND_MB = 2000


def main() -> int:
    cfg = model.preset_config("full")
    params = model.build_model(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    s = cfg.input_size
    x = Tensor4(rng.random((2, 1, s, s), dtype=np.float32))
    target = Tensor4((rng.random(x.dims) < 0.3).astype(np.float32))
    t0 = time.perf_counter()
    y, tape = model.forward_training(params, cfg, x, rng)
    t1 = time.perf_counter()
    _, grad = losses.combo_loss(y, target, losses.LossWeights(1.0, 1.0))
    t2 = time.perf_counter()
    model.backward_from_context(params, tape, grad)
    t3 = time.perf_counter()
    mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    del y, tape, grad
    t4 = time.perf_counter()
    model.forward(params, cfg, x)
    t5 = time.perf_counter()
    print(f"full n=2 train step: fwd {t1 - t0:.2f} s, bwd {t3 - t2:.2f} s, ru_maxrss {mb:.0f} MB "
          f"(bound {BOUND_MB}); infer fwd {t5 - t4:.2f} s (not gated)")
    return int(mb > BOUND_MB)


if __name__ == "__main__":
    sys.exit(main())
