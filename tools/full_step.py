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

    python3 tools/full_step.py

After one human line it prints perfbench/run.py's two record lines: a
detail object with the run's provenance, then the result object, whose
four metrics are fwd_s, bwd_s, infer_s and ru_maxrss_mb.  Exits 1, and
the result is not correct, if the peak RSS exceeds 2000 MB.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BOUND_MB = 2000


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from run import limit_blas_threads, provenance  # perfbench/run.py

    load, nproc = os.getloadavg(), len(os.sched_getaffinity(0))
    blas_env = limit_blas_threads(nproc)  # before numpy is imported
    import numpy as np

    from earunet import losses, model, train
    from earunet.tensor import Tensor4

    cfg = model.preset_config("full")
    params = model.build_model(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    s = cfg.input_size
    x = Tensor4(rng.random((2, 1, s, s), dtype=np.float32))
    target = Tensor4((rng.random(x.dims) < 0.3).astype(np.float32))
    t0 = time.perf_counter()
    y, tape = model.forward_training(params, cfg, x, rng)
    t1 = time.perf_counter()
    _, grad = losses.combo_loss(y, target, train.LOSS)
    t2 = time.perf_counter()
    model.backward_from_context(params, tape, grad)
    t3 = time.perf_counter()
    mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    del y, tape, grad
    t4 = time.perf_counter()
    model.forward(params, cfg, x)
    t5 = time.perf_counter()
    over = mb > BOUND_MB
    print(f"full n=2 train step: fwd {t1 - t0:.2f} s, bwd {t3 - t2:.2f} s, ru_maxrss {mb:.0f} MB "
          f"(bound {BOUND_MB}); infer fwd {t5 - t4:.2f} s (not gated)")
    # after ru_maxrss is read: provenance imports scipy, which the step does not load
    print(json.dumps({"provenance": provenance(0, nproc, blas_env, load)}, sort_keys=True))
    metrics = {"fwd_s": {"value": t1 - t0, "unit": "s"},
               "bwd_s": {"value": t3 - t2, "unit": "s"},
               "infer_s": {"value": t5 - t4, "unit": "s"},
               "ru_maxrss_mb": {"value": mb, "unit": "MB"}}
    print(json.dumps({"correct": not over, "attempted": 1, "failed": int(over),
                      "metrics": metrics}))
    return int(over)


if __name__ == "__main__":
    sys.exit(main())
