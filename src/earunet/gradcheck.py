"""Central finite-difference verification of the model's analytic gradients.

``check_model`` compares sampled entries of every trainable tensor of the
assembled network against central differences in float64 (the kernels and
blocks have their own oracles in the test suite).  Relative error uses a
magnitude floor so near-zero entries are judged absolutely at floor scale.

Each sampled entry is checked at two step sizes: when the two estimates
disagree the function is not locally smooth there (a relu kink moved
across zero) and the entry is re-sampled, since finite differences carry
no information at a kink.  Smooth entries dominate, so the filter rarely
triggers.

``python -m earunet.gradcheck`` checks all of the ``micro`` preset, prints
the report and exits 1 unless it passed.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from . import model as M
from . import tensor as T

TOL = 1e-3
FLOOR = 1e-2


@dataclass
class CheckReport:
    max_rel_err: float = 0.0
    worst: str = ""
    checked: int = 0
    skipped: int = 0
    seconds: float = 0.0

    def merge(self, name: str, err: float) -> None:
        if err > self.max_rel_err:
            self.max_rel_err = err
            self.worst = name

    @property
    def passed(self) -> bool:
        return self.max_rel_err < TOL


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), FLOOR)


def _fd(loss, arr: np.ndarray, idx: int, step: float) -> float:
    orig = arr.flat[idx]
    arr.flat[idx] = orig + step
    fp = loss()
    arr.flat[idx] = orig - step
    fm = loss()
    arr.flat[idx] = orig
    return (fp - fm) / (2.0 * step)


def check_entries(
    report: CheckReport,
    name: str,
    loss,
    arr: np.ndarray,
    analytic: np.ndarray,
    rng: np.random.Generator,
    entries: int,
    step: float,
) -> None:
    """Compare sampled entries of `analytic` against filtered central FD."""
    size = arr.size
    want = min(entries, size)
    done = 0
    for idx in (range(size) if want == size else rng.permutation(size))[:4 * want]:
        fd1 = _fd(loss, arr, idx, step)
        fd2 = _fd(loss, arr, idx, step / 2.0)
        scale = max(abs(analytic.flat[idx]), abs(fd2), FLOOR)
        if abs(fd1 - fd2) > 0.1 * TOL * scale:
            report.skipped += 1  # not locally smooth; FD carries no information
            continue
        report.merge(name, _rel(float(analytic.flat[idx]), fd2))
        report.checked += 1
        done += 1
        if done == want:
            break


# ---------------------------------------------------------------------------
# full model

MODEL_STEP = 1e-5
MODEL_SEED = 0  # weights, input, output gradient and sampled entries
MODEL_BATCH = 2  # two images, so train-mode batch norm has batch statistics


def check_model(
    cfg: M.ModelConfig,
    tensors: int | None = None,
    entries_per_tensor: int = 3,
) -> CheckReport:
    """Check sampled entries of every trainable tensor of the full model.

    `tensors` limits how many parameter tensors are inspected (None: all).
    """
    t0 = time.time()
    report = CheckReport()
    rng = np.random.default_rng(MODEL_SEED)
    params = M.build_model(cfg, np.random.default_rng(MODEL_SEED), dtype=np.float64)
    shape = (MODEL_BATCH, 1, cfg.input_size, cfg.input_size)
    x = T.Tensor4(rng.random(shape))
    go = rng.standard_normal(shape)
    drop_seed = MODEL_SEED + 1

    _, ctx = M.forward_training(params, cfg, x, np.random.default_rng(drop_seed))
    grads, _ = M.backward_from_context(params, ctx, go)

    def loss():
        y = M.forward(params, cfg, x, T.TRAIN, np.random.default_rng(drop_seed))
        return float(np.sum(go * y.data))

    trainable = M.named_trainable(params)
    names = list(trainable)
    if tensors is not None and tensors < len(names):
        picked = rng.permutation(len(names))[:tensors]
        names = [names[i] for i in sorted(picked)]
    for name in names:
        check_entries(report, name, loss, trainable[name], grads[name], rng,
                      entries_per_tensor, MODEL_STEP)

    report.seconds = time.time() - t0
    return report


if __name__ == "__main__":
    r = check_model(M.preset_config("micro"))
    print("max rel err:", r.max_rel_err, "worst:", r.worst, "checked:", r.checked,
          "skipped:", r.skipped, "seconds:", round(r.seconds, 1))
    sys.exit(not r.passed)
