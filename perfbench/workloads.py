"""The benchmark workloads.

Each workload has three phases:

* ``prepare(work_dir, seed)`` writes the seeded inputs and computes
  scoring inputs; it is neither timed nor traced;
* ``setup()`` is the timed set-up (``run.py`` times the import):
  checkpoint load and model build, ``preprocess_case`` where training
  needs slices, and a warm-up call;
* ``ops()`` returns one cycle of operations.  ``run.py`` times each
  ``Op.run`` and calls ``Op.check`` on its result outside the timed region.

Every operation's check compares a summary of its output (input sums,
probability sum, foreground count, loss, per-array gradient norms) with
``refs[key]``.  In a measured run ``refs`` starts empty and fills with
the first value seen, so repeats of a volume or step must agree.  The
canary is a fresh instance prepared with ``CANARY_SEED`` whose ``refs``
come from ``reference.json``, so the whole pipeline, from the CT file to
the loss and gradients, must reproduce committed values.

All calls into the program go through module attributes
(``model.forward``, not ``from earunet.model import forward``) so the
tracer's wrappers see them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
import phantoms
from earunet import augment, checkpoint, losses, metrics, model, preprocess, volume_io
from earunet.tensor import INFER, Tensor4
from earunet.volumes import CtVolume, LabelVolume

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# Seed of the canary inputs whose outputs reference.json holds.
CANARY_SEED = 0
LOSS = losses.LossWeights(*losses.LOSS_PRESETS["1:1"])


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    slices: int  # 2-D slices this operation processes


class Workload:
    """Base of the workloads; BENCHMARK.json says why each exists."""

    name = ""

    def __init__(self) -> None:
        self.stats: dict = {}  # per-run observations, e.g. foreground fractions
        self.refs: dict = {}  # expected output summary per key (see module doc)
        self.seen: set[str] = set()  # keys checked so far

    def prepare(self, work_dir: Path, seed: int) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def model_params(self):
        """The live model parameters, for the tracer's layer map."""
        return getattr(self, "params", None)

    def expect(self, key: str, got: dict) -> list[str]:
        """Compare `got` with refs[key]; store it if there is none yet."""
        self.seen.add(key)
        if key not in self.refs:
            self.refs[key] = got
            return []
        return oracles.compare_summary(got, self.refs[key], key)


def canary(name: str, work_dir: Path) -> list[str]:
    """Run one cycle of workload `name` on the canary inputs and compare
    every output with reference.json."""
    wl = WORKLOADS[name]()
    wl.prepare(work_dir, CANARY_SEED)
    reference = json.loads(REFERENCE_PATH.read_text())[name]
    wl.refs = dict(reference)
    wl.setup()
    errors = []
    for op in wl.ops():
        errors += op.check(op.run())
    if wl.seen != set(reference):
        errors.append(f"canary checked {sorted(wl.seen)}, reference has {sorted(reference)}")
    return errors


def _load_model(path: Path):
    ck = checkpoint.load_checkpoint(path)
    params = model.build_model(ck.config, np.random.default_rng(1))
    checkpoint.restore_params(model.named_state(params), ck)
    return ck.config, params


def _train_step(params, cfg, x: np.ndarray, target: np.ndarray, rng: np.random.Generator):
    y, ctx = model.forward_training(params, cfg, Tensor4(x), rng)
    loss, grad = losses.combo_loss(y, Tensor4(target), LOSS)
    grads, _ = model.backward_from_context(params, ctx, grad)
    return loss, grads, y.data


# ---------------------------------------------------------------------------


class SegmentVolume(Workload):
    """CT file -> preprocess -> desk forward -> mask file + MetricReport."""

    # (in-plane size, slices, slice spacing mm).  In-plane size and z-ratio
    # vary the preprocessing; the slice counts give every volume about the
    # same total time (~1.9 s on a 2-vCPU VM), so the median volume time is
    # a central value, not the gap between a fast and a slow group.
    VOLUMES = ((512, 31, 2.5), (384, 20, 5.0), (512, 21, 4.0), (384, 32, 3.0))
    FOV_MM = 384.0
    SIZE = 64
    BATCH = 16

    name = "segment_volume"

    def prepare(self, work_dir: Path, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.ckpt_path = work_dir / "desk.ckpt"
        checkpoint.save_checkpoint(phantoms.random_init_checkpoint("desk"), self.ckpt_path)
        self.cases = []
        for k, (hw, d, sz) in enumerate(self.VOLUMES):
            spacing = (sz, self.FOV_MM / hw, self.FOV_MM / hw)
            vox, mask = phantoms.ct_phantom(rng, (d, hw, hw), spacing)
            ct_path, gt_path = work_dir / f"ct{k}.nii", work_dir / f"gt{k}.nii"
            volume_io.write_nifti(CtVolume(vox, spacing), ct_path)
            volume_io.write_nifti(LabelVolume(mask, spacing), gt_path)
            # score at the preprocessed grid
            gt = volume_io.read_volume(gt_path)
            gt = preprocess.resize_slices(preprocess.resample_z(gt, kind="nearest"), self.SIZE)
            self.cases.append((ct_path, gt, work_dir / f"pred{k}.nii"))
        self.stats = {"fg_frac": []}

    def setup(self) -> None:
        self.cfg, self.params = _load_model(self.ckpt_path)
        self.rng = np.random.default_rng(0)
        warm = np.zeros((self.BATCH, 1, self.SIZE, self.SIZE), dtype=np.float32)
        model.forward(self.params, self.cfg, Tensor4(warm), INFER, self.rng)

    def _segment(self, ct_path: Path, gt: LabelVolume, out_path: Path):
        pv = preprocess.preprocess_volume(volume_io.read_volume(ct_path), size=self.SIZE)
        d = pv.dims[0]
        probs = np.empty((d, self.SIZE, self.SIZE), dtype=np.float32)
        for b in range(0, d, self.BATCH):
            x = Tensor4(pv.voxels[b : b + self.BATCH, None])
            probs[b : b + self.BATCH] = model.forward(self.params, self.cfg, x, INFER, self.rng).data[:, 0]
        mask = LabelVolume((probs > 0.5).astype(np.uint8), pv.spacing)
        volume_io.write_nifti(mask, out_path)
        return pv, probs, mask, metrics.evaluate_case(mask, gt)

    def _check(self, key: str, gt: LabelVolume, out_path: Path, out) -> list[str]:
        pv, probs, mask, report = out
        errors = oracles.check_probabilities(probs)
        errors += oracles.check_written_mask(volume_io.read_volume(out_path), mask)
        if mask.dims != gt.dims:
            return errors + [f"mask dims {mask.dims} != ground truth {gt.dims}"]
        errors += oracles.compare_report(
            report, oracles.expected_report(mask.voxels, gt.voxels, gt.spacing)
        )
        summary = {**oracles.input_summary(pv.voxels), **oracles.prediction_summary(probs)}
        errors += self.expect(key, summary)
        self.stats["fg_frac"].append(summary["fg"] / summary["voxels"])
        return errors

    def ops(self) -> list[Op]:
        out = []
        for k, (ct_path, gt, pred_path) in enumerate(self.cases):
            out.append(Op(
                f"volume{k}",
                lambda c=ct_path, g=gt, p=pred_path: self._segment(c, g, p),
                lambda res, k=k, g=gt, p=pred_path: self._check(f"volume{k}", g, p, res),
                gt.dims[0],
            ))
        return out


class TrainDesk(Workload):
    """desk training: one operation is STEPS train steps (augment ->
    forward_training -> combo loss -> backward) and one checkpoint save,
    so the save is inside every timed operation."""

    BATCH = 8
    STEPS = 5
    SIZE = 64

    name = "train_desk"

    def prepare(self, work_dir: Path, seed: int) -> None:
        rng = np.random.default_rng(seed)
        spacing = (2.5, 1.0, 1.0)
        vox, mask = phantoms.ct_phantom(rng, (40, 384, 384), spacing)
        self.ct_path, self.gt_path = work_dir / "ct.nii", work_dir / "gt.nii"
        volume_io.write_nifti(CtVolume(vox, spacing), self.ct_path)
        volume_io.write_nifti(LabelVolume(mask, spacing), self.gt_path)
        self.ckpt_path = work_dir / "desk.ckpt"
        self.save_path = work_dir / "train.ckpt"
        checkpoint.save_checkpoint(phantoms.random_init_checkpoint("desk"), self.ckpt_path)
        self.seed = seed
        specs = augment.all_augmentations()
        self.plan = [
            [(int(rng.integers(1 << 30)), specs[(s * self.BATCH + j) % len(specs)]) for j in range(self.BATCH)]
            for s in range(self.STEPS)
        ]

    def setup(self) -> None:
        ct = volume_io.read_volume(self.ct_path)
        gt = volume_io.read_volume(self.gt_path)
        self.pairs = preprocess.preprocess_case(ct, gt, "phantom", size=self.SIZE)
        self.cfg, self.params = _load_model(self.ckpt_path)
        warm = self.pairs[: self.BATCH]
        _train_step(self.params, self.cfg, np.stack([p.image for p in warm])[:, None],
                    np.stack([p.mask for p in warm])[:, None].astype(np.float32),
                    np.random.default_rng(0))

    def _step(self, s: int):
        rng = np.random.default_rng([self.seed, s])
        batch = [
            augment.augment(self.pairs[pick % len(self.pairs)], spec, rng)
            for pick, spec in self.plan[s]
        ]
        x = np.stack([p.image for p in batch])[:, None]
        target = np.stack([p.mask for p in batch])[:, None].astype(np.float32)
        return (x, target) + _train_step(self.params, self.cfg, x, target, rng)

    def _cycle(self):
        steps = [self._step(s) for s in range(self.STEPS)]
        checkpoint.save_checkpoint(
            checkpoint.Checkpoint(self.cfg, model.named_state(self.params)), self.save_path
        )
        return steps

    def _check(self, steps) -> list[str]:
        errors = []
        trainable = model.named_trainable(self.params)
        for s, (x, target, loss, grads, probs) in enumerate(steps):
            errors += oracles.check_probabilities(probs)
            errors += oracles.check_gradients(grads, trainable)
            summary = {
                **oracles.input_summary(x),
                "target_sum": float(target.sum(dtype=np.float64)),
                "loss": loss,
                "grad_sq": oracles.gradient_summary(grads),
            }
            errors += oracles.check_loss(loss) + self.expect(f"step{s}", summary)
        written = checkpoint.load_checkpoint(self.save_path)
        return errors + oracles.check_written_arrays(
            written.arrays, model.named_state(self.params), written.config == self.cfg
        )

    def ops(self) -> list[Op]:
        return [Op("cycle", self._cycle, self._check, self.STEPS * self.BATCH)]


WORKLOADS = {w.name: w for w in (SegmentVolume, TrainDesk)}
