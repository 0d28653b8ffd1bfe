"""Tests of the benchmark itself: inputs, tracer, metric names, oracles.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import oracles  # noqa: E402
import phantoms  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from earunet import (  # noqa: E402
    augment, blocks, checkpoint, gradcheck, losses, metrics, model, preprocess, tensor,
    volume_io, volumes,
)
from earunet.tensor import INFER, Tensor4  # noqa: E402
from earunet.volumes import CtVolume, LabelVolume  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"] for m in BENCH["per_layer"]}
MODULES = (augment, blocks, checkpoint, gradcheck, losses, metrics, model, preprocess, tensor,
           volume_io, volumes)


def test_phantom_files_are_bit_identical_per_seed(tmp_path):
    blobs = []
    for run in range(2):
        rng = np.random.default_rng(7)
        vox, mask = phantoms.ct_phantom(rng, (6, 48, 40), (3.0, 1.2, 1.1))
        volume_io.write_nifti(CtVolume(vox, (3.0, 1.2, 1.1)), tmp_path / f"ct{run}.nii")
        volume_io.write_nifti(LabelVolume(mask, (3.0, 1.2, 1.1)), tmp_path / f"gt{run}.nii")
        checkpoint.save_checkpoint(phantoms.random_init_checkpoint("micro"), tmp_path / f"w{run}.ckpt")
        blobs.append([(tmp_path / f"{n}{run}.{e}").read_bytes()
                      for n, e in (("ct", "nii"), ("gt", "nii"), ("w", "ckpt"))])
    assert blobs[0] == blobs[1]
    assert mask.any()


def test_other_seed_gives_other_phantom():
    a = phantoms.ct_phantom(np.random.default_rng(1), (4, 32, 32), (3.0, 2.0, 2.0))[0]
    b = phantoms.ct_phantom(np.random.default_rng(2), (4, 32, 32), (3.0, 2.0, 2.0))[0]
    assert not np.array_equal(a, b)


def _attributes():
    return {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}


def _micro_step(tr: tracer.Tracer):
    cfg = model.preset_config("micro")
    params = model.build_model(cfg, np.random.default_rng(0))
    tr.add_model(params)
    x = Tensor4(np.random.default_rng(1).random((2, 1, 32, 32)).astype(np.float32))
    tr.active = True
    model.forward(params, cfg, x, INFER, np.random.default_rng(0))
    y, ctx = model.forward_training(params, cfg, x, np.random.default_rng(0))
    loss, grad = losses.combo_loss(y, Tensor4((x.data > 0.5).astype(np.float32)),
                                   losses.LossWeights(1.0, 1.0))
    model.backward_from_context(params, ctx, grad)
    tr.active = False


def test_uninstall_restores_every_wrapped_attribute():
    before = _attributes()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert blocks.conv2d is not before[("earunet.blocks", "conv2d")]
        assert model.batchnorm2d is not before[("earunet.model", "batchnorm2d")]
        assert preprocess.resample_z is not before[("earunet.preprocess", "resample_z")]
        _micro_step(tr)
    finally:
        tr.uninstall()
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tr.spans


def test_traced_keys_are_listed_and_layers_cover_the_network():
    tr = tracer.Tracer()
    tr.install()
    try:
        _micro_step(tr)
    finally:
        tr.uninstall()
    self_s = tr.self_times()
    names = {f"{k}_s" for k in self_s} | set(tr.counts)
    assert names <= PER_LAYER
    for layer in tracer.LAYERS:
        assert self_s[f"layer.{layer}.fwd"] > 0 and self_s[f"layer.{layer}.bwd"] > 0, layer
    # every span's self time is charged to exactly one module key
    spans = tr.spans
    total = sum(s[2] - s[1] for s in spans if s[3] < 0)
    modules = sum(v for k, v in self_s.items() if not k.startswith("layer."))
    assert modules == pytest.approx(total, rel=1e-9)


def test_conv_kinds():
    def conv(out_c, in_pg, k, groups=1):
        return tensor.ConvParams(np.zeros((out_c, in_pg, k, k), np.float32), groups=groups)

    assert tracer.conv_kind(conv(8, 1, 3, groups=8)) == "depthwise"
    assert tracer.conv_kind(conv(8, 4, 1)) == "pointwise"
    assert tracer.conv_kind(conv(8, 4, 3)) == "dense"


def _ellipsoid(shape, center, radii):
    z, y, x = np.ogrid[: shape[0], : shape[1], : shape[2]]
    r = sum(((a - c) / s) ** 2 for a, c, s in zip((z, y, x), center, radii))
    return (r <= 1.0).astype(np.uint8)


@pytest.mark.parametrize("empty", [False, True])
def test_edt_oracle_matches_evaluate_case(empty):
    spacing = (2.5, 0.8, 0.7)
    shape = (12, 22, 26)
    gt = _ellipsoid(shape, (6, 11, 12), (4.5, 8, 9))
    pred = np.zeros(shape, np.uint8) if empty else _ellipsoid(shape, (5, 12, 14), (4, 6, 10))
    report = metrics.evaluate_case(LabelVolume(pred, spacing), LabelVolume(gt, spacing))
    expected = oracles.expected_report(pred, gt, spacing)
    assert oracles.compare_report(report, expected) == []
    assert (expected["assd_mm"] is None) == empty


def test_oracle_catches_a_wrong_report():
    spacing = (1.0, 1.0, 1.0)
    gt = _ellipsoid((10, 12, 12), (5, 6, 6), (4, 5, 5))
    pred = _ellipsoid((10, 12, 12), (5, 6, 7), (4, 4, 5))
    report = metrics.evaluate_case(LabelVolume(pred, spacing), LabelVolume(gt, spacing))
    wrong = metrics.MetricReport(report.dice, report.voe, report.rvd, report.assd_mm * 1.01,
                                 report.msd_mm)
    assert oracles.compare_report(wrong, oracles.expected_report(pred, gt, spacing))


def test_canary_catches_a_changed_augmentation(tmp_path, monkeypatch):
    """The canary runs augment on committed inputs: an augmentation that
    flips the other axis changes the train inputs and fails it."""
    monkeypatch.setattr(augment, "flip_pair", lambda image, mask: (image[::-1].copy(), mask[::-1].copy()))
    errors = workloads.canary("train_desk", tmp_path)
    assert any(": in_dot " in e for e in errors), errors


def test_run_emits_only_listed_metrics():
    """A short traced run: exit 0, correct, every name listed, time attributed."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_desk", "--seed", "3",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == PER_LAYER
    assert result["metrics"]["trace.unattributed_frac"]["value"] <= 0.05
    assert result["metrics"]["tensor.conv2d_backward.depthwise_s"]["value"] > 0
