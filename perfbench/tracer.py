"""In-memory span tracer for the earunet public functions.

``Tracer.install()`` replaces each traced function in every earunet
module namespace that holds it (``earunet.blocks.conv2d``,
``earunet.model.batchnorm2d``, ``earunet.preprocess.resample_z``, ...),
so calls made inside the package are seen as well as the benchmark's own.
``uninstall()`` puts the original objects back.  Untraced runs never
create a Tracer, so they run the program unmodified.

A span is [key, start, end, parent, parameter id].  Self time is a span's
duration minus its children's.  Convolutions are keyed by kind (dense,
depthwise, 1x1 pointwise) from their ConvParams.  Each span inside the
network is charged to a named layer (``encoder.stage4``,
``decoder.level2``, ``head``) found by matching its parameter arrays, by
identity, against the prefixes of ``model.iter_params``.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

import numpy as np

from earunet import blocks, model
from earunet.tensor import BatchNormState, ConvParams, Tensor4

# (module, function, metric key); the key may be refined per call below.
TRACED = (
    ("volume_io", "read_volume", "volume_io.read"),
    ("volume_io", "write_nifti", "volume_io.write"),
    ("preprocess", "hu_window", "preprocess.hu_window"),
    ("preprocess", "hist_equalize", "preprocess.hist_equalize"),
    ("preprocess", "resample_z", "preprocess.resample_z"),
    ("preprocess", "crop_liver_range", "preprocess.crop_liver_range"),
    ("preprocess", "resize_slices", "preprocess.resize_slices"),
    ("model", "build_model", "model.build_model"),
    ("model", "forward", "model.forward"),
    ("model", "forward_training", "model.forward_training"),
    ("model", "backward_from_context", "model.backward"),
    ("blocks", "mbconv_forward", "blocks.mbconv_forward"),
    ("blocks", "mbconv_backward", "blocks.mbconv_backward"),
    ("blocks", "se_block_forward", "blocks.se_block_forward"),
    ("blocks", "se_block_backward", "blocks.se_block_backward"),
    ("blocks", "attention_gate_forward", "blocks.attention_gate_forward"),
    ("blocks", "attention_gate_backward", "blocks.attention_gate_backward"),
    ("blocks", "residual_block_forward", "blocks.residual_block_forward"),
    ("blocks", "residual_block_backward", "blocks.residual_block_backward"),
    ("tensor", "conv2d", "tensor.conv2d"),
    ("tensor", "conv2d_backward", "tensor.conv2d_backward"),
    ("tensor", "batchnorm2d", "tensor.batchnorm2d"),
    ("tensor", "batchnorm2d_backward", "tensor.batchnorm2d_backward"),
    ("tensor", "activate", "tensor.activate"),
    ("tensor", "activate_backward", "tensor.activate_backward"),
    ("tensor", "upsample_bilinear_2x", "tensor.upsample_bilinear_2x"),
    ("tensor", "upsample_bilinear_2x_backward", "tensor.upsample_bilinear_2x_backward"),
    ("losses", "combo_loss", "losses.combo_loss"),
    ("augment", "augment", "augment.augment"),
    ("metrics", "evaluate_case", "metrics.evaluate_case"),
    ("metrics", "extract_surface", "metrics.extract_surface"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
    ("checkpoint", "restore_params", "checkpoint.restore"),
)

MODULES = (
    "volume_io", "preprocess", "model", "blocks", "tensor", "losses", "augment", "metrics",
    "checkpoint", "volumes", "gradcheck",
)

LAYERS = (
    [f"encoder.stage{i}" for i in range(1, 10)]
    + [f"decoder.level{i}" for i in range(1, 6)]
    + ["head"]
)

_MODEL_KEYS = {"model.forward": "fwd", "model.forward_training": "fwd", "model.backward": "bwd"}
# Model-level glue with no parameters of its own: these belong to the layer
# that runs next (the decoder upsample feeds the next gate; in backward an
# activation's gradient feeds the BN/conv of its own layer).  Other glue
# belongs to the layer that ran just before it.
_CHARGE_NEXT = {("fwd", "tensor.upsample_bilinear_2x"), ("bwd", "tensor.activate_backward")}


def conv_kind(p: ConvParams) -> str:
    """dense, depthwise or pointwise (1x1, ungrouped)."""
    if p.groups > 1 and p.groups == p.in_channels == p.out_channels:
        return "depthwise"
    if p.kernel == (1, 1) and p.groups == 1:
        return "pointwise"
    return "dense"


def conv_flops(x: Tensor4, p: ConvParams) -> int:
    n, c, h, w = x.dims
    kh, kw = p.kernel
    oh = (h + 2 * p.padding - kh) // p.stride + 1
    ow = (w + 2 * p.padding - kw) // p.stride + 1
    return 2 * n * p.out_channels * oh * ow * (c // p.groups) * kh * kw


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, Tensor4):
        return obj.data.nbytes
    if isinstance(obj, ConvParams):
        return obj.weight.nbytes
    if isinstance(obj, tuple):
        return sum(_nbytes(o) for o in obj)
    return 0


def _param_array(args) -> np.ndarray | None:
    """The first parameter array among a call's arguments, if any."""
    for a in args:
        p = getattr(a, "p", a)  # block contexts carry their params as .p
        if isinstance(p, ConvParams):
            return p.weight
        if isinstance(p, BatchNormState):
            return p.gamma
        if isinstance(p, blocks.MbConvParams):
            return p.dw_conv.weight
        if isinstance(p, blocks.SeBlockParams):
            return p.fc1.weight
        if isinstance(p, blocks.AttentionGateParams):
            return p.wg.weight
        if isinstance(p, blocks.ResBlockParams):
            return p.conv1.weight
    return None


def _file_size(path) -> int:
    return os.path.getsize(path)


def _counts(key: str, args, result) -> dict[str, float]:
    """Work counts recorded at the span boundary."""
    if key.startswith("tensor."):
        out = {"tensor.bytes": _nbytes(tuple(args)) + _nbytes(result)}
        if key == "tensor.conv2d":
            out["tensor.flops"] = conv_flops(args[0], args[1])
        elif key == "tensor.conv2d_backward":
            out["tensor.flops"] = 2 * conv_flops(args[0], args[1])
        elif key.startswith("tensor.upsample"):
            n, c, h, w = args[0].dims
            out["tensor.flops"] = 2 * n * c * (2 * h * h * w + 4 * h * w * w)
        return out
    if key == "volume_io.read":
        return {"volume_io.bytes_read": _file_size(args[0])}
    if key == "volume_io.write":
        return {"volume_io.bytes_written": _file_size(args[1])}
    if key == "checkpoint.save":
        return {"checkpoint.bytes": _file_size(args[1])}
    if key == "checkpoint.load":
        return {"checkpoint.bytes": _file_size(args[0])}
    if key == "preprocess.hu_window":
        return {"preprocess.voxels_in": args[0].voxels.size}
    if key in ("model.forward", "model.forward_training"):
        return {"model.slices": args[2].n}
    if key == "augment.augment":
        return {"augment.pairs": 1}
    if key == "metrics.extract_surface":
        return {"metrics.surface_points": len(result)}
    return {}


def _refine(key: str, args) -> str:
    if key in ("tensor.conv2d", "tensor.conv2d_backward"):
        return f"{key}.{conv_kind(args[1])}"
    if key == "tensor.batchnorm2d":
        return f"{key}.{args[1].mode}"
    return key


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [key, start, end, parent, id of a parameter array]
        self.counts: dict[str, float] = defaultdict(float)
        self.active = False  # wrappers record spans only while True
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._layer_of: dict[int, str] = {}
        self._models: list = []  # keeps mapped arrays alive, so their ids stay unique

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = [importlib.import_module(f"earunet.{m}") for m in MODULES]
        for mod_name, fn_name, key in TRACED:
            original = getattr(importlib.import_module(f"earunet.{mod_name}"), fn_name)
            wrapper = self._wrap(original, key)
            for mod in mods:
                for attr, value in vars(mod).items():
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def add_model(self, params: model.ModelParams) -> None:
        """Map each parameter array of `params` to its layer name."""
        self._models.append(params)
        for name, arr, _ in model.iter_params(params):
            parts = name.split(".")
            self._layer_of[id(arr)] = "head" if parts[0] == "head" else ".".join(parts[:2])

    def _wrap(self, fn, key: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            arr = _param_array(args)
            idx = len(spans)
            spans.append([_refine(key, args), 0.0, 0.0, stack[-1] if stack else -1,
                          None if arr is None else id(arr)])
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            for k, v in _counts(key, args, result).items():
                counts[k] += v
            return result

        traced.__wrapped__ = fn
        return traced

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per metric key, plus per-layer fwd/bwd seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        children: dict[int, list[int]] = defaultdict(list)
        for i, (_, t0, t1, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                children[parent].append(i)
        self_s = [s[2] - s[1] - child[i] for i, s in enumerate(spans)]

        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(spans):
            out[s[0]] += self_s[i]

        # layer attribution: own parameters, else the enclosing span's layer;
        # glue directly under a model span follows _CHARGE_NEXT.
        layer = [self._layer_of.get(s[4]) for s in spans]
        phase: list[str | None] = [None] * len(spans)
        for i, s in enumerate(spans):
            parent = s[3]
            if s[0] in _MODEL_KEYS:
                phase[i] = _MODEL_KEYS[s[0]]
                self._charge_glue(children[i], layer, phase[i])
            elif parent >= 0:
                phase[i] = phase[parent]
                if layer[i] is None:
                    layer[i] = layer[parent]
        for i in range(len(spans)):
            if layer[i] is not None and phase[i] is not None:
                out[f"layer.{layer[i]}.{phase[i]}"] += self_s[i]
        return out

    def _charge_glue(self, kids: list[int], layer: list, phase: str) -> None:
        last, pending = None, []
        for k in kids:
            if layer[k] is not None:
                for j in pending:
                    layer[j] = layer[k]
                pending.clear()
                last = layer[k]
            elif (phase, self.spans[k][0]) in _CHARGE_NEXT or last is None:
                pending.append(k)
            else:
                layer[k] = last
        for j in pending:
            layer[j] = last
