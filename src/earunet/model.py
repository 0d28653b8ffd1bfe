"""Full segmentation network: nine-stage encoder, five attention-gated
skip connections, five-level residual decoder, sigmoid head.

The encoder follows the stage plan in ``BASE_STAGES`` (strides
1,2,1,2,2,2,1,2,1, so a 256 input passes 256-128-128-64-32-16-16-8-8).
Skips tap the outputs of stages 1, 3, 4, 5 and 7 - the last features at
each resolution above the bottleneck.  Each decoder level upsamples 2x,
gates the matching skip, concatenates and applies a residual block; the
head is a 1x1 convolution to one channel followed by a sigmoid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

import numpy as np

from . import blocks as B
from .errors import ConfigError, ParameterError, ShapeError
from .tensor import (
    INFER,
    TRAIN,
    BatchNormState,
    ConvParams,
    Tensor4,
    activate,
    activate_backward,
    conv2d,
    conv2d_backward,
    upsample_bilinear_2x,
    upsample_bilinear_2x_backward,
    _check_mode,
)
from .tensor import batchnorm2d  # noqa: F401  # not called here; tracers patch model.batchnorm2d

# (kind, kernel, stride, out_channels, layers, expansion)
BASE_STAGES = (
    ("conv", 3, 1, 48, 1, 0),
    ("mbconv", 3, 2, 24, 2, 1),
    ("mbconv", 3, 1, 32, 4, 6),
    ("mbconv", 5, 2, 56, 4, 6),
    ("mbconv", 3, 2, 112, 6, 6),
    ("mbconv", 5, 2, 160, 6, 6),
    ("mbconv", 5, 1, 272, 8, 6),
    ("mbconv", 3, 2, 448, 2, 6),
    ("conv", 1, 1, 1792, 1, 0),
)

BASE_DECODER_CHANNELS = (256, 128, 64, 32, 16)
SKIP_STAGES = (1, 3, 4, 5, 7)  # 1-based stage indices, shallowest first

PRESETS = {
    "full": {"input_size": 256, "width_mult": 1.0, "depth_mult": 1.0},
    "desk": {"input_size": 64, "width_mult": 0.25, "depth_mult": 0.25},
    "micro": {"input_size": 32, "width_mult": 0.05, "depth_mult": 0.1},
}


def round_channels(value: float) -> int:
    """Nearest multiple of 8 (half rounds up), floored at 8."""
    return max(8, int(math.floor(value / 8.0 + 0.5)) * 8)


@dataclass(frozen=True)
class StageSpec:
    kind: str  # "conv" or "mbconv"
    kernel: int
    stride: int
    out_channels: int
    layers: int
    expansion: int


@dataclass(frozen=True)
class ModelConfig:
    """Resolved layer plan; all widths/depths already scaled and rounded."""

    input_size: tuple[int, int]
    width_mult: float
    depth_mult: float
    stage_specs: tuple[StageSpec, ...]
    decoder_channels: tuple[int, ...]
    skip_stages: tuple[int, ...]
    drop_connect_rate: float

    def to_json_dict(self) -> dict:
        return {
            "input_size": list(self.input_size),
            "width_mult": self.width_mult,
            "depth_mult": self.depth_mult,
            "stage_specs": [
                [s.kind, s.kernel, s.stride, s.out_channels, s.layers, s.expansion]
                for s in self.stage_specs
            ],
            "decoder_channels": list(self.decoder_channels),
            "skip_stages": list(self.skip_stages),
            "drop_connect_rate": self.drop_connect_rate,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "ModelConfig":
        return ModelConfig(
            input_size=tuple(d["input_size"]),
            width_mult=float(d["width_mult"]),
            depth_mult=float(d["depth_mult"]),
            stage_specs=tuple(StageSpec(*row) for row in d["stage_specs"]),
            decoder_channels=tuple(d["decoder_channels"]),
            skip_stages=tuple(d["skip_stages"]),
            drop_connect_rate=float(d["drop_connect_rate"]),
        )


def resolve_config(
    input_size: int | tuple[int, int] = 256,
    width_mult: float = 1.0,
    depth_mult: float = 1.0,
    drop_connect_rate: float = 0.2,
) -> ModelConfig:
    """Scale the base stage plan by width/depth multipliers.

    Channel counts round to the nearest multiple of 8 (minimum 8); repeated
    layer counts scale as ceil(depth_mult * layers).  Depth scaling applies
    to the repeated mbconv stages only - the single-conv stem and head are
    never repeated.  Decoder widths scale with width_mult under the same
    rounding rule.
    """
    if width_mult <= 0 or depth_mult <= 0:
        raise ConfigError(f"multipliers must be positive, got {width_mult}, {depth_mult}")
    if isinstance(input_size, int):
        input_size = (input_size, input_size)
    h, w = input_size
    if h % 32 or w % 32:
        raise ConfigError(f"input size {input_size} must be divisible by 32")

    specs = []
    for kind, kernel, stride, out_c, layers, expansion in BASE_STAGES:
        if width_mult == 1.0:
            c = out_c
        else:
            c = round_channels(width_mult * out_c)
        if kind == "mbconv":
            n_layers = int(math.ceil(depth_mult * layers))
        else:
            n_layers = layers
        specs.append(StageSpec(kind, kernel, stride, c, n_layers, expansion))

    if width_mult == 1.0:
        dec = BASE_DECODER_CHANNELS
    else:
        dec = tuple(round_channels(width_mult * c) for c in BASE_DECODER_CHANNELS)
    return ModelConfig(
        input_size=input_size,
        width_mult=width_mult,
        depth_mult=depth_mult,
        stage_specs=tuple(specs),
        decoder_channels=dec,
        skip_stages=SKIP_STAGES,
        drop_connect_rate=drop_connect_rate,
    )


def preset_config(name: str, **overrides) -> ModelConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
    kwargs = dict(PRESETS[name])
    kwargs.update(overrides)
    return resolve_config(**kwargs)


# ---------------------------------------------------------------------------
# parameters


@dataclass
class ModelParams:
    stem_conv: ConvParams
    stem_bn: BatchNormState
    stages: list[list[B.MbConvParams]]  # stages 2..8
    head_conv9: ConvParams
    head_bn9: BatchNormState
    gates: list[B.AttentionGateParams]  # decoder levels, deepest first
    decoder: list[B.ResBlockParams]
    out_conv: ConvParams


def iter_params(params: ModelParams) -> Iterator[tuple[str, np.ndarray, bool]]:
    """Yield (name, array, trainable) for every parameter blob, in a stable
    order; arrays are the live objects, not copies.  Below each layer prefix
    the names are the block dataclass's field paths (``B.named_arrays``)."""
    yield from B.named_arrays(params.stem_conv, "encoder.stage1.conv")
    yield from B.named_arrays(params.stem_bn, "encoder.stage1.bn")
    for si, stage in enumerate(params.stages, start=2):
        for bi, blk in enumerate(stage):
            yield from B.named_arrays(blk, f"encoder.stage{si}.block{bi}")
    yield from B.named_arrays(params.head_conv9, "encoder.stage9.conv")
    yield from B.named_arrays(params.head_bn9, "encoder.stage9.bn")
    for li, (gate, res) in enumerate(zip(params.gates, params.decoder), start=1):
        yield from B.named_arrays(gate, f"decoder.level{li}.gate")
        yield from B.named_arrays(res, f"decoder.level{li}.res")
    yield from B.named_arrays(params.out_conv, "head.conv")


def named_state(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: arr for name, arr, _ in iter_params(params)}


def named_trainable(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: arr for name, arr, trainable in iter_params(params) if trainable}


def parameter_count(params: ModelParams) -> int:
    return sum(arr.size for _, arr, trainable in iter_params(params) if trainable)


def build_model(cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32) -> ModelParams:
    """Initialize all parameters for the resolved config.

    Conv weights are He-normal (fan-out), batch norms start at identity,
    fully connected layers are uniform +-1/sqrt(fan_in).  The construction
    order is fixed, so a given seed always produces the same parameters.
    """
    specs = cfg.stage_specs
    stem = specs[0]
    stem_conv = B.init_conv(rng, 1, stem.out_channels, stem.kernel, stride=stem.stride, dtype=dtype)
    stem_bn = B.init_bn(stem.out_channels, dtype)

    mb_total = sum(s.layers for s in specs if s.kind == "mbconv")
    mb_index = 0
    stages: list[list[B.MbConvParams]] = []
    in_c = stem.out_channels
    for spec in specs[1:-1]:
        blocks: list[B.MbConvParams] = []
        for layer in range(spec.layers):
            if mb_total > 1:
                survive = 1.0 - cfg.drop_connect_rate * mb_index / (mb_total - 1)
            else:
                survive = 1.0
            blocks.append(
                B.init_mbconv(
                    rng,
                    in_c,
                    spec.out_channels,
                    kernel=spec.kernel,
                    stride=spec.stride if layer == 0 else 1,
                    expansion=spec.expansion,
                    survive_p=survive,
                    dtype=dtype,
                )
            )
            in_c = spec.out_channels
            mb_index += 1
        stages.append(blocks)

    head = specs[-1]
    head_conv9 = B.init_conv(rng, in_c, head.out_channels, head.kernel, dtype=dtype)
    head_bn9 = B.init_bn(head.out_channels, dtype)

    skip_channels = [specs[s - 1].out_channels for s in cfg.skip_stages]  # shallowest first
    gates: list[B.AttentionGateParams] = []
    decoder: list[B.ResBlockParams] = []
    gate_in = head.out_channels  # decoder features entering level 1
    for level, dec_c in enumerate(cfg.decoder_channels):
        skip_c = skip_channels[-1 - level]  # deepest skip first
        gates.append(B.init_attention_gate(rng, skip_c, gate_in, dtype=dtype))
        decoder.append(B.init_res_block(rng, skip_c + gate_in, dec_c, dtype=dtype))
        gate_in = dec_c

    out_conv = B.init_conv(rng, cfg.decoder_channels[-1], 1, 1, bias=True, dtype=dtype)
    return ModelParams(
        stem_conv=stem_conv,
        stem_bn=stem_bn,
        stages=stages,
        head_conv9=head_conv9,
        head_bn9=head_bn9,
        gates=gates,
        decoder=decoder,
        out_conv=out_conv,
    )


# ---------------------------------------------------------------------------
# forward / backward


# A train-mode forward records one backward step per layer, in forward
# order; ``backward_from_context`` runs them in reverse.  A step maps the
# layer's output gradient to (input gradient, parameter grads named under
# the step's name).  Each step looks its ``B.*_backward`` up through the
# module attribute when it runs, so tracers that patch ``blocks`` see it.
Step = Callable[[np.ndarray], tuple[np.ndarray, B.GradDict]]
Tape = list[tuple[str, Step]]


def _check_input(cfg: ModelConfig, x: Tensor4) -> None:
    h, w = cfg.input_size
    if x.c != 1 or x.h != h or x.w != w:
        raise ShapeError(f"input {x.dims} does not match expected (n, 1, {h}, {w})")


def _unit_step(ctx: B.ConvBnCtx, g: np.ndarray) -> tuple[np.ndarray, B.GradDict]:
    grads: B.GradDict = {}
    return B.conv_bn_act_backward(ctx, g, grads, "conv", "bn"), grads


def _mbconv_step(ctx: B.MbConvCtx, g: np.ndarray) -> tuple[np.ndarray, B.GradDict]:
    return B.mbconv_backward(ctx, g)


def _res_step(ctx: B.ResCtx, g: np.ndarray) -> tuple[np.ndarray, B.GradDict]:
    return B.residual_block_backward(ctx, g)


def _gate_step(
    ctx: B.GateCtx, up_in: Tensor4, skip_grads: dict[int, np.ndarray], stage: int, g: np.ndarray
) -> tuple[np.ndarray, B.GradDict]:
    """Backward of upsample -> gate -> concat; the skip's gradient waits in
    skip_grads for the tap step of its encoder stage."""
    gated_c = ctx.x.c
    skip_grads[stage], g_up_gate, grads = B.attention_gate_backward(ctx, g[:, :gated_c])
    return upsample_bilinear_2x_backward(up_in, g[:, gated_c:] + g_up_gate), grads


def _tap_step(
    skip_grads: dict[int, np.ndarray], stage: int, g: np.ndarray
) -> tuple[np.ndarray, B.GradDict]:
    return g + skip_grads[stage], {}


def _head_step(
    x: Tensor4, conv: ConvParams, out_pre: Tensor4, g: np.ndarray
) -> tuple[np.ndarray, B.GradDict]:
    g = activate_backward(out_pre, "sigmoid", g)
    g, gw, gb = conv2d_backward(x, conv, g)
    return g, {"conv.weight": gw, "conv.bias": gb}


def _record(tape: Tape | None, name: str, result: tuple, step, *saved) -> Tensor4:
    """A layer's output; a train-mode tape also records its backward step,
    which holds the layer's context.  Without a tape the context is dropped."""
    out, ctx = result
    if tape is not None:
        tape.append((name, partial(step, ctx, *saved)))
    return out


def _decoder_level(
    tape: Tape | None,
    name: str,
    feats: Tensor4,
    skip: Tensor4,
    gate: B.AttentionGateParams,
    res: B.ResBlockParams,
    mode: str,
    skip_grads: dict[int, np.ndarray],
    stage: int,
) -> Tensor4:
    up = upsample_bilinear_2x(feats)
    gated = _record(tape, f"{name}.gate", B.attention_gate_forward(skip, up, gate),
                    _gate_step, feats, skip_grads, stage)
    cat = Tensor4(np.concatenate([gated.data, up.data], axis=1))
    return _record(tape, f"{name}.res", B.residual_block_forward(cat, res, mode), _res_step)


def _run_forward(
    params: ModelParams,
    cfg: ModelConfig,
    x: Tensor4,
    mode: str,
    rng: np.random.Generator | None,
) -> tuple[Tensor4, Tape | None]:
    """The one walk of the network.

    Train mode records every layer's backward step on a tape for
    ``backward_from_context`` and needs an rng for the stochastic-depth
    draws.  Infer mode drops each context as soon as its layer
    returns, so only the skip tensors stay alive across layers, and
    returns no tape.
    """
    _check_mode(mode)
    _check_input(cfg, x)
    tape: Tape | None = [] if mode == TRAIN else None
    if tape is not None and rng is None:
        raise ParameterError("a train-mode forward needs an rng for stochastic depth, got rng=None")
    skips: dict[int, Tensor4] = {}
    skip_grads: dict[int, np.ndarray] = {}  # filled by gate steps, read by tap steps

    def tap(stage: int, feats: Tensor4) -> None:
        """Keep a skip stage's output for its decoder level."""
        if stage in cfg.skip_stages:
            skips[stage] = feats
            if tape is not None:
                tape.append((f"encoder.stage{stage}", partial(_tap_step, skip_grads, stage)))

    feats = _record(tape, "encoder.stage1",
                    B.conv_bn_act(x, params.stem_conv, params.stem_bn, mode, "swish"), _unit_step)
    tap(1, feats)
    for si, stage in enumerate(params.stages, start=2):
        for bi, blk in enumerate(stage):
            feats = _record(tape, f"encoder.stage{si}.block{bi}",
                            B.mbconv_forward(feats, blk, mode, rng), _mbconv_step)
        tap(si, feats)

    feats = _record(tape, "encoder.stage9",
                    B.conv_bn_act(feats, params.head_conv9, params.head_bn9, mode, "swish"),
                    _unit_step)
    for li, (gate, res) in enumerate(zip(params.gates, params.decoder), start=1):
        si = cfg.skip_stages[-li]
        feats = _decoder_level(tape, f"decoder.level{li}", feats, skips.pop(si), gate, res, mode,
                               skip_grads, si)

    out_pre = conv2d(feats, params.out_conv)
    y = activate(out_pre, "sigmoid")
    if tape is not None:
        tape.append(("head", partial(_head_step, feats, params.out_conv, out_pre)))
    return y, tape


def forward(
    params: ModelParams,
    cfg: ModelConfig,
    x: Tensor4,
    mode: str = INFER,
    rng: np.random.Generator | None = None,
) -> Tensor4:
    """Per-pixel liver probability map, same spatial dims as the input,
    every value strictly in (0,1).  Train mode needs an rng."""
    return _run_forward(params, cfg, x, mode, rng)[0]


def forward_training(
    params: ModelParams,
    cfg: ModelConfig,
    x: Tensor4,
    rng: np.random.Generator,
) -> tuple[Tensor4, Tape]:
    """Train-mode forward that returns its tape for ``backward_from_context``."""
    return _run_forward(params, cfg, x, TRAIN, rng)


def backward_from_context(
    params: ModelParams, ctx: Tape, grad_out: np.ndarray
) -> tuple[B.GradDict, np.ndarray]:
    """Run the tape of ``forward_training`` in reverse; returns (parameter
    grads, input grad).  ``params`` is unused: each step holds the
    parameters its layer read.  A tape can be run more than once."""
    grads: B.GradDict = {}
    g = grad_out
    for name, step in reversed(ctx):
        g, local = step(g)
        for k, v in local.items():
            grads[f"{name}.{k}"] = v
    return grads, g
