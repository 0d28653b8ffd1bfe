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
from typing import Iterator

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


def _iter_conv(prefix: str, p: ConvParams) -> Iterator[tuple[str, np.ndarray, bool]]:
    yield f"{prefix}.weight", p.weight, True
    if p.bias is not None:
        yield f"{prefix}.bias", p.bias, True


def _iter_bn(prefix: str, s: BatchNormState) -> Iterator[tuple[str, np.ndarray, bool]]:
    yield f"{prefix}.gamma", s.gamma, True
    yield f"{prefix}.beta", s.beta, True
    yield f"{prefix}.running_mean", s.running_mean, False
    yield f"{prefix}.running_var", s.running_var, False


def _iter_se(prefix: str, p: B.SeBlockParams) -> Iterator[tuple[str, np.ndarray, bool]]:
    yield f"{prefix}.fc1.weight", p.fc1.weight, True
    yield f"{prefix}.fc1.bias", p.fc1.bias, True
    yield f"{prefix}.fc2.weight", p.fc2.weight, True
    yield f"{prefix}.fc2.bias", p.fc2.bias, True


def _iter_mbconv(prefix: str, p: B.MbConvParams) -> Iterator[tuple[str, np.ndarray, bool]]:
    if p.expand_conv is not None:
        yield from _iter_conv(f"{prefix}.expand_conv", p.expand_conv)
        yield from _iter_bn(f"{prefix}.expand_bn", p.expand_bn)
    yield from _iter_conv(f"{prefix}.dw_conv", p.dw_conv)
    yield from _iter_bn(f"{prefix}.dw_bn", p.dw_bn)
    yield from _iter_se(f"{prefix}.se", p.se)
    yield from _iter_conv(f"{prefix}.project_conv", p.project_conv)
    yield from _iter_bn(f"{prefix}.project_bn", p.project_bn)


def _iter_gate(prefix: str, p: B.AttentionGateParams) -> Iterator[tuple[str, np.ndarray, bool]]:
    yield from _iter_conv(f"{prefix}.wg", p.wg)
    yield from _iter_conv(f"{prefix}.wx", p.wx)
    yield from _iter_conv(f"{prefix}.psi", p.psi)


def _iter_res(prefix: str, p: B.ResBlockParams) -> Iterator[tuple[str, np.ndarray, bool]]:
    yield from _iter_conv(f"{prefix}.conv1", p.conv1)
    yield from _iter_bn(f"{prefix}.bn1", p.bn1)
    yield from _iter_conv(f"{prefix}.conv2", p.conv2)
    yield from _iter_bn(f"{prefix}.bn2", p.bn2)
    if p.shortcut_proj is not None:
        yield from _iter_conv(f"{prefix}.shortcut_proj", p.shortcut_proj)


def iter_params(params: ModelParams) -> Iterator[tuple[str, np.ndarray, bool]]:
    """Yield (name, array, trainable) for every parameter blob, in a stable
    order; arrays are the live objects, not copies."""
    yield from _iter_conv("encoder.stage1.conv", params.stem_conv)
    yield from _iter_bn("encoder.stage1.bn", params.stem_bn)
    for si, stage in enumerate(params.stages, start=2):
        for bi, blk in enumerate(stage):
            yield from _iter_mbconv(f"encoder.stage{si}.block{bi}", blk)
    yield from _iter_conv("encoder.stage9.conv", params.head_conv9)
    yield from _iter_bn("encoder.stage9.bn", params.head_bn9)
    for li, (gate, res) in enumerate(zip(params.gates, params.decoder), start=1):
        yield from _iter_gate(f"decoder.level{li}.gate", gate)
        yield from _iter_res(f"decoder.level{li}.res", res)
    yield from _iter_conv("head.conv", params.out_conv)


def named_state(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: arr for name, arr, _ in iter_params(params)}


def named_trainable(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: arr for name, arr, trainable in iter_params(params) if trainable}


def iter_bn_states(params: ModelParams) -> Iterator[BatchNormState]:
    yield params.stem_bn
    for stage in params.stages:
        for blk in stage:
            if blk.expand_bn is not None:
                yield blk.expand_bn
            yield blk.dw_bn
            yield blk.project_bn
    yield params.head_bn9
    for res in params.decoder:
        yield res.bn1
        yield res.bn2


def set_model_mode(params: ModelParams, mode: str) -> None:
    for bn in iter_bn_states(params):
        bn.mode = mode


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


@dataclass
class _LevelCtx:
    up_in: Tensor4  # decoder features before the 2x upsample
    gate_ctx: B.GateCtx
    res_ctx: B.ResCtx


@dataclass
class ModelCtx:
    cfg: ModelConfig
    stem: B.ConvBnCtx
    stage_ctxs: list[list[B.MbConvCtx]]
    head9: B.ConvBnCtx
    levels: list[_LevelCtx]
    out_pre: Tensor4  # head conv output, sigmoid input
    out_in: Tensor4  # final residual features, head conv input


def _check_input(cfg: ModelConfig, x: Tensor4) -> None:
    h, w = cfg.input_size
    if x.c != 1 or x.h != h or x.w != w:
        raise ShapeError(f"input {x.dims} does not match expected (n, 1, {h}, {w})")


def _decoder_level(
    cur: Tensor4, skip: Tensor4, gate: B.AttentionGateParams, res: B.ResBlockParams
) -> tuple[Tensor4, _LevelCtx]:
    up = upsample_bilinear_2x(cur)
    gated, gate_ctx = B.attention_gate_forward(skip, up, gate)
    cat = Tensor4(np.concatenate([gated.data, up.data], axis=1))
    out, res_ctx = B.residual_block_forward(cat, res)
    return out, _LevelCtx(up_in=cur, gate_ctx=gate_ctx, res_ctx=res_ctx)


def _run_forward(
    params: ModelParams,
    cfg: ModelConfig,
    x: Tensor4,
    mode: str,
    rng: np.random.Generator | None,
) -> tuple[Tensor4, ModelCtx | None]:
    """The one walk of the network.

    Train mode records every layer's context for ``backward_from_context``
    and needs an rng for the stochastic-depth draws.  Any other mode drops
    each context as soon as its layer returns, so only the skip tensors
    stay alive across layers, and returns no context.
    """
    _check_input(cfg, x)
    record = mode == TRAIN
    if record and rng is None:
        raise ParameterError("a train-mode forward needs an rng for stochastic depth, got rng=None")
    set_model_mode(params, mode)

    def keep(result):
        out, ctx = result
        return out, (ctx if record else None)

    feats, stem_ctx = keep(B.conv_bn_act(x, params.stem_conv, params.stem_bn, "swish"))
    skips: dict[int, Tensor4] = {1: feats}
    stage_ctxs: list[list[B.MbConvCtx]] = []
    for si, stage in enumerate(params.stages, start=2):
        ctxs = []
        for blk in stage:
            feats, ctx = keep(B.mbconv_forward(feats, blk, mode, rng))
            ctxs.append(ctx)
        stage_ctxs.append(ctxs)
        if si in cfg.skip_stages:
            skips[si] = feats

    feats, head9_ctx = keep(B.conv_bn_act(feats, params.head_conv9, params.head_bn9, "swish"))
    levels: list[_LevelCtx] = []
    for level, (gate, res) in enumerate(zip(params.gates, params.decoder)):
        skip = skips.pop(cfg.skip_stages[-1 - level])
        feats, level_ctx = keep(_decoder_level(feats, skip, gate, res))
        levels.append(level_ctx)

    out_pre = conv2d(feats, params.out_conv)
    y = activate(out_pre, "sigmoid")
    if not record:
        return y, None
    return y, ModelCtx(cfg, stem_ctx, stage_ctxs, head9_ctx, levels, out_pre, feats)


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
) -> tuple[Tensor4, ModelCtx]:
    """Train-mode forward that keeps the context needed for one backward."""
    return _run_forward(params, cfg, x, TRAIN, rng)


def backward_from_context(
    params: ModelParams, ctx: ModelCtx, grad_out: np.ndarray
) -> tuple[B.GradDict, np.ndarray]:
    """Reverse the recorded forward; returns (parameter grads, input grad)."""
    grads: B.GradDict = {}

    def merge(prefix: str, local: B.GradDict) -> None:
        for k, v in local.items():
            grads[f"{prefix}.{k}"] = v

    g = activate_backward(ctx.out_pre, "sigmoid", grad_out)
    g, gw, gb = conv2d_backward(ctx.out_in, params.out_conv, g)
    grads["head.conv.weight"] = gw
    grads["head.conv.bias"] = gb

    skip_grads: dict[int, np.ndarray] = {}
    for level in reversed(range(len(ctx.levels))):
        lv = ctx.levels[level]
        g, res_grads = B.residual_block_backward(lv.res_ctx, g)
        merge(f"decoder.level{level + 1}.res", res_grads)
        gated_c = lv.gate_ctx.x.c
        g_gated = g[:, :gated_c]
        g_up = g[:, gated_c:]
        gskip, g_up_gate, gate_grads = B.attention_gate_backward(lv.gate_ctx, g_gated)
        merge(f"decoder.level{level + 1}.gate", gate_grads)
        skip_grads[ctx.cfg.skip_stages[-1 - level]] = gskip
        g = upsample_bilinear_2x_backward(lv.up_in, g_up + g_up_gate)

    g = B.conv_bn_act_backward(ctx.head9, g, grads, "encoder.stage9.conv", "encoder.stage9.bn")

    for si in range(len(params.stages) + 1, 1, -1):  # stages 8 .. 2
        if si in skip_grads:
            g = g + skip_grads[si]
        stage_ctxs = ctx.stage_ctxs[si - 2]
        stage = params.stages[si - 2]
        for bi in reversed(range(len(stage))):
            g, mb_grads = B.mbconv_backward(stage_ctxs[bi], g)
            merge(f"encoder.stage{si}.block{bi}", mb_grads)

    if 1 in skip_grads:
        g = g + skip_grads[1]
    grad_x = B.conv_bn_act_backward(ctx.stem, g, grads, "encoder.stage1.conv", "encoder.stage1.bn")
    return grads, grad_x
