"""Full segmentation network: nine-stage encoder, five attention-gated
skip connections, five-level residual decoder, sigmoid head.

The encoder follows the stage plan in ``BASE_STAGES`` (strides
1,2,1,2,2,2,1,2,1, so a 256 input passes 256-128-128-64-32-16-16-8-8).
Skips tap the outputs of stages 1, 3, 4, 5 and 7 - the last features at
each resolution above the bottleneck.  Each decoder level upsamples 2x,
gates the matching skip, concatenates and applies a residual block; the
head is a 1x1 convolution to one channel followed by a sigmoid.

Training keeps a lean tape: each conv unit keeps BN's normalized input,
and backward recomputes the activations, the SE products and each decoder
level's upsample and concat from it (``blocks.ConvUnit``).  Only
elementwise work and the 2x upsample run again, so the gradients are those
of the stored values bit for bit, as long as the parameters do not change
between a forward and its backward.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, Iterator

import numpy as np

from . import blocks as B
from .errors import ConfigError, InputError, ParameterError, ShapeError
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
DROP_CONNECT_RATE = 0.2  # drop rate of the last mbconv block; linear from 0 at the first

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
    """A network's square input size and compound-scaling multipliers; the
    layer plan is derived from them (Tan & Le, arXiv:1905.11946).

    Channel counts round to the nearest multiple of 8 (minimum 8); repeated
    layer counts scale as ceil(depth_mult * layers).  Depth scaling applies
    to the repeated mbconv stages only - the single-conv stem and head are
    never repeated.  Decoder widths scale with width_mult under the same
    rounding rule.
    """

    input_size: int  # side of the square input slice
    width_mult: float
    depth_mult: float

    def __post_init__(self) -> None:
        size = self.input_size
        whole = isinstance(size, numbers.Integral) and not isinstance(size, bool)
        if not (whole and size > 0 and size % 32 == 0):
            raise ConfigError(f"input size must be a positive int multiple of 32, got {size!r}")
        object.__setattr__(self, "input_size", int(size))
        for name in ("width_mult", "depth_mult"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not 0 < v < math.inf:
                raise ConfigError(f"{name} must be a finite positive number, got {v!r}")
            object.__setattr__(self, name, float(v))

    @property
    def stage_specs(self) -> tuple[StageSpec, ...]:
        return tuple(
            StageSpec(kind, kernel, stride, round_channels(self.width_mult * out_c),
                      math.ceil(self.depth_mult * layers) if kind == "mbconv" else layers,
                      expansion)
            for kind, kernel, stride, out_c, layers, expansion in BASE_STAGES
        )

    @property
    def decoder_channels(self) -> tuple[int, ...]:
        return tuple(round_channels(self.width_mult * c) for c in BASE_DECODER_CHANNELS)

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_json_dict(d: dict) -> "ModelConfig":
        keys = {f.name for f in fields(ModelConfig)}
        if d.keys() != keys:
            raise ConfigError(f"config keys {sorted(d)} != {sorted(keys)}")
        return ModelConfig(**d)


def preset_config(name: str) -> ModelConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
    return ModelConfig(**PRESETS[name])


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


def build_model(cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32) -> ModelParams:
    """Initialize all parameters for the config.

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
            survive = 1.0 - DROP_CONNECT_RATE * mb_index / (mb_total - 1)
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

    skip_channels = [specs[s - 1].out_channels for s in SKIP_STAGES]  # shallowest first
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
# layer's output gradient to its input gradient and writes the gradient of
# each parameter array it read into the shared grads, keyed by the array's
# id; a decoder level's step also leaves its skip's gradient there for the
# tap step of the skip's encoder stage.  Besides its contexts a step holds
# only its layer's input: the stem and stage-9 steps their conv unit's, a
# decoder level's step the features it upsamples.  MBConv steps bind
# ``B.mbconv_backward`` when the forward records them, so a tracer that
# patches ``blocks`` sees them only if it is installed before the forward
# runs; the other steps, and the conv units (``B.ConvUnit``), look the
# block backwards and kernels up in ``blocks`` when they run.
Step = Callable[[np.ndarray, B.GradDict], np.ndarray]  # (grad_out, grads) -> input gradient
Tape = list[Step]


def _check_input(cfg: ModelConfig, x: Tensor4, dtype: np.dtype) -> None:
    s = cfg.input_size
    if x.c != 1 or x.h != s or x.w != s:
        raise ShapeError(f"input {x.dims} does not match expected (n, 1, {s}, {s})")
    if x.data.dtype != dtype:  # the kernels compute in the input's dtype
        raise InputError(f"input dtype {x.data.dtype} does not match the parameters' dtype {dtype}")
    bad = x.data.size - np.count_nonzero(np.isfinite(x.data))
    if bad:
        raise InputError(f"input has {bad} non-finite pixels (NaN or inf)")


def _level_step(
    gate_ctx: B.GateCtx, res_ctx: B.ResCtx, feats: Tensor4, g: np.ndarray, grads: B.GradDict
) -> np.ndarray:
    """Backward of a decoder level, upsample -> gate -> concat -> residual
    block, from its input features: it recomputes the upsample and the
    concat.  The skip's gradient waits in grads, under its array's id, for
    the tap step of its encoder stage."""
    up = upsample_bilinear_2x(feats)
    skip = gate_ctx.x
    cat = Tensor4(np.concatenate([skip.data * gate_ctx.alpha, up.data], axis=1))
    g = B.residual_block_backward(res_ctx, cat, g, grads)
    del cat
    grads[id(skip.data)], g_up = B.attention_gate_backward(gate_ctx, up, g[:, :skip.c], grads)
    del up
    g_up += g[:, skip.c:]
    return upsample_bilinear_2x_backward(feats, g_up)


def _tap_step(skip: np.ndarray, g: np.ndarray, grads: B.GradDict) -> np.ndarray:
    return g + grads.pop(id(skip))


def _head_step(
    x: Tensor4, conv: ConvParams, y: np.ndarray, g: np.ndarray, grads: B.GradDict
) -> np.ndarray:
    g = activate_backward(y, "sigmoid", g)
    g, grads[id(conv.weight)], grads[id(conv.bias)] = conv2d_backward(x, conv, g)
    return g


def _unit(tape: Tape | None, x: Tensor4, conv: ConvParams, bn: BatchNormState, mode: str) -> Tensor4:
    """A swish conv unit as its own layer; its tape step holds its input."""
    out, unit = B.conv_bn_act(x, conv, bn, mode, "swish")
    if tape is not None:
        tape.append(partial(unit.backward, x))
    return out


def _decoder_level(
    tape: Tape | None,
    feats: Tensor4,
    skip: Tensor4,
    gate: B.AttentionGateParams,
    res: B.ResBlockParams,
    mode: str,
) -> Tensor4:
    up = upsample_bilinear_2x(feats)
    gated, gate_ctx = B.attention_gate_forward(skip, up, gate)
    cat = Tensor4(np.concatenate([gated.data, up.data], axis=1))
    del up, gated
    out, res_ctx = B.residual_block_forward(cat, res, mode)
    if tape is not None:
        tape.append(partial(_level_step, gate_ctx, res_ctx, feats))
    return out


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
    if mode not in (TRAIN, INFER):
        raise ParameterError(f"mode must be '{TRAIN}' or '{INFER}', got {mode!r}")
    _check_input(cfg, x, params.stem_conv.weight.dtype)
    tape: Tape | None = [] if mode == TRAIN else None
    if tape is not None and rng is None:
        raise ParameterError("a train-mode forward needs an rng for stochastic depth, got rng=None")
    skips: dict[int, Tensor4] = {}

    def tap(stage: int, feats: Tensor4) -> None:
        """Keep a skip stage's output for its decoder level."""
        if stage in SKIP_STAGES:
            skips[stage] = feats
            if tape is not None:
                tape.append(partial(_tap_step, feats.data))

    feats = _unit(tape, x, params.stem_conv, params.stem_bn, mode)
    tap(1, feats)
    for si, stage in enumerate(params.stages, start=2):
        for blk in stage:
            feats, ctx = B.mbconv_forward(feats, blk, mode, rng)
            if tape is not None:
                tape.append(partial(B.mbconv_backward, ctx))
        tap(si, feats)

    feats = _unit(tape, feats, params.head_conv9, params.head_bn9, mode)
    for li, (gate, res) in enumerate(zip(params.gates, params.decoder), start=1):
        si = SKIP_STAGES[-li]
        feats = _decoder_level(tape, feats, skips.pop(si), gate, res, mode)

    y = activate(conv2d(feats, params.out_conv), "sigmoid")[0]
    if tape is not None:
        tape.append(partial(_head_step, feats, params.out_conv, y.data))
    return y, tape


def forward(
    params: ModelParams,
    cfg: ModelConfig,
    x: Tensor4,
    mode: str = INFER,
    rng: np.random.Generator | None = None,
) -> Tensor4:
    """Per-pixel liver probability map, same spatial dims as the input,
    every value strictly in (0,1).  The input must have the parameters'
    dtype; train mode needs an rng."""
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
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Run the tape of ``forward_training`` in reverse; returns (parameter
    grads, input grad), the grads named and ordered as ``iter_params``
    yields the trainable arrays of ``params``.  Raises ParameterError when
    the arrays the tape wrote are not exactly those, e.g. for a tape
    recorded with another model's params.  A tape can be run more than once."""
    grads: B.GradDict = {}
    g = grad_out
    for step in reversed(ctx):
        g = step(g, grads)
    named = {name: grads.pop(id(arr), None) for name, arr in named_trainable(params).items()}
    missing = [name for name, grad in named.items() if grad is None]
    if missing or grads:
        raise ParameterError(f"the tape was not recorded with these params: no gradient for "
                             f"{missing[:3]} ({len(missing)} in all), {len(grads)} for other arrays")
    return named, g
