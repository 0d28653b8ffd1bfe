"""Full segmentation network: nine-stage encoder, five attention-gated
skip connections, five-level residual decoder, sigmoid head.

The encoder is the stage plan in ``BASE_STAGES``: each row decides its
stage's kind, a conv unit (the stem and stage 9) or a list of MBConv
blocks, and its stride (1,2,1,2,2,2,1,2,1, so a 256 input passes
256-128-128-64-32-16-16-8-8).  Skips tap the output of each stage that a
stride-2 stage follows - the last features at each resolution above the
bottleneck.  Each decoder level, deepest first, upsamples 2x, pops the
deepest skip left and gates it, concatenates and applies a residual
block; the head is a 1x1 convolution to one channel followed by a
sigmoid.

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
from .errors import ConfigError, DegenerateBatchError, InputError, ParameterError, ShapeError
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
SKIP_STAGES = tuple(s for s, nxt in enumerate(BASE_STAGES[1:], start=1) if nxt[2] == 2)
OUTPUT_STRIDE = math.prod(row[2] for row in BASE_STAGES)  # input side / bottleneck side
DTYPES = ("float32", "float64")  # the dtypes the kernels compute in and checkpoints store
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
        if not (whole and size > 0 and size % OUTPUT_STRIDE == 0):
            raise ConfigError(f"input size must be a positive int multiple of {OUTPUT_STRIDE}, "
                              f"got {size!r}")
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
    # one entry per BASE_STAGES row: a "conv" row's unit, an "mbconv" row's blocks
    stages: list[tuple[ConvParams, BatchNormState] | list[B.MbConvParams]]
    levels: list[tuple[B.AttentionGateParams, B.ResBlockParams]]  # deepest first
    out_conv: ConvParams


def iter_params(params: ModelParams) -> Iterator[tuple[str, np.ndarray, bool]]:
    """Yield (name, array, trainable) for every parameter blob, in a stable
    order; arrays are the live objects, not copies.  Below each layer prefix
    the names are the block dataclass's field paths (``B.named_arrays``)."""
    for si, ((kind, *_), stage) in enumerate(zip(BASE_STAGES, params.stages), start=1):
        if kind == "conv":
            yield from B.named_arrays(stage[0], f"encoder.stage{si}.conv")
            yield from B.named_arrays(stage[1], f"encoder.stage{si}.bn")
        else:
            for bi, blk in enumerate(stage):
                yield from B.named_arrays(blk, f"encoder.stage{si}.block{bi}")
    for li, (gate, res) in enumerate(params.levels, start=1):
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
    The dtype must be one of ``DTYPES``.
    """
    try:
        known = np.dtype(dtype).name in DTYPES
    except TypeError:  # not a dtype at all
        known = False
    if not known:
        raise ParameterError(f"parameter dtype must be one of {DTYPES}, got {dtype!r}")
    specs = cfg.stage_specs
    mb_total = sum(s.layers for s in specs if s.kind == "mbconv")
    mb_index = 0
    stages = []
    in_c = 1  # the slice's one channel
    for spec in specs:
        if spec.kind == "conv":  # one unit, never repeated
            conv = B.init_conv(rng, in_c, spec.out_channels, spec.kernel, spec.stride, dtype=dtype)
            stages.append((conv, B.init_bn(spec.out_channels, dtype)))
        else:
            stages.append([
                B.init_mbconv(
                    rng,
                    in_c if layer == 0 else spec.out_channels,
                    spec.out_channels,
                    kernel=spec.kernel,
                    stride=spec.stride if layer == 0 else 1,
                    expansion=spec.expansion,
                    survive_p=1.0 - DROP_CONNECT_RATE * (mb_index + layer) / (mb_total - 1),
                    dtype=dtype,
                )
                for layer in range(spec.layers)
            ])
            mb_index += spec.layers
        in_c = spec.out_channels

    skip_channels = [specs[s - 1].out_channels for s in SKIP_STAGES]  # shallowest first
    levels = []
    gate_in = in_c  # decoder features entering level 1
    for dec_c in cfg.decoder_channels:
        skip_c = skip_channels.pop()
        gate = B.init_attention_gate(rng, skip_c, gate_in, dtype=dtype)
        levels.append((gate, B.init_res_block(rng, skip_c + gate_in, dec_c, dtype=dtype)))
        gate_in = dec_c

    out_conv = B.init_conv(rng, cfg.decoder_channels[-1], 1, 1, bias=True, dtype=dtype)
    return ModelParams(stages=stages, levels=levels, out_conv=out_conv)


# ---------------------------------------------------------------------------
# forward / backward


# A train-mode forward records one backward step per layer, in forward
# order; ``backward_from_context`` pops them off the tape in reverse and
# runs each, so a step's saved arrays are freed once it has run and the
# backward consumes the tape.  A step maps the layer's output gradient to
# its input gradient and writes the gradient of each parameter array it
# read into the shared grads, keyed by the array's id; a decoder level's
# step also leaves its skip's gradient there for the tap step of the
# skip's encoder stage.  Besides its contexts a step holds only its
# layer's input: the stem and stage-9 steps their conv unit's, a decoder
# level's step the features it upsamples.  MBConv steps bind
# ``B.mbconv_backward`` when the forward records them, so a tracer that
# patches ``blocks`` sees them only if it is installed before the forward
# runs; the other steps, and the conv units (``B.ConvUnit``), look the
# block backwards and kernels up in ``blocks`` when they run.
Step = Callable[[np.ndarray, B.GradDict], np.ndarray]  # (grad_out, grads) -> input gradient
Tape = list[Step]


def _check_input(cfg: ModelConfig, x: Tensor4, dtype: np.dtype, mode: str) -> None:
    s = cfg.input_size
    if x.dims[1:] != (1, s, s):
        raise ShapeError(f"input {x.dims} does not match expected (n, 1, {s}, {s})")
    if not x.n:  # the SE gate has no mean; for train mode's BN, see below
        raise InputError(f"input {x.dims} has no images")
    side = s // OUTPUT_STRIDE  # the bottleneck's side
    if mode == TRAIN and x.n * side * side < 2:  # train-mode BN needs 2 values per channel
        raise DegenerateBatchError(f"a train batch of {x.n} at {s}x{s} gives BN one value per "
                                   f"channel at the {side}x{side} bottleneck; it needs 2")
    if x.data.dtype != dtype:  # the kernels compute in the input's dtype
        raise InputError(f"input dtype {x.data.dtype} does not match the parameters' dtype {dtype}")
    bad = x.data.size - np.count_nonzero(np.isfinite(x.data))
    if bad:
        raise InputError(f"input has {bad} non-finite pixels (NaN or inf)")


def _level_input(gated: Tensor4, up: Tensor4) -> Tensor4:
    """A decoder level's residual-block input, [gated skip, upsampled
    features] along channels.  The forward passes the gate's output, the
    backward ``B.gated_skip`` of the gate's saved skip and alpha, which
    gives the same bytes."""
    return Tensor4(np.concatenate([gated.data, up.data], axis=1))


def _level_step(
    gate_ctx: B.GateCtx, res_ctx: B.ResCtx, feats: Tensor4, g: np.ndarray, grads: B.GradDict
) -> np.ndarray:
    """Backward of a decoder level, upsample -> gate -> concat -> residual
    block, from its input features: it recomputes the upsample and the
    concat.  The skip's gradient waits in grads, under its array's id, for
    the tap step of its encoder stage."""
    up = upsample_bilinear_2x(feats)
    skip = gate_ctx.x
    cat = _level_input(B.gated_skip(skip, gate_ctx.alpha), up)
    g = B.residual_block_backward(res_ctx, cat, g, grads)
    del cat
    c = skip.dims[1]
    grads[id(skip.data)], g_up = B.attention_gate_backward(gate_ctx, up, g[:, :c], grads)
    del up
    g_up += g[:, c:]
    return upsample_bilinear_2x_backward(feats, g_up)


def _tap_step(skip: np.ndarray, g: np.ndarray, grads: B.GradDict) -> np.ndarray:
    return g + grads.pop(id(skip))


def _head_step(
    x: Tensor4, conv: ConvParams, y: np.ndarray, g: np.ndarray, grads: B.GradDict
) -> np.ndarray:
    g = activate_backward(y, "sigmoid", g)
    g, grads[id(conv.weight)], grads[id(conv.bias)] = conv2d_backward(x, conv, g)
    return g


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
    cat = _level_input(gated, up)
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
    returns no tape.  The head clips its sigmoid into (0, 1), to
    [finfo.tiny, nextafter(1, 0)], before its tape step saves it.
    """
    if mode not in (TRAIN, INFER):
        raise ParameterError(f"mode must be '{TRAIN}' or '{INFER}', got {mode!r}")
    _check_input(cfg, x, params.out_conv.weight.dtype, mode)
    tape: Tape | None = [] if mode == TRAIN else None
    if tape is not None and rng is None:
        raise ParameterError("a train-mode forward needs an rng for stochastic depth, got rng=None")
    skips: list[Tensor4] = []
    feats = x
    for si, ((kind, *_), stage) in enumerate(zip(BASE_STAGES, params.stages), start=1):
        if kind == "conv":  # a swish conv unit; its tape step holds its input
            out, unit = B.conv_bn_act(feats, *stage, mode, "swish")
            if tape is not None:
                tape.append(partial(unit.backward, feats))
            feats = out
        else:
            for blk in stage:
                feats, ctx = B.mbconv_forward(feats, blk, mode, rng)
                if tape is not None:
                    tape.append(partial(B.mbconv_backward, ctx))
                del ctx
        if si in SKIP_STAGES:  # keep its output for its decoder level
            skips.append(feats)
            if tape is not None:
                tape.append(partial(_tap_step, feats.data))

    for gate, res in params.levels:
        feats = _decoder_level(tape, feats, skips.pop(), gate, res, mode)

    y = activate(conv2d(feats, params.out_conv), "sigmoid")[0]
    np.clip(y.data, np.finfo(y.data.dtype).tiny, np.nextafter(y.data.dtype.type(1), 0), out=y.data)
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
    every value strictly in (0,1) (the head's clip in ``_run_forward``).
    The input must have the parameters' dtype; train mode needs an rng."""
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
    recorded with another model's params.  The tape is consumed: each step
    is popped off it as it runs, so its saved arrays are freed once its
    gradient is taken, and the tape is empty afterwards."""
    if not ctx:  # a recorded tape is never empty
        raise ParameterError("the tape is empty: a backward consumes its tape, so each backward "
                             "needs a new forward_training")
    grads: B.GradDict = {}
    g = grad_out
    while ctx:
        g = ctx.pop()(g, grads)
    named = {name: grads.pop(id(arr), None) for name, arr in named_trainable(params).items()}
    missing = [name for name, grad in named.items() if grad is None]
    if missing or grads:
        raise ParameterError(f"the tape was not recorded with these params: no gradient for "
                             f"{missing[:3]} ({len(missing)} in all), {len(grads)} for other arrays")
    return named, g
