"""Composite network blocks built from the tensor kernels.

Each block is a pure function pair: ``*_forward`` returns the output plus
a context of saved intermediates, ``*_backward`` consumes that context and
the output gradient and returns the input gradient together with a dict of
parameter gradients.  Its keys are the dotted field paths of the block's
parameter dataclass that ``named_arrays`` yields as trainable
("fc1.weight", "se.fc2.bias", ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from typing import Iterator

import numpy as np

from .errors import ShapeError, StateError
from .tensor import (
    TRAIN,
    BatchNormState,
    BnSaved,
    ConvParams,
    Tensor4,
    activate,
    activate_backward,
    apply_keep_mask,
    batchnorm2d,
    batchnorm2d_backward,
    conv2d,
    conv2d_backward,
    global_avg_pool,
    global_avg_pool_backward,
    linear,
    linear_backward,
    sample_keep_mask,
)

GradDict = dict[str, np.ndarray]


@dataclass
class LinearParams:
    weight: np.ndarray  # (k, m)
    bias: np.ndarray  # (m,)


@dataclass
class SeBlockParams:
    """Squeeze-and-excitation: two fully connected layers around a swish."""

    fc1: LinearParams  # c -> c_squeeze
    fc2: LinearParams  # c_squeeze -> c


@dataclass(kw_only=True)
class MbConvParams:
    """Mobile inverted bottleneck with SE gating and optional shortcut.

    expand_conv is absent for expansion ratio 1.  has_shortcut must hold
    exactly when stride == 1 and in/out channel counts match.
    """

    expand_conv: ConvParams | None = None
    expand_bn: BatchNormState | None = None
    dw_conv: ConvParams
    dw_bn: BatchNormState
    se: SeBlockParams
    project_conv: ConvParams
    project_bn: BatchNormState
    survive_p: float = 1.0
    has_shortcut: bool = False


@dataclass
class AttentionGateParams:
    """Spatial gating of an encoder skip, conditioned on decoder features."""

    wg: ConvParams  # gate channels -> inter, 1x1, no bias
    wx: ConvParams  # skip channels -> inter, 1x1, no bias
    psi: ConvParams  # inter -> 1, 1x1, with bias

    def __post_init__(self) -> None:
        if self.wg.out_channels != self.wx.out_channels:
            raise ShapeError(
                f"gate inter channels disagree: wg {self.wg.out_channels} "
                f"vs wx {self.wx.out_channels}"
            )


@dataclass
class ResBlockParams:
    """Two 3x3 conv+BN+ReLU stages plus an identity or 1x1-projected shortcut."""

    conv1: ConvParams
    bn1: BatchNormState
    conv2: ConvParams
    bn2: BatchNormState
    shortcut_proj: ConvParams | None = None


def named_arrays(obj, prefix: str = "") -> Iterator[tuple[str, np.ndarray, bool]]:
    """Yield (name, array, trainable) for every ndarray field of a parameter
    dataclass, in field order, recursing into dataclass fields.

    Names are dotted field paths under `prefix`; None and non-array fields
    (stride, eps, survive_p, ...) are skipped.  A field is trainable unless
    its metadata says ``trainable=False``.  Arrays are the live objects.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        name = f"{prefix}.{f.name}" if prefix else f.name
        if isinstance(value, np.ndarray):
            yield name, value, f.metadata.get("trainable", True)
        elif is_dataclass(value):
            yield from named_arrays(value, name)


# ---------------------------------------------------------------------------
# initializers


def he_normal_conv(rng: np.random.Generator, out_c, in_c_per_group, kh, kw, dtype) -> np.ndarray:
    fan_out = out_c * kh * kw
    std = math.sqrt(2.0 / fan_out)
    return (rng.standard_normal((out_c, in_c_per_group, kh, kw)) * std).astype(dtype)


def init_conv(
    rng, in_c, out_c, k, stride=1, padding=None, groups=1, bias=False, dtype=np.float32
) -> ConvParams:
    if padding is None:
        padding = k // 2
    w = he_normal_conv(rng, out_c, in_c // groups, k, k, dtype)
    b = np.zeros(out_c, dtype=dtype) if bias else None
    return ConvParams(weight=w, bias=b, stride=stride, padding=padding, groups=groups)


def init_bn(c, dtype=np.float32) -> BatchNormState:
    return BatchNormState(
        gamma=np.ones(c, dtype=dtype),
        beta=np.zeros(c, dtype=dtype),
        running_mean=np.zeros(c, dtype=dtype),
        running_var=np.ones(c, dtype=dtype),
    )


def init_linear(rng, k, m, dtype=np.float32) -> LinearParams:
    bound = 1.0 / math.sqrt(k)
    return LinearParams(
        weight=rng.uniform(-bound, bound, (k, m)).astype(dtype),
        bias=rng.uniform(-bound, bound, m).astype(dtype),
    )


def se_squeeze_width(c: int) -> int:
    return max(1, round(c / 4))


def init_se(rng, c, c_squeeze=None, dtype=np.float32) -> SeBlockParams:
    cs = se_squeeze_width(c) if c_squeeze is None else c_squeeze
    return SeBlockParams(fc1=init_linear(rng, c, cs, dtype), fc2=init_linear(rng, cs, c, dtype))


def init_mbconv(
    rng, in_c, out_c, kernel, stride, expansion, survive_p=1.0, dtype=np.float32
) -> MbConvParams:
    hidden = in_c * expansion
    expand_conv = expand_bn = None
    if expansion != 1:
        expand_conv = init_conv(rng, in_c, hidden, 1, dtype=dtype)
        expand_bn = init_bn(hidden, dtype)
    return MbConvParams(
        expand_conv=expand_conv,
        expand_bn=expand_bn,
        dw_conv=init_conv(rng, hidden, hidden, kernel, stride=stride, groups=hidden, dtype=dtype),
        dw_bn=init_bn(hidden, dtype),
        se=init_se(rng, hidden, dtype=dtype),
        project_conv=init_conv(rng, hidden, out_c, 1, dtype=dtype),
        project_bn=init_bn(out_c, dtype),
        survive_p=survive_p,
        has_shortcut=(stride == 1 and in_c == out_c),
    )


def gate_inter_width(skip_c: int) -> int:
    return max(1, skip_c // 2)


def init_attention_gate(rng, skip_c, gate_c, inter=None, dtype=np.float32) -> AttentionGateParams:
    ic = gate_inter_width(skip_c) if inter is None else inter
    return AttentionGateParams(
        wg=init_conv(rng, gate_c, ic, 1, dtype=dtype),
        wx=init_conv(rng, skip_c, ic, 1, dtype=dtype),
        psi=init_conv(rng, ic, 1, 1, bias=True, dtype=dtype),
    )


def init_res_block(rng, in_c, out_c, dtype=np.float32) -> ResBlockParams:
    proj = None if in_c == out_c else init_conv(rng, in_c, out_c, 1, dtype=dtype)
    return ResBlockParams(
        conv1=init_conv(rng, in_c, out_c, 3, dtype=dtype),
        bn1=init_bn(out_c, dtype),
        conv2=init_conv(rng, out_c, out_c, 3, dtype=dtype),
        bn2=init_bn(out_c, dtype),
        shortcut_proj=proj,
    )


# ---------------------------------------------------------------------------
# conv -> batch norm -> activation


@dataclass
class ConvBnCtx:
    conv: ConvParams
    bn: BatchNormState
    kind: str | None  # activation kind, None for no activation
    x: Tensor4  # conv input
    saved: BnSaved | None
    act_in: Tensor4 | None  # BN output; kept only when an activation follows


def _fold_bn(conv: ConvParams, bn: BatchNormState) -> ConvParams:
    """The conv whose output equals infer-mode bn(conv(x)): each output
    channel's weights and bias scaled by gamma/sqrt(running_var + eps),
    computed in float64, and the bias shifted by beta - running_mean*scale
    (Jacob et al., arXiv:1712.05877)."""
    scale = bn.gamma.astype(np.float64) / np.sqrt(bn.running_var.astype(np.float64) + bn.eps)
    bias = bn.beta.astype(np.float64) - bn.running_mean.astype(np.float64) * scale
    if conv.bias is not None:
        bias += conv.bias.astype(np.float64) * scale
    dt = conv.weight.dtype
    return ConvParams(
        weight=(conv.weight * scale[:, None, None, None]).astype(dt),
        bias=bias.astype(dt),
        stride=conv.stride,
        padding=conv.padding,
        groups=conv.groups,
    )


def conv_bn_act(
    x: Tensor4, conv: ConvParams, bn: BatchNormState, mode: str, kind: str | None = None
) -> tuple[Tensor4, ConvBnCtx | None]:
    """activation(bn(conv(x))) with BN in `mode`; kind None applies no activation.

    Infer mode runs one conv with the BN folded in (``_fold_bn``) and saves
    no context.  It matches the unfused conv2d -> batchnorm2d -> activate
    to float rounding, not bit for bit; train mode runs the unfused chain.
    """
    if mode != TRAIN:
        out = conv2d(x, _fold_bn(conv, bn))
        return (out if kind is None else activate(out, kind)), None
    bn.mode = mode  # the only write: batchnorm2d reads the mode from its state
    act_in, saved = batchnorm2d(conv2d(x, conv), bn)
    if kind is None:
        return act_in, ConvBnCtx(conv, bn, kind, x, saved, None)
    return activate(act_in, kind), ConvBnCtx(conv, bn, kind, x, saved, act_in)


def conv_bn_act_backward(
    ctx: ConvBnCtx | None, grad_out: np.ndarray, grads: GradDict, conv_name: str, bn_name: str
) -> np.ndarray:
    """Input gradient of conv_bn_act; writes ``{conv_name}.weight``,
    ``{bn_name}.gamma`` and ``{bn_name}.beta`` into grads."""
    if ctx is None:
        raise StateError("conv_bn_act_backward needs the context of a train-mode forward")
    g = grad_out if ctx.kind is None else activate_backward(ctx.act_in, ctx.kind, grad_out)
    g, grads[f"{bn_name}.gamma"], grads[f"{bn_name}.beta"] = batchnorm2d_backward(
        ctx.saved, ctx.bn, g
    )
    g, grads[f"{conv_name}.weight"], _ = conv2d_backward(ctx.x, ctx.conv, g)
    return g


# ---------------------------------------------------------------------------
# squeeze and excitation


@dataclass
class SeCtx:
    p: SeBlockParams
    x: Tensor4
    v: np.ndarray
    h1: np.ndarray
    a1: np.ndarray
    h2: np.ndarray
    s: np.ndarray


def _vec_activate(arr: np.ndarray, kind: str) -> np.ndarray:
    n, c = arr.shape
    return activate(Tensor4(arr.reshape(n, c, 1, 1)), kind).data.reshape(n, c)


def _vec_activate_backward(arr: np.ndarray, kind: str, grad: np.ndarray) -> np.ndarray:
    n, c = arr.shape
    return activate_backward(
        Tensor4(arr.reshape(n, c, 1, 1)), kind, grad.reshape(n, c, 1, 1)
    ).reshape(n, c)


def se_block_forward(x: Tensor4, p: SeBlockParams) -> tuple[Tensor4, SeCtx]:
    """Per-channel gating: x scaled by sigmoid(fc2(swish(fc1(gap(x)))))."""
    if x.c != p.fc1.weight.shape[0]:
        raise ShapeError(
            f"SE input channels {x.dims} do not match fc1 width {p.fc1.weight.shape}"
        )
    v = global_avg_pool(x).data.reshape(x.n, x.c)
    h1 = linear(v, p.fc1.weight, p.fc1.bias)
    a1 = _vec_activate(h1, "swish")
    h2 = linear(a1, p.fc2.weight, p.fc2.bias)
    s = _vec_activate(h2, "sigmoid")
    y = Tensor4(x.data * s[:, :, None, None])
    return y, SeCtx(p, x, v, h1, a1, h2, s)


def se_block_backward(ctx: SeCtx, grad_out: np.ndarray) -> tuple[np.ndarray, GradDict]:
    p, x = ctx.p, ctx.x
    grad_x = grad_out * ctx.s[:, :, None, None]
    ds = np.sum(grad_out * x.data, axis=(2, 3), dtype=np.float64).astype(x.data.dtype)
    dh2 = _vec_activate_backward(ctx.h2, "sigmoid", ds)
    da1, gw2, gb2 = linear_backward(ctx.a1, p.fc2.weight, dh2)
    dh1 = _vec_activate_backward(ctx.h1, "swish", da1)
    dv, gw1, gb1 = linear_backward(ctx.v, p.fc1.weight, dh1)
    grad_x = grad_x + global_avg_pool_backward(x, dv.reshape(x.n, x.c, 1, 1))
    grads = {"fc1.weight": gw1, "fc1.bias": gb1, "fc2.weight": gw2, "fc2.bias": gb2}
    return grad_x, grads


# ---------------------------------------------------------------------------
# mobile inverted bottleneck


@dataclass
class MbConvCtx:
    p: MbConvParams
    x: Tensor4
    expand: ConvBnCtx | None
    dw: ConvBnCtx | None  # unit contexts are None in infer mode
    se_ctx: SeCtx
    proj: ConvBnCtx | None
    keep_mask: np.ndarray | None


def mbconv_forward(
    x: Tensor4, p: MbConvParams, mode: str, rng: np.random.Generator
) -> tuple[Tensor4, MbConvCtx]:
    """Expand -> depthwise -> SE -> project, with BN/swish between stages
    and a drop-connected shortcut when the shapes allow one.  Only train
    mode draws a keep mask from rng."""
    h, expand = x, None
    if p.expand_conv is not None:
        h, expand = conv_bn_act(x, p.expand_conv, p.expand_bn, mode, "swish")
    h, dw = conv_bn_act(h, p.dw_conv, p.dw_bn, mode, "swish")
    h, se_ctx = se_block_forward(h, p.se)
    y, proj = conv_bn_act(h, p.project_conv, p.project_bn, mode)

    keep_mask = None
    if p.has_shortcut:
        if mode == TRAIN and p.survive_p < 1.0:
            keep_mask = sample_keep_mask(x.n, p.survive_p, rng)
            y = apply_keep_mask(y, keep_mask, p.survive_p)
        y = Tensor4(x.data + y.data)
    return y, MbConvCtx(p, x, expand, dw, se_ctx, proj, keep_mask)


def mbconv_backward(ctx: MbConvCtx, grad_out: np.ndarray) -> tuple[np.ndarray, GradDict]:
    p = ctx.p
    grads: GradDict = {}
    g = grad_out
    if ctx.keep_mask is not None:
        scale = (ctx.keep_mask / p.survive_p).astype(g.dtype)
        g = g * scale[:, None, None, None]
    g = conv_bn_act_backward(ctx.proj, g, grads, "project_conv", "project_bn")
    g, se_grads = se_block_backward(ctx.se_ctx, g)
    grads.update({f"se.{k}": v for k, v in se_grads.items()})
    g = conv_bn_act_backward(ctx.dw, g, grads, "dw_conv", "dw_bn")
    if ctx.expand is not None:
        g = conv_bn_act_backward(ctx.expand, g, grads, "expand_conv", "expand_bn")
    return (grad_out + g if p.has_shortcut else g), grads


# ---------------------------------------------------------------------------
# attention gate


@dataclass
class GateCtx:
    p: AttentionGateParams
    x: Tensor4
    g: Tensor4
    sum_pre: Tensor4
    relu_out: Tensor4
    psi_pre: Tensor4
    alpha: np.ndarray


def attention_gate_forward(
    x: Tensor4, g: Tensor4, p: AttentionGateParams
) -> tuple[Tensor4, GateCtx]:
    """Multiply skip features x by a mask in (0,1) computed from x and the
    decoder features g, which must have x's batch size and resolution."""
    xa = conv2d(x, p.wx)
    ga = conv2d(g, p.wg)
    if xa.dims != ga.dims:
        raise ShapeError(f"gate inter features disagree: {xa.dims} vs {ga.dims}")
    sum_pre = Tensor4(xa.data + ga.data)
    relu_out = activate(sum_pre, "relu")
    psi_pre = conv2d(relu_out, p.psi)
    alpha = activate(psi_pre, "sigmoid").data  # (n, 1, hx, wx)
    y = Tensor4(x.data * alpha)
    return y, GateCtx(p, x, g, sum_pre, relu_out, psi_pre, alpha)


def attention_gate_backward(ctx: GateCtx, grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray, GradDict]:
    p, x = ctx.p, ctx.x
    grad_x = grad_out * ctx.alpha
    dalpha = np.sum(grad_out * x.data, axis=1, keepdims=True, dtype=np.float64).astype(
        x.data.dtype
    )
    dpsi_pre = activate_backward(ctx.psi_pre, "sigmoid", dalpha)
    drelu, gw_psi, gb_psi = conv2d_backward(ctx.relu_out, p.psi, dpsi_pre)
    dsum = activate_backward(ctx.sum_pre, "relu", drelu)
    dx2, gw_wx, _ = conv2d_backward(x, p.wx, dsum)
    dg, gw_wg, _ = conv2d_backward(ctx.g, p.wg, dsum)
    grad_x = grad_x + dx2
    grads = {"wx.weight": gw_wx, "wg.weight": gw_wg, "psi.weight": gw_psi, "psi.bias": gb_psi}
    return grad_x, dg, grads


# ---------------------------------------------------------------------------
# residual decoder block


@dataclass
class ResCtx:
    p: ResBlockParams
    unit1: ConvBnCtx | None  # None in infer mode
    unit2: ConvBnCtx | None


def residual_block_forward(x: Tensor4, p: ResBlockParams, mode: str) -> tuple[Tensor4, ResCtx]:
    """relu(bn2(conv2(relu(bn1(conv1(x)))))) plus an identity or projected
    shortcut, with both BNs in `mode`; spatial dims are preserved."""
    r1, unit1 = conv_bn_act(x, p.conv1, p.bn1, mode, "relu")
    r2, unit2 = conv_bn_act(r1, p.conv2, p.bn2, mode, "relu")
    if p.shortcut_proj is None:
        sc = x.data
    else:
        sc = conv2d(x, p.shortcut_proj).data
    y = Tensor4(r2.data + sc)
    return y, ResCtx(p, unit1, unit2)


def residual_block_backward(ctx: ResCtx, grad_out: np.ndarray) -> tuple[np.ndarray, GradDict]:
    p = ctx.p
    grads: GradDict = {}
    g = conv_bn_act_backward(ctx.unit2, grad_out, grads, "conv2", "bn2")
    g = conv_bn_act_backward(ctx.unit1, g, grads, "conv1", "bn1")
    if p.shortcut_proj is None:
        return g + grad_out, grads
    gsc, grads["shortcut_proj.weight"], _ = conv2d_backward(ctx.unit1.x, p.shortcut_proj, grad_out)
    return g + gsc, grads
