"""Composite network blocks built from the tensor kernels.

Each block is a pure function pair: ``*_forward`` returns the output plus
a context of saved intermediates, ``*_backward(ctx, ..., grad_out, grads)``
consumes that context and the output gradient, returns the input gradient
and writes the gradient of every trainable array the block read into
``grads``, keyed by ``id(array)``.  Backwards name no parameter: the caller
names the gradients from its own walk of the arrays (``named_arrays``).

Train mode saves little and recomputes the elementwise rest in backward
(In-Place ABN, Rota Bulo et al., arXiv:1712.02616): a conv -> BN ->
activation unit (``conv_bn_act``) keeps only BN's saved ``(xh, inv)`` in
a ``ConvUnit``, which recomputes the unit's output from ``xh`` bit for bit.
No conv and no ``batchnorm2d`` runs again, so the running statistics update
once.  A backward whose input no context holds (the SE, attention-gate and
residual blocks, and the unit) takes that input from its caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from typing import Iterator

import numpy as np

from .errors import ParameterError, ShapeError
from .tensor import (
    INFER,
    TRAIN,
    ActSaved,
    BatchNormState,
    BnSaved,
    ConvParams,
    Tensor4,
    activate,
    activate_backward,
    batchnorm2d,
    batchnorm2d_backward,
    bn_affine,
    conv2d,
    conv2d_backward,
    flush_subnormal,
    fold_bn,
)

GradDict = dict[int, np.ndarray]  # id(array) -> its gradient


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

    expand_conv is absent for expansion ratio 1.
    """

    expand_conv: ConvParams | None = None
    expand_bn: BatchNormState | None = None
    dw_conv: ConvParams
    dw_bn: BatchNormState
    se: SeBlockParams
    project_conv: ConvParams
    project_bn: BatchNormState
    survive_p: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.survive_p <= 1.0:
            raise ParameterError(f"survive_p must be in (0,1], got {self.survive_p}")

    @property
    def has_shortcut(self) -> bool:
        """True exactly when stride == 1 and in/out channel counts match."""
        first = self.dw_conv if self.expand_conv is None else self.expand_conv
        return self.dw_conv.stride == 1 and first.in_channels == self.project_conv.out_channels


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
    """Two 3x3 conv+BN+ReLU stages plus a 1x1-projected shortcut.

    A decoder level's input (gated skip + upsampled features) is always
    wider than its output, so the shortcut always projects."""

    conv1: ConvParams
    bn1: BatchNormState
    conv2: ConvParams
    bn2: BatchNormState
    shortcut_proj: ConvParams


def named_arrays(obj, prefix: str = "") -> Iterator[tuple[str, np.ndarray, bool]]:
    """Yield (name, array, trainable) for every ndarray field of a parameter
    dataclass, in field order, recursing into dataclass fields.

    Names are dotted field paths under `prefix`; None and non-array fields
    (stride, survive_p, ...) are skipped.  A field is trainable unless
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


def init_conv(rng, in_c, out_c, k, stride=1, groups=1, bias=False, dtype=np.float32) -> ConvParams:
    """He-normal k×k conv with "same" padding (k // 2)."""
    w = he_normal_conv(rng, out_c, in_c // groups, k, k, dtype)
    b = np.zeros(out_c, dtype=dtype) if bias else None
    return ConvParams(weight=w, bias=b, stride=stride, padding=k // 2, groups=groups)


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


def init_se(rng, c, dtype=np.float32) -> SeBlockParams:
    cs = se_squeeze_width(c)
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
    )


def gate_inter_width(skip_c: int) -> int:
    return max(1, skip_c // 2)


def init_attention_gate(rng, skip_c, gate_c, dtype=np.float32) -> AttentionGateParams:
    ic = gate_inter_width(skip_c)
    return AttentionGateParams(
        wg=init_conv(rng, gate_c, ic, 1, dtype=dtype),
        wx=init_conv(rng, skip_c, ic, 1, dtype=dtype),
        psi=init_conv(rng, ic, 1, 1, bias=True, dtype=dtype),
    )


def init_res_block(rng, in_c, out_c, dtype=np.float32) -> ResBlockParams:
    # drawn before conv1, so a seed keeps giving the same arrays
    proj = init_conv(rng, in_c, out_c, 1, dtype=dtype)
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
class ConvUnit:
    """A train-mode conv -> BN -> activation unit after its forward: its
    params, its activation kind (None for none) and BN's saved ``(xh, inv)``.
    It holds neither its input nor its output.  Its methods look their
    kernels up in ``blocks`` when they run."""

    conv: ConvParams
    bn: BatchNormState
    kind: str | None
    saved: BnSaved

    def output(self) -> tuple[Tensor4, ActSaved | None]:
        """The forward's output, recomputed bit for bit from ``xh``, and what
        ``activate`` saved for its backward (None without an activation)."""
        out = Tensor4(bn_affine(self.saved[0], self.bn))
        return (out, None) if self.kind is None else activate(out, self.kind)

    def backward(
        self, x: Tensor4, g: np.ndarray, grads: GradDict, act: ActSaved | None = None
    ) -> np.ndarray:
        """Input gradient from the unit's input `x` and output gradient `g`:
        ``conv_backward`` of ``bn_backward``."""
        return self.conv_backward(x, self.bn_backward(g, grads, act), grads)

    def bn_backward(self, g: np.ndarray, grads: GradDict, act: ActSaved | None = None) -> np.ndarray:
        """Gradient at the conv output from the output gradient `g`, through
        the activation and the BN; writes the gamma and beta gradients into
        grads.  `act` is ``output()``'s saved values if the caller already
        recomputed them, so the activation is not recomputed twice."""
        if self.kind is not None:
            g = activate_backward(self.output()[1] if act is None else act, self.kind, g)
        g, grads[id(self.bn.gamma)], grads[id(self.bn.beta)] = batchnorm2d_backward(
            self.saved, self.bn, g)
        return g

    def conv_backward(self, x: Tensor4, g: np.ndarray, grads: GradDict) -> np.ndarray:
        """Input gradient from the unit's input `x` and the gradient `g` at the
        conv output; writes the conv weight's gradient into grads."""
        g, grads[id(self.conv.weight)], _ = conv2d_backward(x, self.conv, g)
        return g


def conv_bn_act(
    x: Tensor4, conv: ConvParams, bn: BatchNormState, mode: str, kind: str | None = None
) -> tuple[Tensor4, ConvUnit | None]:
    """activation(bn(conv(x))) with BN in `mode`; kind None applies no activation.

    Train mode runs conv2d -> batchnorm2d -> activate and returns the
    ``ConvUnit`` for its backward.
    Infer mode runs one conv with the BN folded in (``tensor.fold_bn``), returns
    None for it, and matches the running-stat BN formula to float rounding.
    Any other mode raises ParameterError.
    """
    if mode == INFER:
        out = conv2d(x, fold_bn(conv, bn))
        return (out if kind is None else activate(out, kind)[0]), None
    if mode != TRAIN:
        raise ParameterError(f"mode must be '{TRAIN}' or '{INFER}', got {mode!r}")
    out, saved = batchnorm2d(conv2d(x, conv), bn)
    unit = ConvUnit(conv, bn, kind, saved)
    return (out if kind is None else activate(out, kind)[0]), unit


# ---------------------------------------------------------------------------
# squeeze and excitation


@dataclass
class SeCtx:
    p: SeBlockParams
    v: np.ndarray  # (n, c) channel means
    act1: ActSaved  # (sigmoid(h1), swish(h1)) of the fc1 output h1, each (n, c_squeeze, 1, 1)
    s: np.ndarray  # (n, c, 1, 1) sigmoid of the fc2 output, the gate


def se_block_forward(x: Tensor4, p: SeBlockParams) -> tuple[Tensor4, SeCtx]:
    """Per-channel gating: x scaled by sigmoid(fc2(swish(fc1(mean(x))))),
    the mean over each (h, w) plane accumulated in float64.

    Unlike the attention gate's, the product is not flushed of subnormals:
    no encoder conv has been seen to read one, in train or in infer, and a
    flush would cost every MBConv."""
    if x.dims[1] != p.fc1.weight.shape[0]:
        raise ShapeError(
            f"SE input channels {x.dims} do not match fc1 width {p.fc1.weight.shape}"
        )
    v = np.mean(x.data, axis=(2, 3), dtype=np.float64).astype(x.data.dtype)
    a1, act1 = activate(Tensor4((v @ p.fc1.weight + p.fc1.bias)[:, :, None, None]), "swish")
    h2 = Tensor4((a1.data.reshape(x.n, -1) @ p.fc2.weight + p.fc2.bias)[:, :, None, None])
    s = activate(h2, "sigmoid")[0].data
    return Tensor4(x.data * s), SeCtx(p, v, act1, s)


def se_block_backward(ctx: SeCtx, x: Tensor4, grad_out: np.ndarray, grads: GradDict) -> np.ndarray:
    """Gradient of the SE input `x` (the forward's input, from the caller)."""
    p = ctx.p
    dt = x.data.dtype
    ds = np.sum(grad_out * x.data, axis=(2, 3), keepdims=True, dtype=np.float64).astype(dt)
    dh2 = activate_backward(ctx.s, "sigmoid", ds).reshape(x.n, -1)
    da1 = dh2 @ p.fc2.weight.T
    dh1 = activate_backward(ctx.act1, "swish", da1[:, :, None, None]).reshape(x.n, -1)
    # each pixel's share of its channel mean
    dx_mean = (dh1 @ p.fc1.weight.T) * np.asarray(1.0 / (x.dims[2] * x.dims[3]), dtype=dt)
    grad_x = grad_out * ctx.s
    grad_x += dx_mean.astype(dt, copy=False)[:, :, None, None]
    grads[id(p.fc1.weight)] = (ctx.v.T @ dh1).astype(p.fc1.weight.dtype, copy=False)
    grads[id(p.fc1.bias)] = dh1.sum(axis=0)
    grads[id(p.fc2.weight)] = (ctx.act1[1].reshape(x.n, -1).T @ dh2).astype(
        p.fc2.weight.dtype, copy=False)
    grads[id(p.fc2.bias)] = dh2.sum(axis=0)
    return grad_x


# ---------------------------------------------------------------------------
# mobile inverted bottleneck


@dataclass
class MbConvCtx:
    p: MbConvParams
    x: Tensor4  # block input, read by the expand (or, without one, depthwise) unit
    # the conv units; None in infer mode, expand also without expansion
    expand: ConvUnit | None
    dw: ConvUnit | None
    se_ctx: SeCtx
    proj: ConvUnit | None
    # per-sample drop-connect factor, 0 or 1/survive_p; None when nothing was drawn
    scale: np.ndarray | None


def mbconv_forward(
    x: Tensor4, p: MbConvParams, mode: str, rng: np.random.Generator
) -> tuple[Tensor4, MbConvCtx]:
    """Expand -> depthwise -> SE -> project, with BN/swish between stages
    and a drop-connected shortcut when the shapes allow one.  Only train
    mode with survive_p < 1 draws from rng: each sample's residual branch
    is kept with probability survive_p and scaled by 1/survive_p, which
    preserves its expectation."""
    h, expand = x, None
    if p.expand_conv is not None:
        h, expand = conv_bn_act(x, p.expand_conv, p.expand_bn, mode, "swish")
    h, dw = conv_bn_act(h, p.dw_conv, p.dw_bn, mode, "swish")
    h, se_ctx = se_block_forward(h, p.se)
    y, proj = conv_bn_act(h, p.project_conv, p.project_bn, mode)

    scale = None
    if p.has_shortcut:
        if mode == TRAIN and p.survive_p < 1.0:
            scale = ((rng.random(x.n) < p.survive_p) / p.survive_p).astype(y.data.dtype)
            y = Tensor4(y.data * scale[:, None, None, None])
        y = Tensor4(x.data + y.data)
    return y, MbConvCtx(p, x, expand, dw, se_ctx, proj, scale)


def mbconv_backward(ctx: MbConvCtx, grad_out: np.ndarray, grads: GradDict) -> np.ndarray:
    """Recomputes the depthwise output h, then the SE product h*s (the
    projection's input), then the expand output (the depthwise input), each
    from its unit's saved values and dropped after its last use."""
    g = grad_out
    if ctx.scale is not None:
        g = g * ctx.scale[:, None, None, None]
    h, act = ctx.dw.output()
    g = ctx.proj.backward(Tensor4(h.data * ctx.se_ctx.s), g, grads)
    g = se_block_backward(ctx.se_ctx, h, g, grads)
    g = ctx.dw.bn_backward(g, grads, act)
    del h, act
    if ctx.expand is None:
        g = ctx.dw.conv_backward(ctx.x, g, grads)
    else:
        h, act = ctx.expand.output()
        g = ctx.dw.conv_backward(h, g, grads)
        g = ctx.expand.backward(ctx.x, g, grads, act)
    return grad_out + g if ctx.p.has_shortcut else g


# ---------------------------------------------------------------------------
# attention gate


@dataclass
class GateCtx:
    p: AttentionGateParams
    x: Tensor4
    relu_out: Tensor4
    alpha: np.ndarray


def attention_gate_forward(
    x: Tensor4, g: Tensor4, p: AttentionGateParams
) -> tuple[Tensor4, GateCtx]:
    """Multiply skip features x by a mask in [0, 1] computed from x and the
    decoder features g, which must have x's batch size and resolution.

    alpha is the plain sigmoid, exactly 0 where it saturates, not clipped
    into (0, 1) as the model's head clips probabilities.  That alone does not
    keep subnormals away: alpha itself falls below tiny for pre-activations
    in about (-88.7, -87.3), and x*alpha already does for alpha below about
    tiny/|x|.  x86 runs every multiply-add with a subnormal operand through
    a slow microcode assist, so the product is flushed (``gated_skip``)."""
    xa = conv2d(x, p.wx)
    ga = conv2d(g, p.wg)
    if xa.dims != ga.dims:
        raise ShapeError(f"gate inter features disagree: {xa.dims} vs {ga.dims}")
    relu_out = activate(Tensor4(xa.data + ga.data), "relu")[0]
    alpha = activate(conv2d(relu_out, p.psi), "sigmoid")[0].data  # (n, 1, hx, wx)
    return gated_skip(x, alpha), GateCtx(p, x, relu_out, alpha)


def gated_skip(x: Tensor4, alpha: np.ndarray) -> Tensor4:
    """x*alpha with its subnormal products flushed (``flush_subnormal``): the
    gate's output, and the same bytes when a backward recomputes it."""
    return Tensor4(flush_subnormal(x.data * alpha))


def attention_gate_backward(
    ctx: GateCtx, g: Tensor4, grad_out: np.ndarray, grads: GradDict
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the skip x and of the decoder features `g` (the
    forward's, from the caller).  The skip's gradient, grad_out*alpha plus
    what reaches x through wx, is subnormal where alpha nears tiny, and is
    flushed like the forward's product (``gated_skip``)."""
    p, x = ctx.p, ctx.x
    dalpha = np.sum(grad_out * x.data, axis=1, keepdims=True, dtype=np.float64).astype(
        x.data.dtype
    )
    dpsi_pre = activate_backward(ctx.alpha, "sigmoid", dalpha)
    drelu, grads[id(p.psi.weight)], grads[id(p.psi.bias)] = conv2d_backward(
        ctx.relu_out, p.psi, dpsi_pre
    )
    dsum = activate_backward(ctx.relu_out.data, "relu", drelu)
    del drelu
    grad_x, grads[id(p.wx.weight)], _ = conv2d_backward(x, p.wx, dsum)
    dg, grads[id(p.wg.weight)], _ = conv2d_backward(g, p.wg, dsum)
    del dsum
    grad_x += grad_out * ctx.alpha  # summed here, once drelu and dsum are freed
    return flush_subnormal(grad_x), dg


# ---------------------------------------------------------------------------
# residual decoder block


@dataclass
class ResCtx:
    p: ResBlockParams
    unit1: ConvUnit | None  # None in infer mode
    unit2: ConvUnit | None


def residual_block_forward(x: Tensor4, p: ResBlockParams, mode: str) -> tuple[Tensor4, ResCtx]:
    """relu(bn2(conv2(relu(bn1(conv1(x)))))) + shortcut_proj(x), with both
    BNs in `mode`; spatial dims are preserved."""
    r1, unit1 = conv_bn_act(x, p.conv1, p.bn1, mode, "relu")
    r2, unit2 = conv_bn_act(r1, p.conv2, p.bn2, mode, "relu")
    y = Tensor4(r2.data + conv2d(x, p.shortcut_proj).data)
    return y, ResCtx(p, unit1, unit2)


def residual_block_backward(
    ctx: ResCtx, x: Tensor4, grad_out: np.ndarray, grads: GradDict
) -> np.ndarray:
    """Gradient of the block input `x` (the forward's, from the caller);
    recomputes the first unit's output, the second unit's input."""
    p = ctx.p
    r1, act = ctx.unit1.output()
    g = ctx.unit2.backward(r1, grad_out, grads)
    g = ctx.unit1.bn_backward(g, grads, act)
    del r1, act
    g = ctx.unit1.conv_backward(x, g, grads)
    gsc, grads[id(p.shortcut_proj.weight)], _ = conv2d_backward(x, p.shortcut_proj, grad_out)
    g += gsc
    return g
