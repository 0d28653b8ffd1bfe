"""Rank-4 tensor kernels with explicit backward passes.

Everything here operates on (batch, channel, height, width) arrays in
float32 (float64 is accepted for high-precision gradient checking).
Convolution uses the cross-correlation convention with zero padding.
Reductions (pooling, batch statistics) accumulate in float64.

Ops are pure: given the same inputs (and RNG state, where one is taken)
they return bit-identical results.  Backward functions compute the
gradients of ``sum(grad_out * op(x))`` with respect to each input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import expit

from .errors import DegenerateBatchError, ParameterError, ShapeError, StateError

TRAIN = "train"
INFER = "infer"


def _check_mode(mode: str) -> None:
    if mode not in (TRAIN, INFER):
        raise ParameterError(f"mode must be '{TRAIN}' or '{INFER}', got {mode!r}")


@dataclass
class Tensor4:
    """A (n, c, h, w) array."""

    data: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data)
        if self.data.ndim != 4:
            raise ShapeError(f"Tensor4 expects 4 dims (n,c,h,w), got shape {self.data.shape}")

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def c(self) -> int:
        return self.data.shape[1]

    @property
    def h(self) -> int:
        return self.data.shape[2]

    @property
    def w(self) -> int:
        return self.data.shape[3]


@dataclass
class ConvParams:
    """Weights and geometry of one 2-D convolution.

    Dense (groups 1, weight (out_c, in_c, kh, kw)) or depthwise (groups ==
    in_c == out_c, weight (c, 1, kh, kw)); bias, when present, has length
    out_c.  stride/padding apply to both spatial axes.
    """

    weight: np.ndarray
    bias: np.ndarray | None = None
    stride: int = 1
    padding: int = 0
    groups: int = 1

    def __post_init__(self) -> None:
        if self.weight.ndim != 4:
            raise ShapeError(f"conv weight must be 4-D, got shape {self.weight.shape}")
        if self.stride < 1:
            raise ParameterError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise ParameterError(f"padding must be >= 0, got {self.padding}")
        out_c = self.weight.shape[0]
        if self.groups != 1 and (self.groups != out_c or self.weight.shape[1] != 1):
            raise ParameterError(
                f"groups must be 1 (dense) or out_c with one input channel per filter "
                f"(depthwise), got groups={self.groups} for weight {self.weight.shape}"
            )
        if self.bias is not None and self.bias.shape != (out_c,):
            raise ShapeError(f"bias shape {self.bias.shape} does not match out_c {out_c}")

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1] * self.groups

    @property
    def kernel(self) -> tuple[int, int]:
        return self.weight.shape[2], self.weight.shape[3]


@dataclass
class BatchNormState:
    """Per-channel batch-norm parameters and running statistics.

    In train mode batch statistics over (n, h, w) are used and the running
    stats are updated in place as running <- (1-momentum)*running +
    momentum*batch.  In infer mode only the running stats are read.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray = field(metadata={"trainable": False})
    running_var: np.ndarray = field(metadata={"trainable": False})
    eps: float = 1e-5
    momentum: float = 0.1
    mode: str = INFER

    def __post_init__(self) -> None:
        c = self.gamma.shape[0]
        for name in ("beta", "running_mean", "running_var"):
            arr = getattr(self, name)
            if arr.shape != (c,):
                raise ShapeError(f"{name} shape {arr.shape} does not match gamma shape {(c,)}")
        if self.eps <= 0:
            raise ParameterError(f"eps must be positive, got {self.eps}")
        if not 0.0 < self.momentum < 1.0:
            raise ParameterError(f"momentum must be in (0,1), got {self.momentum}")
        if np.any(self.running_var <= 0):
            raise ParameterError("running_var must be strictly positive")
        _check_mode(self.mode)

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


# ---------------------------------------------------------------------------
# convolution

# depthwise backward channel-block size: keeps the per-tap scatter cache-resident on large planes
_DEPTHWISE_BLOCK_BYTES = 1 << 20


def _conv_out_dims(h: int, w: int, p: ConvParams) -> tuple[int, int]:
    kh, kw = p.kernel
    oh = (h + 2 * p.padding - kh) // p.stride + 1
    ow = (w + 2 * p.padding - kw) // p.stride + 1
    if h + 2 * p.padding < kh or w + 2 * p.padding < kw:
        raise ShapeError(
            f"kernel {p.kernel} does not fit padded input "
            f"({h + 2 * p.padding}, {w + 2 * p.padding})"
        )
    return oh, ow


def _pad_input(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad both spatial axes; one zeroed buffer and one copy, which is
    cheaper than np.pad."""
    if padding == 0:
        return x
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    xp[:, :, padding : padding + h, padding : padding + w] = x
    return xp


def _patch_view(xp: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """Strided view (n, c, kh, kw, oh, ow) of the padded input; no copy."""
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, kh, kw, oh, ow),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )


def _is_depthwise(p: ConvParams) -> bool:
    """One single-channel filter per input channel (groups == in_c == out_c);
    a one-channel depthwise conv takes the dense path."""
    return p.groups > 1


def conv2d(x: Tensor4, p: ConvParams) -> Tensor4:
    """2-D cross-correlation with zero padding.

    Output dims: (n, out_c, (h+2*pad-kh)//stride + 1, (w+2*pad-kw)//stride + 1).
    """
    n, c, h, w = x.dims
    if c != p.in_channels:
        raise ShapeError(
            f"input channels {x.dims} do not match conv weight {p.weight.shape} "
            f"with groups={p.groups}"
        )
    kh, kw = p.kernel
    oh, ow = _conv_out_dims(h, w, p)
    xp = _pad_input(x.data, p.padding)
    patches = _patch_view(xp, kh, kw, p.stride, oh, ow)
    oc = p.out_channels

    if _is_depthwise(p):
        # depthwise: one filter per channel, vectorized over channels
        cols = patches.reshape(n, c, kh * kw, oh * ow)
        w2 = p.weight.reshape(c, kh * kw)
        out = np.einsum("nckp,ck->ncp", cols, w2).reshape(n, oc, oh, ow)
    else:
        cols = patches.reshape(n, c * kh * kw, oh * ow)
        w2 = p.weight.reshape(oc, c * kh * kw)
        out = np.matmul(w2, cols).reshape(n, oc, oh, ow)

    out = np.ascontiguousarray(out, dtype=x.data.dtype)
    if p.bias is not None:
        out += p.bias[None, :, None, None]
    return Tensor4(out)


def conv2d_backward(
    x: Tensor4, p: ConvParams, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Gradients of conv2d w.r.t. input, weight and bias."""
    n, c, h, w = x.dims
    if c != p.in_channels:
        raise ShapeError(
            f"input channels {x.dims} do not match conv weight {p.weight.shape} "
            f"with groups={p.groups}"
        )
    kh, kw = p.kernel
    oh, ow = _conv_out_dims(h, w, p)
    if grad_out.shape != (n, p.out_channels, oh, ow):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} does not match conv output "
            f"{(n, p.out_channels, oh, ow)}"
        )
    oc = p.out_channels

    grad_bias = None
    if p.bias is not None:
        grad_bias = np.sum(grad_out, axis=(0, 2, 3), dtype=np.float64).astype(p.bias.dtype)

    xp = _pad_input(x.data, p.padding)
    patches = _patch_view(xp, kh, kw, p.stride, oh, ow)
    grad_weight = np.empty_like(p.weight)
    gxp = np.zeros_like(xp)
    st = p.stride
    if _is_depthwise(p):
        # one vectorized multiply-add per tap, over a block of channels at a time
        cb = max(1, _DEPTHWISE_BLOCK_BYTES // gxp[:, :1].nbytes)
        for c0 in range(0, c, cb):
            cs = slice(c0, c0 + cb)
            go_b, gx_b, w_b = grad_out[:, cs], gxp[:, cs], p.weight[cs, 0]
            for u in range(kh):
                for v in range(kw):
                    grad_weight[cs, 0, u, v] = np.einsum("ncij,ncij->c", patches[:, cs, u, v], go_b)
                    gx_b[:, :, u : u + st * oh : st, v : v + st * ow : st] += go_b * w_b[:, u, v, None, None]
    else:
        go = grad_out.reshape(n, oc, oh * ow)
        cols = patches.reshape(n, c * kh * kw, oh * ow)
        # dW = sum_n grad_out . cols^T
        grad_weight[:] = np.matmul(go, cols.transpose(0, 2, 1)).sum(axis=0).reshape(oc, c, kh, kw)
        # dX: scatter W^T . grad_out back onto the padded input
        gcols = np.matmul(p.weight.reshape(oc, c * kh * kw).T, go).reshape(n, c, kh, kw, oh, ow)
        for u in range(kh):
            for v in range(kw):
                gxp[:, :, u : u + st * oh : st, v : v + st * ow : st] += gcols[:, :, u, v]

    if p.padding:
        grad_x = gxp[:, :, p.padding : p.padding + h, p.padding : p.padding + w]
    else:
        grad_x = gxp
    return np.ascontiguousarray(grad_x), grad_weight, grad_bias


# ---------------------------------------------------------------------------
# batch normalization

BnSaved = tuple[np.ndarray, np.ndarray]  # (xh, inv) saved by a train-mode batchnorm2d


def _batch_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu = np.mean(x, axis=(0, 2, 3), dtype=np.float64)
    # centre in the input dtype; the sum of squares still accumulates in float64
    d = x - mu.astype(x.dtype)[None, :, None, None]
    var = np.einsum("nchw,nchw->c", d, d, dtype=np.float64) / (x.size // x.shape[1])
    return mu, var


def batchnorm2d(x: Tensor4, s: BatchNormState) -> tuple[Tensor4, BnSaved | None]:
    """Per-channel normalize-scale-shift; returns ``(out, saved)``.

    Train mode normalizes with the batch statistics over (n, h, w),
    updates the running statistics in place and saves ``(xh, inv)``, the
    normalized input and the per-channel inverse std, for
    ``batchnorm2d_backward``.  Infer mode reads the running statistics
    only and saves nothing.
    """
    n, c, h, w = x.dims
    if c != s.channels:
        raise ShapeError(f"input channels {x.dims} do not match batch-norm width {s.channels}")
    dt = x.data.dtype
    if s.mode == TRAIN:
        if n * h * w == 1:
            raise DegenerateBatchError(
                "batch variance undefined for a single element per channel"
            )
        mu64, var64 = _batch_stats(x.data)
        m = s.momentum
        s.running_mean[:] = ((1.0 - m) * s.running_mean.astype(np.float64) + m * mu64).astype(
            s.running_mean.dtype
        )
        s.running_var[:] = ((1.0 - m) * s.running_var.astype(np.float64) + m * var64).astype(
            s.running_var.dtype
        )
        mu = mu64.astype(dt)
        var = var64.astype(dt)
    else:
        mu = s.running_mean.astype(dt)
        var = s.running_var.astype(dt)
    inv = (1.0 / np.sqrt(var.astype(np.float64) + s.eps)).astype(dt)
    xh = (x.data - mu[None, :, None, None]) * inv[None, :, None, None]
    out = xh * s.gamma.astype(dt)[None, :, None, None] + s.beta.astype(dt)[None, :, None, None]
    return Tensor4(out), ((xh, inv) if s.mode == TRAIN else None)


def batchnorm2d_backward(
    saved: BnSaved | None, s: BatchNormState, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of a train-mode batchnorm2d w.r.t. input, gamma and beta,
    differentiating through the batch statistics.

    ``saved`` is the ``(xh, inv)`` that the forward returned; nothing
    backpropagates through infer mode, which saves ``None``.
    """
    if saved is None:
        raise StateError("batchnorm2d_backward needs the (xh, inv) a train-mode forward saved")
    xh, inv = saved
    if grad_out.shape != xh.shape:
        raise ShapeError(f"grad_out shape {grad_out.shape} does not match input {xh.shape}")
    dt = xh.dtype
    grad_gamma = np.sum(grad_out * xh, axis=(0, 2, 3), dtype=np.float64).astype(s.gamma.dtype)
    grad_beta = np.sum(grad_out, axis=(0, 2, 3), dtype=np.float64).astype(s.beta.dtype)

    g = grad_out * s.gamma.astype(dt)[None, :, None, None]
    mean_g = np.mean(g, axis=(0, 2, 3), dtype=np.float64).astype(dt)
    mean_gxh = np.mean(g * xh, axis=(0, 2, 3), dtype=np.float64).astype(dt)
    grad_x = inv[None, :, None, None] * (
        g - mean_g[None, :, None, None] - xh * mean_gxh[None, :, None, None]
    )
    return grad_x.astype(dt, copy=False), grad_gamma, grad_beta


# ---------------------------------------------------------------------------
# activations


def _stable_sigmoid(t: np.ndarray) -> np.ndarray:
    s = expit(t)
    # keep the output strictly inside (0,1) even where exp underflows
    one = np.asarray(1.0, dtype=s.dtype)
    return np.clip(s, np.finfo(s.dtype).tiny, np.nextafter(one, 0.0), out=s)


def activate(x: Tensor4, kind: str) -> Tensor4:
    """Elementwise activation: relu, swish (t*sigmoid(t)) or sigmoid."""
    t = x.data
    if kind == "relu":
        out = np.maximum(t, 0)
    elif kind == "swish":
        out = t * _stable_sigmoid(t)
    elif kind == "sigmoid":
        out = _stable_sigmoid(t)
    else:
        raise ParameterError(f"unknown activation kind {kind!r}")
    return Tensor4(out.astype(t.dtype, copy=False))


def activate_backward(x: Tensor4, kind: str, grad_out: np.ndarray) -> np.ndarray:
    if grad_out.shape != x.data.shape:
        raise ShapeError(f"grad_out shape {grad_out.shape} does not match input {x.data.shape}")
    t = x.data
    if kind == "relu":
        d = (t > 0).astype(t.dtype)
    elif kind == "swish":
        s = _stable_sigmoid(t)
        d = s * (1.0 + t * (1.0 - s))
    elif kind == "sigmoid":
        s = _stable_sigmoid(t)
        d = s * (1.0 - s)
    else:
        raise ParameterError(f"unknown activation kind {kind!r}")
    return (grad_out * d).astype(t.dtype, copy=False)


# ---------------------------------------------------------------------------
# pooling / resampling


def global_avg_pool(x: Tensor4) -> Tensor4:
    """Mean over each (h, w) plane; output dims (n, c, 1, 1)."""
    out = np.mean(x.data, axis=(2, 3), keepdims=True, dtype=np.float64)
    return Tensor4(out.astype(x.data.dtype))


def global_avg_pool_backward(x: Tensor4, grad_out: np.ndarray) -> np.ndarray:
    n, c, h, w = x.dims
    if grad_out.shape != (n, c, 1, 1):
        raise ShapeError(f"grad_out shape {grad_out.shape} does not match pooled {(n, c, 1, 1)}")
    scale = np.asarray(1.0 / (h * w), dtype=x.data.dtype)
    return np.broadcast_to(grad_out * scale, x.data.shape).astype(x.data.dtype, copy=False)


@lru_cache(maxsize=64)
def _upsample2x_matrix(size: int, dtype_name: str) -> np.ndarray:
    """(2*size, size) interpolation matrix for half-pixel-center bilinear 2x."""
    src = (np.arange(2 * size, dtype=np.float64) + 0.5) / 2.0 - 0.5
    src = np.clip(src, 0.0, size - 1)
    i0 = np.floor(src).astype(np.intp)
    i1 = np.minimum(i0 + 1, size - 1)
    f = src - i0
    m = np.zeros((2 * size, size), dtype=np.dtype(dtype_name))
    rows = np.arange(2 * size)
    np.add.at(m, (rows, i0), (1.0 - f).astype(m.dtype))
    np.add.at(m, (rows, i1), f.astype(m.dtype))
    m.flags.writeable = False
    return m


def upsample_bilinear_2x(x: Tensor4) -> Tensor4:
    """Double both spatial dims; half-pixel-center sampling with edge clamp.

    Source coordinate for destination index d is (d+0.5)/2 - 0.5, clamped
    to the valid range.
    """
    n, c, h, w = x.dims
    dt = x.data.dtype.name
    wh = _upsample2x_matrix(h, dt)
    ww = _upsample2x_matrix(w, dt)
    out = np.matmul(np.matmul(wh, x.data), ww.T)
    return Tensor4(np.ascontiguousarray(out))


def upsample_bilinear_2x_backward(x: Tensor4, grad_out: np.ndarray) -> np.ndarray:
    n, c, h, w = x.dims
    if grad_out.shape != (n, c, 2 * h, 2 * w):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} does not match upsampled {(n, c, 2 * h, 2 * w)}"
        )
    dt = x.data.dtype.name
    wh = _upsample2x_matrix(h, dt)
    ww = _upsample2x_matrix(w, dt)
    return np.ascontiguousarray(np.matmul(np.matmul(wh.T, grad_out), ww))


# ---------------------------------------------------------------------------
# fully connected


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """y = x W + b for a length-k vector or an (n, k) stack of rows."""
    k, m = weight.shape
    if x.shape[-1] != k or bias.shape != (m,):
        raise ShapeError(
            f"linear dims disagree: x {x.shape}, weight {weight.shape}, bias {bias.shape}"
        )
    return x @ weight + bias


def linear_backward(
    x: np.ndarray, weight: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of linear w.r.t. x, weight and bias."""
    grad_x = grad_out @ weight.T
    if x.ndim == 1:
        grad_w = np.outer(x, grad_out)
        grad_b = grad_out.copy()
    else:
        grad_w = x.T @ grad_out
        grad_b = grad_out.sum(axis=0)
    return grad_x, grad_w.astype(weight.dtype, copy=False), grad_b


# ---------------------------------------------------------------------------
# stochastic depth


def sample_keep_mask(n: int, survive_p: float, rng: np.random.Generator) -> np.ndarray:
    """Per-sample Bernoulli(survive_p) keep mask, shape (n,), values {0,1}."""
    if not 0.0 < survive_p <= 1.0:
        raise ParameterError(f"survive_p must be in (0,1], got {survive_p}")
    if survive_p == 1.0:
        return np.ones(n)
    return (rng.random(n) < survive_p).astype(np.float64)


def apply_keep_mask(x: Tensor4, mask: np.ndarray, survive_p: float) -> Tensor4:
    """Zero the dropped samples of x and scale the kept ones by 1/survive_p,
    which preserves the expectation."""
    scale = (mask / survive_p).astype(x.data.dtype)
    return Tensor4(x.data * scale[:, None, None, None])

