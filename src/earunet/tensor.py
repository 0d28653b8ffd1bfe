"""Rank-4 tensor kernels with explicit backward passes.

Everything here operates on (batch, channel, height, width) arrays in
float32 (float64 is accepted for high-precision gradient checking).
Convolution uses the cross-correlation convention with zero padding; its
input gradient is the same chunked correlation, run over the stride-dilated
output gradient with the flipped kernel.  A stride-1 correlation over rows
of unit stride gathers its patches as wide rows: each kernel tap is one
contiguous run of the input's rows, W (the row pitch) apart, and the matmul
computes W columns per output row, of which the first ow are kept.
Strided correlations and the weight gradient gather (oh, ow) patches.
Batch statistics accumulate in float64.

Ops are pure: given the same inputs they return bit-identical results;
``batchnorm2d`` alone also updates its running statistics in place.
Backward functions compute the gradients of ``sum(grad_out * op(x))``
with respect to each input; ``activate_backward`` reads only the values
its forward saved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBatchError, ParameterError, ShapeError

TRAIN = "train"
INFER = "infer"

BN_EPS = 1e-5  # added to the variance before its square root
BN_MOMENTUM = 0.1  # weight of the batch statistics in a running-stat update


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

    ``batchnorm2d`` normalizes with batch statistics over (n, h, w) and
    updates the running stats in place as running <- (1-BN_MOMENTUM)*running
    + BN_MOMENTUM*batch.  Infer reads the running stats only through
    ``blocks._fold_bn``.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray = field(metadata={"trainable": False})
    running_var: np.ndarray = field(metadata={"trainable": False})

    def __post_init__(self) -> None:
        c = self.gamma.shape[0]
        for name in ("beta", "running_mean", "running_var"):
            arr = getattr(self, name)
            if arr.shape != (c,):
                raise ShapeError(f"{name} shape {arr.shape} does not match gamma shape {(c,)}")
        if np.any(self.running_var <= 0):
            raise ParameterError("running_var must be strictly positive")

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    @property
    def mode(self) -> str:
        """Always train: ``batchnorm2d`` has no other mode.  Tracers label BN calls by it."""
        return TRAIN


# ---------------------------------------------------------------------------
# convolution

# cache-sized working set: the patch matrix per chunk of images (or of one
# depthwise image's channels), gathered by conv2d's forward and by
# conv2d_backward for both the input and the weight gradient
_BLOCK_BYTES = 1 << 20


def _conv_out_dims(x: Tensor4, p: ConvParams) -> tuple[int, int]:
    """conv2d's (oh, ow), once the input channels and the kernel fit the weight."""
    _, c, h, w = x.dims
    if c != p.in_channels:
        raise ShapeError(
            f"input channels {x.dims} do not match conv weight {p.weight.shape} "
            f"with groups={p.groups}"
        )
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


def _patch_chunks(xp: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int, depthwise: bool):
    """(images, cols) for chunks of the padded input whose patch matrix fits
    ``_BLOCK_BYTES``; cols is (nb, c*kh*kw, oh*ow), or (nb, c, kh*kw, oh*ow) depthwise."""
    n, c = xp.shape[:2]
    patches = _patch_view(xp, kh, kw, stride, oh, ow)
    rows = (c, kh * kw) if depthwise else (c * kh * kw,)
    nb = max(1, _BLOCK_BYTES // (c * kh * kw * oh * ow * xp.itemsize))
    for i in range(0, n, nb):
        yield slice(i, i + nb), patches[i : i + nb].reshape(-1, *rows, oh * ow)


def _correlate(xp: np.ndarray, weight: np.ndarray, stride: int, depthwise: bool, oh: int, ow: int) -> np.ndarray:
    """Pad-free cross-correlation of xp with weight, one matmul per chunk.

    At stride 1, when xp's rows are unit-stride runs W >= its width apart
    (W, the row pitch, is wider than the width in a view such as
    conv2d_backward's crop of its framed buffer), taps are gathered as wide
    rows: output pixel (r, q) of tap (i, j) is element (i+r)*W + j+q of
    the plane, so each tap is the one contiguous run of L = (oh-1)*W + ow
    elements that starts at i*W + j.  A chunk's matmul then yields oh
    rows of W columns, of which the first ow are the output and the rest
    straddle a row end; they are computed and dropped.  Chunks fit the
    (c*kh*kw, L) patch matrices to ``_BLOCK_BYTES``, whole images at a
    time, or for a depthwise image larger than that, runs of its
    channels.  Other inputs gather (oh, ow) patches through
    ``_patch_chunks``.
    """
    oc, icpg, kh, kw = weight.shape
    w2 = weight.reshape(oc, 1, kh * kw) if depthwise else weight.reshape(oc, icpg * kh * kw)
    out_rows = (oc, 1) if depthwise else (oc,)
    n, c, _, width = xp.shape
    out = np.empty((n, oc, oh, ow), dtype=xp.dtype)
    sn, sc, sh, sw = xp.strides
    pitch = sh // xp.itemsize
    if stride != 1 or sw != xp.itemsize or sh != pitch * xp.itemsize or pitch < width:
        for s, cols in _patch_chunks(xp, kh, kw, stride, oh, ow, depthwise):
            np.matmul(w2, cols, out=out[s].reshape(-1, *out_rows, oh * ow))
            del cols  # before the next chunk is gathered: one chunk is held at a time
        return out
    span = (oh - 1) * pitch + ow
    kk = kh * kw
    taps = np.lib.stride_tricks.as_strided(
        xp, shape=(n, c, kh, kw, span), strides=(sn, sc, sh, sw, sw), writeable=False)
    nb = max(1, _BLOCK_BYTES // (c * kk * span * xp.itemsize))
    # depthwise channels are independent: a chunk may hold some of one image's channels
    cb = max(1, _BLOCK_BYTES // (kk * span * xp.itemsize)) if depthwise and nb == 1 else c
    # a chunk's rows of W columns; when W == ow they are the output's own rows
    wide = None if pitch == ow else np.empty(
        (min(nb, n), min(cb, oc) if depthwise else oc, oh, pitch), dtype=xp.dtype)
    for i in range(0, n, nb):
        for j in range(0, c, cb):
            cols = taps[i : i + nb, j : j + cb]
            m, cj = cols.shape[:2]
            cols = cols.reshape(m, cj, kk, span) if depthwise else cols.reshape(m, cj * kk, span)
            och = slice(j, j + cj) if depthwise else slice(None)
            dst = out[i : i + m, och] if wide is None else wide[:m, : cj if depthwise else oc]
            np.matmul(w2[och], cols, out=dst.reshape(*dst.shape[:2], *out_rows[1:], -1)[..., :span])
            del cols  # one chunk held at a time
            if wide is not None:
                out[i : i + m, och] = dst[..., :ow]
    return out


def conv2d(x: Tensor4, p: ConvParams) -> Tensor4:
    """2-D cross-correlation with zero padding.

    Output dims: (n, out_c, (h+2*pad-kh)//stride + 1, (w+2*pad-kw)//stride + 1).
    Patches are gathered in chunks whose patch matrix fits ``_BLOCK_BYTES``,
    each multiplied by the weight in one matmul.  At stride 1 a tap's
    patch is one run of (oh-1)*W + ow elements of the padded input's rows
    of pitch W, and each output row keeps ow of the W columns computed
    (see ``_correlate``); at larger strides it is an (oh, ow) grid.
    """
    oh, ow = _conv_out_dims(x, p)
    out = _correlate(_pad_input(x.data, p.padding), p.weight, p.stride, _is_depthwise(p), oh, ow)
    if p.bias is not None:
        out += p.bias[None, :, None, None]
    return Tensor4(out)


def conv2d_backward(
    x: Tensor4, p: ConvParams, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Gradients of conv2d w.r.t. input, weight and bias.

    The padded input's gradient is a stride-1 correlation of grad_out,
    dilated by the stride and framed by kernel-1 zeros, with the flipped
    kernel (in and out channels swapped for a dense conv); only its unpadded
    part is computed, one output phase mod stride at a time.  The weight
    gradient sums grad_out . patches^T over the forward's chunks of images.
    """
    n, c, h, w = x.dims
    kh, kw = p.kernel
    oh, ow = _conv_out_dims(x, p)
    oc, st, pad = p.out_channels, p.stride, p.padding
    if grad_out.shape != (n, oc, oh, ow):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} does not match conv output {(n, oc, oh, ow)}"
        )
    grad_bias = None
    if p.bias is not None:
        grad_bias = np.sum(grad_out, axis=(0, 2, 3), dtype=np.float64).astype(p.bias.dtype)

    dw = _is_depthwise(p)
    go = grad_out.reshape(n, oc, oh * ow, 1) if dw else grad_out.reshape(n, oc, oh * ow)
    gw = np.zeros((oc, kh * kw, 1) if dw else (oc, c * kh * kw), dtype=p.weight.dtype)
    for s, cols in _patch_chunks(_pad_input(x.data, pad), kh, kw, st, oh, ow, dw):
        gw += (np.matmul(cols, go[s]) if dw else np.matmul(go[s], cols.transpose(0, 2, 1))).sum(axis=0)
        del cols  # one chunk held at a time

    buf = np.zeros((n, oc, h + 2 * pad + kh - 1, w + 2 * pad + kw - 1), dtype=grad_out.dtype)
    buf[:, :, kh - 1 : kh - 1 + st * oh : st, kw - 1 : kw - 1 + st * ow : st] = grad_out
    flipped = p.weight[:, :, ::-1, ::-1] if dw else p.weight.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    # output rows ry + st*q, from the crop offset on, meet nonzero buffer rows only
    # at taps u0 + st*m: each phase is a stride-1 correlation over every st-th row.
    # At stride 1 the one phase is the whole gradient, so no zeroed frame is
    # made for it (an empty input has no phase)
    grad_x = None if st == 1 and h * w else np.zeros((n, c, h, w), dtype=grad_out.dtype)
    for ry in range(min(st, h)):
        for rx in range(min(st, w)):
            u0, v0 = (kh - 1 - pad - ry) % st, (kw - 1 - pad - rx) % st
            if u0 < kh and v0 < kw:
                ph, pw = len(range(ry, h, st)), len(range(rx, w, st))
                sub = buf[:, :, pad + ry + u0 :: st, pad + rx + v0 :: st]
                part = _correlate(sub, flipped[:, :, u0::st, v0::st], 1, dw, ph, pw)
                if grad_x is None:
                    grad_x = part
                else:
                    grad_x[:, :, ry::st, rx::st] = part
    return grad_x, gw.reshape(p.weight.shape), grad_bias


# ---------------------------------------------------------------------------
# batch normalization

BnSaved = tuple[np.ndarray, np.ndarray]  # (xh, inv) saved by batchnorm2d


def _batch_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu = np.mean(x, axis=(0, 2, 3), dtype=np.float64)
    # centre in the input dtype; the sum of squares still accumulates in float64
    d = x - mu.astype(x.dtype)[None, :, None, None]
    var = np.einsum("nchw,nchw->c", d, d, dtype=np.float64) / (x.size // x.shape[1])
    return mu, var


def batchnorm2d(x: Tensor4, s: BatchNormState) -> tuple[Tensor4, BnSaved]:
    """Train-mode per-channel normalize-scale-shift; returns ``(out, saved)``.

    Normalizes with the batch statistics over (n, h, w), updates the
    running statistics in place and saves ``(xh, inv)``, the normalized
    input and the per-channel inverse std, for ``batchnorm2d_backward``.
    """
    n, c, h, w = x.dims
    if c != s.channels:
        raise ShapeError(f"input channels {x.dims} do not match batch-norm width {s.channels}")
    if n * h * w == 1:
        raise DegenerateBatchError("batch variance undefined for a single element per channel")
    dt = x.data.dtype
    mu64, var64 = _batch_stats(x.data)
    m = BN_MOMENTUM
    for running, batch in ((s.running_mean, mu64), (s.running_var, var64)):
        running[:] = ((1.0 - m) * running.astype(np.float64) + m * batch).astype(running.dtype)
    mu = mu64.astype(dt)
    var = var64.astype(dt)
    inv = (1.0 / np.sqrt(var.astype(np.float64) + BN_EPS)).astype(dt)
    xh = (x.data - mu[None, :, None, None]) * inv[None, :, None, None]
    return Tensor4(bn_affine(xh, s)), (xh, inv)


def bn_affine(xh: np.ndarray, s: BatchNormState) -> np.ndarray:
    """xh*gamma + beta per channel, in xh's dtype: ``batchnorm2d``'s output
    from its saved normalized input, so a recompute from ``xh`` gives the
    forward's bytes while gamma and beta are unchanged."""
    dt = xh.dtype
    out = xh * s.gamma.astype(dt)[None, :, None, None]
    out += s.beta.astype(dt)[None, :, None, None]
    return out


def batchnorm2d_backward(
    saved: BnSaved, s: BatchNormState, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of batchnorm2d w.r.t. input, gamma and beta,
    differentiating through the batch statistics.

    ``saved`` is the ``(xh, inv)`` that the forward returned.
    """
    xh, inv = saved
    if grad_out.shape != xh.shape:
        raise ShapeError(f"grad_out shape {grad_out.shape} does not match input {xh.shape}")
    dt = xh.dtype
    t = grad_out * xh  # one scratch array for the three products with xh
    grad_gamma = np.sum(t, axis=(0, 2, 3), dtype=np.float64).astype(s.gamma.dtype)
    grad_beta = np.sum(grad_out, axis=(0, 2, 3), dtype=np.float64).astype(s.beta.dtype)

    g = grad_out * s.gamma.astype(dt)[None, :, None, None]
    mean_g = np.mean(g, axis=(0, 2, 3), dtype=np.float64).astype(dt)
    mean_gxh = np.mean(np.multiply(g, xh, out=t), axis=(0, 2, 3), dtype=np.float64).astype(dt)
    # inv * (g - mean_g - xh*mean_gxh), in place in g
    g -= mean_g[None, :, None, None]
    g -= np.multiply(xh, mean_gxh[None, :, None, None], out=t)
    g *= inv[None, :, None, None]
    return g.astype(dt, copy=False), grad_gamma, grad_beta


# ---------------------------------------------------------------------------
# activations


def _sigmoid(t: np.ndarray) -> np.ndarray:
    """1/(1+exp(-t)) in t's dtype, in one new array.  Below t = -88.72 in float32
    (-709.78 in float64) exp(-t) overflows to inf and the quotient to 0."""
    s = np.negative(t)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1
    return np.reciprocal(s, out=s)


# what activate_backward reads: the output, or (sigmoid(t), output) for swish
ActSaved = np.ndarray | tuple[np.ndarray, np.ndarray]


def activate(x: Tensor4, kind: str) -> tuple[Tensor4, ActSaved]:
    """Elementwise activation: relu, swish (t*sigmoid(t)) or sigmoid;
    returns ``(out, saved)`` for ``activate_backward``."""
    t = x.data
    if kind == "relu":
        out = saved = np.maximum(t, 0)
    elif kind == "swish":
        s = _sigmoid(t)
        out = t * s
        saved = (s, out)
    elif kind == "sigmoid":
        # strictly inside (0, 1): 0 and subnormals rise to the smallest normal, 1 drops below 1
        out = saved = _sigmoid(t)
        np.clip(out, np.finfo(t.dtype).tiny, np.nextafter(np.asarray(1.0, t.dtype), 0.0), out=out)
    else:
        raise ParameterError(f"unknown activation kind {kind!r}")
    return Tensor4(out), saved


def activate_backward(saved: ActSaved, kind: str, grad_out: np.ndarray) -> np.ndarray:
    """Input gradient of ``activate`` from its saved values, with no exp:
    relu' = [y > 0], sigmoid' = y*(1-y), swish' = s + y*(1-s), where y is
    the output and s = sigmoid(t).  The derivative and the product are
    computed in place in one new array."""
    if kind not in ("relu", "swish", "sigmoid"):
        raise ParameterError(f"unknown activation kind {kind!r}")
    y = saved[1] if kind == "swish" else saved
    if grad_out.shape != y.shape:
        raise ShapeError(f"grad_out shape {grad_out.shape} does not match output {y.shape}")
    if kind == "relu":
        d = (y > 0).astype(y.dtype)
    elif kind == "swish":
        s = saved[0]
        d = np.subtract(1, s)
        d *= y
        d += s
    else:
        d = np.subtract(1, y)
        d *= y
    d *= grad_out
    return d


# ---------------------------------------------------------------------------
# resampling


def bilinear_taps(src: int, dst: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower and upper source index, and the upper weight, of each of the dst
    indices of a bilinear resize from src samples: destination index d reads
    coordinate (d+0.5)*src/dst - 0.5 (half-pixel centers) clamped to [0, src-1]."""
    s = np.clip((np.arange(dst, dtype=np.float64) + 0.5) * src / dst - 0.5, 0.0, src - 1)
    i0 = np.floor(s).astype(np.intp)
    return i0, np.minimum(i0 + 1, src - 1), s - i0


def _upsample2x_matrix(size: int, dtype) -> np.ndarray:
    """(2*size, size) interpolation matrix for bilinear 2x (``bilinear_taps``)."""
    i0, i1, f = bilinear_taps(size, 2 * size)
    m = np.zeros((2 * size, size), dtype=dtype)
    rows = np.arange(2 * size)
    np.add.at(m, (rows, i0), (1.0 - f).astype(m.dtype))
    np.add.at(m, (rows, i1), f.astype(m.dtype))
    return m


def upsample_bilinear_2x(x: Tensor4) -> Tensor4:
    """Double both spatial dims by the bilinear resize of ``bilinear_taps``:
    half-pixel-center sampling with edge clamp."""
    n, c, h, w = x.dims
    wh = _upsample2x_matrix(h, x.data.dtype)
    ww = _upsample2x_matrix(w, x.data.dtype)
    out = np.matmul(np.matmul(wh, x.data), ww.T)
    return Tensor4(np.ascontiguousarray(out))


def upsample_bilinear_2x_backward(x: Tensor4, grad_out: np.ndarray) -> np.ndarray:
    n, c, h, w = x.dims
    if grad_out.shape != (n, c, 2 * h, 2 * w):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} does not match upsampled {(n, c, 2 * h, 2 * w)}"
        )
    wh = _upsample2x_matrix(h, x.data.dtype)
    ww = _upsample2x_matrix(w, x.data.dtype)
    return np.ascontiguousarray(np.matmul(np.matmul(wh.T, grad_out), ww))
