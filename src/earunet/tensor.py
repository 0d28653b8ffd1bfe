"""Rank-4 tensor kernels with explicit backward passes.

Everything here operates on (batch, channel, height, width) arrays in
float32 (float64 is accepted for high-precision gradient checking).
Convolution uses the cross-correlation convention with zero padding; its
input gradient is the same chunked correlation with the flipped kernel, one
phase mod stride at a time, over crops of the output gradient framed once
by zeros.  One helper, ``_frame``, builds every zero frame: the padded
input, that framed output gradient and the weight gradient's wide rows.  A
dense weight gradient is one matmul per kernel tap at any stride, the tap
read in place at stride 1; only a depthwise weight gradient sums over the
forward's chunks (``_tap_chunks``).
At stride 1 and in every input-gradient phase, taps are wide rows: each
kernel tap is one contiguous run of the input's rows, W (the row pitch)
apart, and each output row is W columns wide, of which the first ow are
kept.  Only a strided conv's forward and weight gradient gather (oh, ow)
grids.  Every matmul runs on BLAS: no operand has a negative stride.
Batch norm lives here whole.  Its train forward and backward compute each
per-channel statistic once, accumulated in float64, and ``fold_bn`` is its
infer form, the running statistics folded into the preceding conv.

x86 runs every multiply-add with a subnormal operand (nonzero, below
``finfo.tiny``) through a microcode assist, several times slower than a
normal one.  ``flush_subnormal`` zeroes them in place, as a CPU's
flush-to-zero mode would, where they are made: in the sigmoid derivative
(``activate_backward``), and in ``blocks``' attention-gate product and its
gradient.  A flushed value moves by less than tiny (2**-126 in float32).

Ops are pure: given the same inputs they return bit-identical results;
``batchnorm2d`` alone also updates its running statistics in place.
Backward functions compute the gradients of ``sum(grad_out * op(x))``
with respect to each input; ``activate_backward`` reads only the values
its forward saved.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
    ``fold_bn``.
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
    def mode(self) -> str:
        """Always train: ``batchnorm2d`` has no other mode.  Tracers label BN calls by it."""
        return TRAIN


# ---------------------------------------------------------------------------
# convolution

# cache-sized working set: a chunk's patch matrix holds as many whole images as
# fit, or a run of one depthwise image's channels, but never less than one dense
# image, which can be far larger (see _tap_chunks); wide rows at stride 1 and in
# every input-gradient phase, (oh, ow) grids only for a strided conv's forward
# and weight gradient
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


def _frame(a: np.ndarray, top: int, bottom: int, left: int, right: int) -> np.ndarray:
    """a (..., h, w) inside zero rows above and below and zero columns left
    and right on its last two axes; one zeroed buffer and one copy, which is
    cheaper than np.pad.  a itself when every side is 0."""
    if not (top or bottom or left or right):
        return a
    *lead, h, w = a.shape
    framed = np.zeros((*lead, top + h + bottom, left + w + right), dtype=a.dtype)
    framed[..., top : top + h, left : left + w] = a
    return framed


def _is_depthwise(p: ConvParams) -> bool:
    """One single-channel filter per input channel (groups == in_c == out_c);
    a one-channel depthwise conv takes the dense path."""
    return p.groups > 1


def _taps(xp: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int):
    """(taps, pitch): xp's patches as a view, (n, c, kh, kw, L) wide rows,
    L = (oh-1)*pitch + ow, or (n, c, kh, kw, oh, ow) grids with pitch ow.

    At stride 1, when xp's rows are unit-stride runs W >= its width apart
    (wider in a view such as a crop of conv2d_backward's framed grad_out),
    taps are wide rows: output pixel (r, q) of tap (i, j) is element
    (i+r)*W + j+q of the plane, so each tap is one contiguous run, pitch is
    W, and of each W columns of a product the first ow are output pixels and
    the rest straddle a row end.  Otherwise each tap is an (oh, ow) grid.
    """
    n, c, _, width = xp.shape
    sn, sc, sh, sw = xp.strides
    pitch = sh // xp.itemsize
    wide = stride == 1 and sw == xp.itemsize and sh == pitch * xp.itemsize and pitch >= width
    pitch = pitch if wide else ow
    shape, strides = (((oh - 1) * pitch + ow,), (sw,)) if wide else ((oh, ow), (sh * stride, sw * stride))
    taps = np.lib.stride_tricks.as_strided(
        xp, shape=(n, c, kh, kw, *shape), strides=(sn, sc, sh, sw, *strides), writeable=False)
    return taps, pitch


def _tap_chunks(xp: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int, depthwise: bool):
    """(images, channels, cols, pitch) for the chunks of xp's patch matrix
    (``_taps``), cols (m, c*kh*kw, L), or (m, c, kh*kw, L) depthwise, L =
    (oh-1)*pitch + ow.

    A chunk holds as many whole images as fit ``_BLOCK_BYTES``, at least
    one.  A depthwise image larger than that is split into runs of its
    (independent) channels that fit, at least one each; channels is
    slice(None) unless an image is split.  A dense image is never split, so
    its chunk can exceed the block: ``decoder.level5.res.conv1`` gathers
    3.6 MB per image at ``desk`` and 190 MB at ``full``.
    """
    taps, pitch = _taps(xp, kh, kw, stride, oh, ow)
    n, c, kk = xp.shape[0], xp.shape[1], kh * kw
    span = (oh - 1) * pitch + ow
    nb = max(1, _BLOCK_BYTES // (c * kk * span * xp.itemsize))
    cb = max(1, _BLOCK_BYTES // (kk * span * xp.itemsize)) if depthwise and nb == 1 else c
    for i in range(0, n, nb):
        for j in range(0, c, cb):
            cols = taps[i : i + nb, j : j + cb]
            m, cj = cols.shape[:2]
            cols = cols.reshape(m, cj, kk, span) if depthwise else cols.reshape(m, cj * kk, span)
            yield slice(i, i + m), slice(j, j + cj) if cb < c else slice(None), cols, pitch


def _rows(a: np.ndarray, oh: int, ow: int, pitch: int) -> np.ndarray:
    """An (m, k, oh, pitch) chunk buffer as the (m, k, L) operand or product
    of a chunk's matmul, L = (oh-1)*pitch + ow; a view."""
    return a.reshape(*a.shape[:2], oh * pitch)[..., : (oh - 1) * pitch + ow]


def _correlate(xp: np.ndarray, weight: np.ndarray, stride: int, depthwise: bool, oh: int, ow: int) -> np.ndarray:
    """Pad-free cross-correlation of xp with weight, one matmul per chunk of
    ``_tap_chunks``.  The matmul writes rows pitch wide; when pitch > ow
    they go to a chunk buffer and the first ow columns of each are kept.
    The kernel matrix is C-contiguous: numpy's matmul skips BLAS for an
    operand with a negative stride, such as a flipped kernel's view, which
    is copied; the forward's weight is contiguous and is not."""
    oc, icpg, kh, kw = weight.shape
    weight = np.ascontiguousarray(weight)
    w2 = weight.reshape(oc, 1, kh * kw) if depthwise else weight.reshape(oc, icpg * kh * kw)
    out = np.empty((xp.shape[0], oc, oh, ow), dtype=xp.dtype)
    wide = None
    for s, ch, cols, pitch in _tap_chunks(xp, kh, kw, stride, oh, ow, depthwise):
        dst = out[s, ch]
        if pitch != ow:
            if wide is None:  # the first chunk is the largest
                wide = np.empty((*dst.shape[:3], pitch), dtype=xp.dtype)
            dst = wide[: dst.shape[0], : dst.shape[1]]
        res = _rows(dst, oh, ow, pitch)
        np.matmul(w2[ch], cols, out=res[:, :, None] if depthwise else res)
        del cols  # one chunk held at a time
        if pitch != ow:
            out[s, ch] = dst[..., :ow]
    return out


def conv2d(x: Tensor4, p: ConvParams) -> Tensor4:
    """2-D cross-correlation with zero padding.

    Output dims: (n, out_c, (h+2*pad-kh)//stride + 1, (w+2*pad-kw)//stride + 1).
    Patches are gathered in the chunks of ``_tap_chunks``, each multiplied
    by the weight in one matmul: wide rows at stride 1, (oh, ow) grids only
    at larger strides.
    """
    oh, ow = _conv_out_dims(x, p)
    pad = p.padding
    out = _correlate(_frame(x.data, pad, pad, pad, pad), p.weight, p.stride, _is_depthwise(p), oh, ow)
    if p.bias is not None:
        out += p.bias[None, :, None, None]
    return Tensor4(out)


def _phase_crops(size: int, k: int, out: int, st: int, pad: int):
    """One axis of conv2d's input gradient, one phase at a time.

    Input rows r, r+st, ... (phase r) meet kernel rows k-1-u0-st*m only, u0
    = (k-1-pad-r) % st, and phase row q at flipped tap m reads grad_out row
    q + m - d, d = (k-1-pad-r-u0)/st.  Returns the zero rows that grad_out
    needs before and after it, and (r, u0, rows, crop) for each phase with a
    tap: its length and the slice of the framed grad_out that it correlates.
    """
    found = []
    for r in range(min(st, size)):
        u0 = (k - 1 - pad - r) % st
        if u0 < k:
            rows = len(range(r, size, st))
            found.append((r, u0, rows, (k - 1 - pad - r - u0) // st, rows + len(range(u0, k, st)) - 1))
    before = max([0] + [d for *_, d, _ in found])
    after = max([0] + [span - d - out for *_, d, span in found])
    return before, after, [(r, u0, rows, slice(before - d, before - d + span)) for r, u0, rows, d, span in found]


def _weight_grad(xp: np.ndarray, p: ConvParams, grad_out: np.ndarray) -> np.ndarray:
    """conv2d's weight gradient from the padded input xp.  A dense conv
    takes one matmul per tap, over whole images: at stride 1 the tap's run
    of xp is read in place, with grad_out in rows pitch wide whose
    straddling columns are 0; at larger strides the tap's (oh, ow) grid is
    copied once (``_taps``).  A depthwise conv sums grad_out . patches^T over
    the forward's chunks, framing grad_out a chunk at a time (framed whole,
    it raised ``train_desk``'s peak RSS by ~1 MB)."""
    n, oc, oh, ow = grad_out.shape
    c, (kh, kw) = xp.shape[1], p.kernel
    if not _is_depthwise(p):
        taps, pitch = _taps(xp, kh, kw, p.stride, oh, ow)
        g = _rows(_frame(grad_out, 0, 0, 0, pitch - ow), oh, ow, pitch)
        gw = np.empty(p.weight.shape, dtype=p.weight.dtype)
        for i in range(kh):
            for j in range(kw):
                t = taps[:, :, i, j].reshape(n, c, -1)  # a view for wide rows
                gw[:, :, i, j] = np.matmul(g, t.transpose(0, 2, 1)).sum(axis=0)
        return gw
    gw = np.zeros((oc, kh * kw, 1), dtype=p.weight.dtype)
    for s, ch, cols, pitch in _tap_chunks(xp, kh, kw, p.stride, oh, ow, depthwise=True):
        g = _frame(grad_out[s, ch], 0, 0, 0, pitch - ow)
        gw[ch] += np.matmul(cols, _rows(g, oh, ow, pitch)[..., None]).sum(axis=0)
        del cols  # one chunk held at a time
    return gw.reshape(p.weight.shape)


def conv2d_backward(
    x: Tensor4, p: ConvParams, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Gradients of conv2d w.r.t. input, weight and bias.

    The weight gradient is ``_weight_grad``'s.  The input gradient is
    computed one phase mod stride at a time (``_phase_crops``): each is a
    stride-1 correlation, with the flipped kernel's taps of that phase (in
    and out channels swapped for a dense conv), of a crop of grad_out framed
    once by the zero rows and columns that the crops need, so every phase
    gathers wide rows; an unpadded 1x1 conv reads grad_out as it is.
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
    gw = _weight_grad(_frame(x.data, pad, pad, pad, pad), p, grad_out)
    top, bottom, row_phases = _phase_crops(h, kh, oh, st, pad)
    left, right, col_phases = _phase_crops(w, kw, ow, st, pad)
    framed = _frame(grad_out, top, bottom, left, right)
    flipped = p.weight[:, :, ::-1, ::-1] if dw else p.weight.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    # at stride 1 the one phase is the whole gradient (an empty input has none)
    grad_x = None if st == 1 and h * w else np.zeros((n, c, h, w), dtype=grad_out.dtype)
    for ry, u0, ph, rows in row_phases:
        for rx, v0, pw, cols in col_phases:
            part = _correlate(framed[:, :, rows, cols], flipped[:, :, u0::st, v0::st], 1, dw, ph, pw)
            if grad_x is None:
                grad_x = part
            else:
                grad_x[:, :, ry::st, rx::st] = part
    return grad_x, gw, grad_bias


# ---------------------------------------------------------------------------
# batch normalization

BnSaved = tuple[np.ndarray, np.ndarray]  # (xh, inv) saved by batchnorm2d


def batchnorm2d(x: Tensor4, s: BatchNormState) -> tuple[Tensor4, BnSaved]:
    """Train-mode per-channel normalize-scale-shift; returns ``(out, saved)``.

    Normalizes with the batch statistics over (n, h, w), updates the
    running statistics in place and saves ``(xh, inv)``, the normalized
    input and the per-channel inverse std, for ``batchnorm2d_backward``.
    The input is centred once: the squares of x - mean give the variance,
    and the same array, scaled in place by inv, is xh.
    """
    n, c, h, w = x.dims
    if c != s.gamma.shape[0]:
        raise ShapeError(f"input channels {x.dims} do not match batch-norm gamma {s.gamma.shape}")
    if n * h * w < 2:
        raise DegenerateBatchError(f"batch variance undefined for {n * h * w} elements per channel")
    dt = x.data.dtype
    mu64 = np.mean(x.data, axis=(0, 2, 3), dtype=np.float64)
    xh = x.data - mu64.astype(dt)[None, :, None, None]
    var64 = np.einsum("nchw,nchw->c", xh, xh, dtype=np.float64) / (n * h * w)
    m = BN_MOMENTUM
    for running, batch in ((s.running_mean, mu64), (s.running_var, var64)):
        running[:] = ((1.0 - m) * running.astype(np.float64) + m * batch).astype(running.dtype)
    inv = (1.0 / np.sqrt(var64.astype(dt).astype(np.float64) + BN_EPS)).astype(dt)
    xh *= inv[None, :, None, None]
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

    ``saved`` is the ``(xh, inv)`` that the forward returned.  Two sums
    over (n, h, w), in float64, are the beta and gamma gradients, sum(g)
    and sum(g*xh); the input gradient is the closed form (Ioffe & Szegedy,
    arXiv:1502.03167) gamma*inv*(g - sum(g)/N - xh*sum(g*xh)/N), N = n*h*w,
    built in place in the one array that held g*xh.
    """
    xh, inv = saved
    if grad_out.shape != xh.shape:
        raise ShapeError(f"grad_out shape {grad_out.shape} does not match input {xh.shape}")
    dt = xh.dtype
    sum_g = np.sum(grad_out, axis=(0, 2, 3), dtype=np.float64)
    t = grad_out * xh
    sum_gxh = np.sum(t, axis=(0, 2, 3), dtype=np.float64)
    size = xh.size // xh.shape[1]
    np.multiply(xh, (sum_gxh / size).astype(dt)[None, :, None, None], out=t)
    np.subtract(grad_out, t, out=t)
    t -= (sum_g / size).astype(dt)[None, :, None, None]
    t *= (s.gamma.astype(np.float64) * inv).astype(dt)[None, :, None, None]
    return t.astype(dt, copy=False), sum_gxh.astype(s.gamma.dtype), sum_g.astype(s.beta.dtype)


def fold_bn(conv: ConvParams, bn: BatchNormState) -> ConvParams:
    """The conv whose output equals infer-mode bn(conv(x)): each output
    channel's weights and bias scaled by gamma/sqrt(running_var + BN_EPS),
    computed in float64, and the bias shifted by beta - running_mean*scale
    (Jacob et al., arXiv:1712.05877)."""
    scale = bn.gamma.astype(np.float64) / np.sqrt(bn.running_var.astype(np.float64) + BN_EPS)
    bias = bn.beta.astype(np.float64) - bn.running_mean.astype(np.float64) * scale
    if conv.bias is not None:
        bias += conv.bias.astype(np.float64) * scale
    dt = conv.weight.dtype
    return replace(conv, weight=(conv.weight * scale[:, None, None, None]).astype(dt),
                   bias=bias.astype(dt))


# ---------------------------------------------------------------------------
# subnormals


def flush_subnormal(a: np.ndarray) -> np.ndarray:
    """Zero every |a| < finfo(a.dtype).tiny in place and return `a`.

    A subnormal becomes a zero of its sign, so it moves by less than tiny
    (2**-126 in float32), as a CPU's flush-to-zero mode would; 0, inf and
    NaN are kept.  Works through chunks of a quarter of ``_BLOCK_BYTES``, in
    any memory order, so a chunk and its two temporaries stay in cache and
    no temporary has the size of `a`."""
    tiny = np.finfo(a.dtype).tiny
    flags = ["external_loop", "buffered", "zerosize_ok"]
    with np.nditer(a, flags=flags, op_flags=[["readwrite"]], order="K",
                   buffersize=_BLOCK_BYTES // (4 * a.itemsize)) as chunks:
        for c in chunks:
            small = np.abs(c) < tiny
            if small.any():
                np.multiply(c, 0, out=c, where=small)
    return a


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
    returns ``(out, saved)`` for ``activate_backward``.  The sigmoid is
    plain, exactly 0 and 1 where it saturates (the model's head clips)."""
    t = x.data
    if kind == "relu":
        out = saved = np.maximum(t, 0)
    elif kind == "swish":
        s = _sigmoid(t)
        out = t * s
        saved = (s, out)
    elif kind == "sigmoid":
        out = saved = _sigmoid(t)
    else:
        raise ParameterError(f"unknown activation kind {kind!r}")
    return Tensor4(out), saved


def activate_backward(saved: ActSaved, kind: str, grad_out: np.ndarray) -> np.ndarray:
    """Input gradient of ``activate`` from its saved values, with no exp:
    relu' = [y > 0], sigmoid' = y*(1-y), swish' = s + y*(1-s), where y is
    the output and s = sigmoid(t).  The derivative and the product are
    computed in place in one new array; the sigmoid's is flushed
    (``flush_subnormal``), since it is subnormal wherever y*g nears tiny."""
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
    # covers the head, the attention gate's alpha and the SE gate
    return flush_subnormal(d) if kind == "sigmoid" else d


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
    return Tensor4(np.matmul(np.matmul(wh, x.data), ww.T))


def upsample_bilinear_2x_backward(x: Tensor4, grad_out: np.ndarray) -> np.ndarray:
    n, c, h, w = x.dims
    if grad_out.shape != (n, c, 2 * h, 2 * w):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} does not match upsampled {(n, c, 2 * h, 2 * w)}"
        )
    wh = _upsample2x_matrix(h, x.data.dtype)
    ww = _upsample2x_matrix(w, x.data.dtype)
    return np.matmul(np.matmul(wh.T, grad_out), ww)
