"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (nested loops, pairwise distances)
and kept separate from the library code paths it checks.
"""

from __future__ import annotations

import math

import numpy as np

from earunet.tensor import BN_EPS


# ---------------------------------------------------------------------------
# convolution: 7-loop reference


def conv2d_naive(x, weight, bias=None, stride=1, padding=0, groups=1):
    """Direct nested-loop cross-correlation in float64."""
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    n, c, h, w = x.shape
    oc, icpg, kh, kw = weight.shape
    assert c == icpg * groups
    ocpg = oc // groups
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + w] = x
    out = np.zeros((n, oc, oh, ow))
    for b in range(n):
        for o in range(oc):
            g = o // ocpg
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(icpg):
                        for u in range(kh):
                            for v in range(kw):
                                acc += (
                                    xp[b, g * icpg + ci, i * stride + u, j * stride + v]
                                    * weight[o, ci, u, v]
                                )
                    out[b, o, i, j] = acc
            if bias is not None:
                out[b, o] += bias[o]
    return out


def conv2d_backward_naive(x, weight, grad_out, stride=1, padding=0, groups=1):
    """(grad_x, grad_weight) of sum(grad_out * conv2d(x)) in float64, one
    output pixel at a time: each grad_out value adds itself times the
    weight into the padded input's gradient, and times its input patch
    into the weight's gradient."""
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    n, c, h, w = x.shape
    oc, icpg, kh, kw = weight.shape
    ocpg = oc // groups
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + w] = x
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(weight)
    for b in range(n):
        for o in range(oc):
            chans = slice(o // ocpg * icpg, (o // ocpg + 1) * icpg)
            for i in range(grad_out.shape[2]):
                for j in range(grad_out.shape[3]):
                    g = float(grad_out[b, o, i, j])
                    rows = slice(i * stride, i * stride + kh)
                    cols = slice(j * stride, j * stride + kw)
                    gxp[b, chans, rows, cols] += g * weight[o]
                    gw[o] += g * xp[b, chans, rows, cols]
    return gxp[:, :, padding : padding + h, padding : padding + w], gw


# ---------------------------------------------------------------------------
# batch norm: infer mode


def bn_infer_naive(z, bn):
    """Infer-mode batch norm from the running statistics, one channel at a
    time in float64: (z - running_mean)*gamma/sqrt(running_var + BN_EPS) + beta."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    for c in range(z.shape[1]):
        scale = float(bn.gamma[c]) / math.sqrt(float(bn.running_var[c]) + BN_EPS)
        out[:, c] = (z[:, c] - float(bn.running_mean[c])) * scale + float(bn.beta[c])
    return out


def bn_backward_naive(x, gamma, grad_out):
    """Input gradient of train-mode batch norm, one channel at a time in
    float64, in the chain-rule form of Ioffe & Szegedy (arXiv:1502.03167):
    through xh = (x - mean)/sqrt(var + BN_EPS), then var, then mean, with
    var the biased batch variance over (n, h, w)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(grad_out, dtype=np.float64)
    out = np.empty_like(x)
    for c in range(x.shape[1]):
        xc, dxh = x[:, c], g[:, c] * float(gamma[c])
        m = xc.size
        mean = xc.mean()
        var = ((xc - mean) ** 2).mean()
        std = math.sqrt(var + BN_EPS)
        dvar = float(np.sum(dxh * (xc - mean))) * -0.5 / std**3
        dmean = -float(np.sum(dxh)) / std + dvar * float(np.mean(-2.0 * (xc - mean)))
        out[:, c] = dxh / std + dvar * 2.0 * (xc - mean) / m + dmean / m
    return out


# ---------------------------------------------------------------------------
# squeeze and excitation: per-sample, per-channel loops


def se_naive(x, w1, b1, w2, b2):
    """x gated by sigmoid(fc2(swish(fc1(channel means)))), one sample and
    one channel at a time in float64, with math.exp for both nonlinearities."""
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    cs = len(b1)
    out = np.empty_like(x)
    for i in range(n):
        means = [sum(float(t) for t in x[i, ch].ravel()) / (h * w) for ch in range(c)]
        hidden = []
        for j in range(cs):
            t = float(b1[j]) + sum(means[ch] * float(w1[ch, j]) for ch in range(c))
            hidden.append(t / (1.0 + math.exp(-t)))
        for ch in range(c):
            t = float(b2[ch]) + sum(hidden[j] * float(w2[j, ch]) for j in range(cs))
            out[i, ch] = x[i, ch] / (1.0 + math.exp(-t))
    return out


# ---------------------------------------------------------------------------
# finite differences


def numeric_grad(f, x0, step=1e-3):
    """Central-difference gradient of scalar f at x0 (any-shape float array)."""
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    flat = x0.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f(x0)
        flat[i] = orig - step
        fm = f(x0)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * step)
    return g


def max_rel_err(analytic, numeric, floor=1e-2):
    """Max elementwise relative error with a magnitude floor.

    Entries smaller than `floor` in both gradients are effectively compared
    absolutely at floor-scale, which keeps finite-difference noise on
    near-zero entries from dominating.
    """
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale)) if a.size else 0.0


# ---------------------------------------------------------------------------
# resampling: per-voxel loops


def resample_z_naive(vox, sz, target, kind):
    """Slice-axis resampling; output slice i sits at depth i*target."""
    d, h, w = vox.shape
    new_d = math.floor((d - 1) * sz / target) + 1
    out = np.zeros((new_d, h, w))
    for i in range(new_d):
        pos = i * target / sz  # in input slice units
        i0 = math.floor(pos)
        i1 = min(i0 + 1, d - 1)
        f = pos - i0
        for y in range(h):
            for x in range(w):
                if kind == "nearest":
                    out[i, y, x] = vox[min(math.floor(pos + 0.5), d - 1), y, x]
                else:
                    out[i, y, x] = float(vox[i0, y, x]) * (1.0 - f) + float(vox[i1, y, x]) * f
    return out


def _source_coord(i, src, dst):
    """Half-pixel-center source coordinate of destination index i, clamped."""
    return min(max((i + 0.5) * src / dst - 0.5, 0.0), src - 1)


def resize_bilinear_naive(img, out_h, out_w):
    """Bilinear resize of one 2-D plane, one output pixel at a time."""
    h, w = img.shape
    out = np.zeros((out_h, out_w))
    for i in range(out_h):
        sy = _source_coord(i, h, out_h)
        y0 = math.floor(sy)
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for j in range(out_w):
            sx = _source_coord(j, w, out_w)
            x0 = math.floor(sx)
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            out[i, j] = (
                float(img[y0, x0]) * (1 - fy) * (1 - fx)
                + float(img[y0, x1]) * (1 - fy) * fx
                + float(img[y1, x0]) * fy * (1 - fx)
                + float(img[y1, x1]) * fy * fx
            )
    return out


def resize_nearest_naive(img, out_h, out_w):
    """Nearest-neighbor resize of one 2-D plane: each output pixel copies
    the source pixel nearest its half-pixel-center coordinate (ties round up)."""
    h, w = img.shape
    out = np.zeros((out_h, out_w), dtype=img.dtype)
    for i in range(out_h):
        y = min(math.floor(_source_coord(i, h, out_h) + 0.5), h - 1)
        for j in range(out_w):
            out[i, j] = img[y, min(math.floor(_source_coord(j, w, out_w) + 0.5), w - 1)]
    return out


def _edge_taps(c, n):
    """Bilinear taps (index, weight) of coordinate c on an axis of n pixels,
    the indices clamped to the axis (edge padding)."""
    i0 = math.floor(c)
    f = c - i0
    return (min(max(i0, 0), n - 1), 1 - f), (min(max(i0 + 1, 0), n - 1), f)


def zoom_naive(image, mask, factor):
    """Zoom of one slice pair about its centre, one output pixel at a time.

    Output pixel i reads source coordinate c + (i - c) / factor: the image
    bilinearly, the mask at floor(coord + 0.5); indices outside the plane
    are clamped to its edge."""
    h, w = image.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    img = np.zeros((h, w), dtype=np.float32)
    msk = np.zeros((h, w), dtype=np.uint8)
    for i in range(h):
        sy = cy + (i - cy) / factor
        (y0, wy0), (y1, wy1) = _edge_taps(sy, h)
        for j in range(w):
            sx = cx + (j - cx) / factor
            (x0, wx0), (x1, wx1) = _edge_taps(sx, w)
            img[i, j] = (
                float(image[y0, x0]) * wy0 * wx0
                + float(image[y0, x1]) * wy0 * wx1
                + float(image[y1, x0]) * wy1 * wx0
                + float(image[y1, x1]) * wy1 * wx1
            )
            msk[i, j] = mask[min(max(math.floor(sy + 0.5), 0), h - 1),
                             min(max(math.floor(sx + 0.5), 0), w - 1)]
    return img, msk


# ---------------------------------------------------------------------------
# intensity: per-voxel loops


def hist_equalize_naive(vox, bins):
    """Global histogram equalization of float32 voxels in [0,1]: each voxel
    maps to the fraction of voxels whose bin is at or below its own.  The
    bin is floor(v * bins) in float32, capped at bins - 1."""
    flat = np.asarray(vox, dtype=np.float32).ravel()
    bin_of = [min(int(v * np.float32(bins)), bins - 1) for v in flat]
    counts = [0] * bins
    for b in bin_of:
        counts[b] += 1
    at_or_below, total = [], 0
    for c in counts:
        total += c
        at_or_below.append(total)
    out = [np.float32(at_or_below[b] / flat.size) for b in bin_of]
    return np.asarray(out, dtype=np.float32).reshape(np.shape(vox))


# ---------------------------------------------------------------------------
# volumetric metrics: brute force


def surface_naive(vol):
    """Foreground voxels with a 6-connected background neighbor (border counts)."""
    vol = np.asarray(vol) != 0
    d, h, w = vol.shape
    pts = []
    for i in range(d):
        for j in range(h):
            for k in range(w):
                if not vol[i, j, k]:
                    continue
                on_surface = False
                for di, dj, dk in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                    ii, jj, kk = i + di, j + dj, k + dk
                    if not (0 <= ii < d and 0 <= jj < h and 0 <= kk < w) or not vol[ii, jj, kk]:
                        on_surface = True
                        break
                if on_surface:
                    pts.append((i, j, k))
    return np.asarray(pts, dtype=np.float64).reshape(-1, 3)


def _directed_dists(pts_a, pts_b, spacing):
    """Shortest distance in mm from every point of A to the set B (pairwise)."""
    sa = pts_a * np.asarray(spacing, dtype=np.float64)
    sb = pts_b * np.asarray(spacing, dtype=np.float64)
    diff = sa[:, None, :] - sb[None, :, :]
    return np.sqrt((diff**2).sum(axis=2)).min(axis=1)


def metrics_naive(pred, gt, spacing):
    """All five metrics from first principles; None marks undefined values."""
    a = np.asarray(pred) != 0
    b = np.asarray(gt) != 0
    na, nb = int(a.sum()), int(b.sum())
    inter = int((a & b).sum())
    union = int((a | b).sum())
    dice = 1.0 if na + nb == 0 else 2.0 * inter / (na + nb)
    voe = 0.0 if union == 0 else 1.0 - inter / union
    rvd = None if na == 0 else (nb - na) / na
    sa = surface_naive(a)
    sb = surface_naive(b)
    if len(sa) == 0 or len(sb) == 0:
        assd = msd = None
    else:
        dab = _directed_dists(sa, sb, spacing)
        dba = _directed_dists(sb, sa, spacing)
        assd = float((dab.sum() + dba.sum()) / (len(sa) + len(sb)))
        msd = float(max(dab.max(), dba.max()))
    return dice, voe, rvd, assd, msd
