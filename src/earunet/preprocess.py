"""CT preprocessing chain: windowing, equalization, z-resampling,
liver-range cropping and in-plane resizing down to training slice pairs.

Three constants fix the chain: equalization counts EQUALIZE_BINS bins,
slices are resampled to TARGET_SLICE_SPACING_MM apart, and the organ crop
keeps CROP_MARGIN_SLICES extra slices (after resampling) on each side.

The chain is deterministic; running it twice on the same volumes yields
byte-identical slices.  Images are resampled bilinearly (half-pixel
centers, edge clamp), masks with nearest neighbor so they stay binary.

``preprocess_volume`` streams the image in two passes so that its memory
is O(input + tapped grid): the first windows the volume slab by slab
(about one 512x512 plane each) and counts the equalization bins, the
second windows and equalizes only the rows and columns that the in-plane
resize taps, about (2*size/h)**2 of a plane per z-resampled slice.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import EarUnetError, InputError, ParameterError, ShapeError
from .tensor import bilinear_taps
from .volumes import CtVolume, LabelVolume

HU_WINDOW = (-200.0, 200.0)
EQUALIZE_BINS = 256
TARGET_SLICE_SPACING_MM = 1.0
CROP_MARGIN_SLICES = 20


@dataclass
class SlicePair:
    """One training example: a slice image in [0,1] and its binary mask."""

    image: np.ndarray  # (s, s) float32
    mask: np.ndarray  # (s, s) uint8
    case_id: str
    slice_index: int

    def __post_init__(self) -> None:
        if self.image.shape != self.mask.shape or self.image.ndim != 2:
            raise ShapeError(
                f"slice image {self.image.shape} and mask {self.mask.shape} must be equal 2-D"
            )
        self.image = self.image.astype(np.float32, copy=False)
        self.mask = self.mask.astype(np.uint8, copy=False)


def hu_window(v: CtVolume) -> CtVolume:
    """Clamp Hounsfield values to HU_WINDOW = [lo, hi] and map affinely onto
    [0,1]; a non-finite voxel stays non-finite, so equalization rejects it."""
    lo, hi = HU_WINDOW
    # one slice at a time: the float64 arithmetic stays slice-sized
    out = np.empty(v.voxels.shape, dtype=np.float32)
    for k, plane in enumerate(v.voxels):
        # clip with float bounds already returns float64 for integer planes
        out[k] = (np.clip(plane, lo, hi).astype(np.float64, copy=False) - lo) / (hi - lo)
        if plane.dtype.kind == "f":  # clip maps +-inf into the window; NaN stays NaN
            np.copyto(out[k], plane, where=np.isinf(plane))
    return CtVolume(out, v.spacing)


def _bin_index(plane: np.ndarray) -> np.ndarray:
    """Equalization bin of each voxel, in the smallest unsigned dtype that
    holds EQUALIZE_BINS."""
    bins = EQUALIZE_BINS
    return np.minimum((plane * bins).astype(np.min_scalar_type(bins)), bins - 1)


def _check_unit(vox: np.ndarray) -> None:
    # written so that NaN fails the test too
    if not (vox.min() >= 0.0 and vox.max() <= 1.0):
        raise InputError(
            "histogram equalization expects finite voxels in [0,1] (window first); "
            "got non-finite or out-of-range values"
        )


def hist_equalize(v: CtVolume, of=None) -> CtVolume:
    """Global histogram equalization (EQUALIZE_BINS bins).

    The bins count every voxel of ``of``, an iterable of windowed volumes
    (default ``[v]``: the whole volume); v's voxels then map to the
    cumulative distribution of their bin, so the output is monotone
    nondecreasing in the input and spans (0, 1].  Given the slabs of a
    volume as ``of`` and a gather of its voxels as v, v equalizes as it
    would inside the whole volume, with one slab held at a time.
    """
    bins = EQUALIZE_BINS
    hist = np.zeros(bins, dtype=np.int64)
    # counting and the lookup go slice by slice, so the bin indices and
    # their intp copies stay slice-sized
    for part in [v] if of is None else of:
        _check_unit(part.voxels)
        for plane in part.voxels:
            hist += np.bincount(_bin_index(plane).ravel(), minlength=bins)
    if of is not None:
        _check_unit(v.voxels)
    if not hist.any():  # an empty ``of``; the cdf would be 0/0, NaN everywhere
        raise InputError("histogram equalization counted no voxel: `of` holds no volume")
    cdf = (np.cumsum(hist, dtype=np.float64) / hist.sum()).astype(np.float32)
    out = np.empty(v.dims, dtype=np.float32)
    for k, plane in enumerate(v.voxels):
        out[k] = cdf[_bin_index(plane)]
    return CtVolume(out, v.spacing)


def _nearest(i0: np.ndarray, i1: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The nearer of each index's two taps, the upper one on a tie."""
    return np.where(f < 0.5, i0, i1)


def resample_z(v: CtVolume | LabelVolume, kind: str = "linear"):
    """Resample the slice axis to target = TARGET_SLICE_SPACING_MM.

    New depth is floor((d-1)*sz/target)+1; output slice i sits at physical
    depth i*target.  Images interpolate linearly between neighbor slices,
    masks take the nearest slice (ties round up).
    """
    d, (sz, sy, sx), target = v.dims[0], v.spacing, TARGET_SLICE_SPACING_MM
    if d < 2:
        raise InputError(f"z-resampling needs at least 2 slices, got {d}")
    # lower and upper source slice, and the upper weight (as bilinear_taps)
    pos = np.arange(int(np.floor((d - 1) * sz / target)) + 1, dtype=np.float64) * target / sz
    i0 = np.floor(pos).astype(np.intp)
    i1, w, spacing = np.minimum(i0 + 1, d - 1), pos - i0, (target, sy, sx)
    if kind not in ("linear", "nearest"):
        raise ParameterError(f"kind must be linear or nearest, got {kind!r}")
    if kind == "nearest":
        return type(v)(v.voxels[_nearest(i0, i1, w)], spacing)
    vox = v.voxels
    # one output slice at a time: float64 temporaries stay slice-sized
    out = np.empty((w.size,) + vox.shape[1:], dtype=np.float32)
    for k in range(w.size):
        out[k] = vox[i0[k]].astype(np.float64) * (1.0 - w[k]) + vox[i1[k]].astype(np.float64) * w[k]
    return CtVolume(out, spacing)


def crop_liver_range(m: LabelVolume) -> tuple[int, int]:
    """First and last kept slice: CROP_MARGIN_SLICES either side of the
    labeled range, clamped to the volume."""
    nonzero = np.flatnonzero(m.voxels.any(axis=(1, 2)))
    if nonzero.size == 0:
        raise InputError("mask has no foreground slices; cannot locate the organ range")
    lo = max(0, int(nonzero[0]) - CROP_MARGIN_SLICES)
    hi = min(m.dims[0] - 1, int(nonzero[-1]) + CROP_MARGIN_SLICES)
    return lo, hi


def _bilinear_combine(img, y0, y1, fy, x0, x1, fx) -> np.ndarray:
    """Weighted sum of the four taps of every output pixel, in float64:
    a*(1-fy)*(1-fx) + b*(1-fy)*fx + c*fy*(1-fx) + d*fy*fx, left to right,
    accumulated in place."""
    fy = fy[:, None]
    fx = fx[None, :]
    top, bottom = np.take(img, y0, axis=-2), np.take(img, y1, axis=-2)
    out = None
    for rows, cols, wy, wx in (
        (top, x0, 1 - fy, 1 - fx),
        (top, x1, 1 - fy, fx),
        (bottom, x0, fy, 1 - fx),
        (bottom, x1, fy, fx),
    ):
        term = np.take(rows, cols, axis=-1) * wy
        term *= wx
        out = term if out is None else np.add(out, term, out=out)
    return out


def resize_plane_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of one or a stack of 2-D planes (leading axes kept)."""
    h, w = img.shape[-2], img.shape[-1]
    return _bilinear_combine(img, *bilinear_taps(h, out_h), *bilinear_taps(w, out_w))


def resize_plane_nearest(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor resize: each output pixel takes the nearer of its
    two bilinear taps, the upper one on a tie."""
    h, w = img.shape[-2], img.shape[-1]
    return img[..., _nearest(*bilinear_taps(h, out_h))[:, None], _nearest(*bilinear_taps(w, out_w))]


def _check_resize(h: int, w: int, size) -> int:
    """The slice size as an int, once it is an Integral, not a bool, of at
    least 1, and the h x w planes are at least 2x2."""
    if isinstance(size, bool) or not isinstance(size, numbers.Integral) or size < 1:
        raise ParameterError(f"slice size must be an int >= 1, got {size!r}")
    if h < 2 or w < 2:
        raise InputError(f"in-plane resize needs at least 2x2 slices, got {h}x{w}")
    return int(size)


def _resized_spacing(spacing, h: int, w: int, size: int) -> tuple[float, float, float]:
    sz, sy, sx = spacing
    return (sz, sy * h / size, sx * w / size)


def resize_slices(v: CtVolume | LabelVolume, size: int):
    """Resample every slice to size x size (bilinear images, nearest masks)."""
    h, w = v.dims[1], v.dims[2]
    size = _stage("resize_slices", _check_resize, h, w, size)
    spacing = _resized_spacing(v.spacing, h, w, size)
    if isinstance(v, LabelVolume):
        return LabelVolume(resize_plane_nearest(v.voxels, size, size), spacing)
    # the gathered corners promote to float64 against the float64 weights
    out = resize_plane_bilinear(v.voxels, size, size)
    return CtVolume(out.astype(np.float32), spacing)


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except EarUnetError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def preprocess_volume(image: CtVolume, size: int) -> CtVolume:
    """The mask-free part of the chain, as used for inference inputs:
    resize_slices(resample_z(hist_equalize(hu_window(image)))), bit for
    bit, in two passes that hold no other array as large as the input.

    Pass 1 windows the volume one slab at a time and counts the
    equalization bins over every voxel.  Pass 2 gathers only the rows and
    columns that the bilinear resize taps, windows and equalizes that grid
    against the pass-1 counts, z-resamples it and combines it with the
    weights of the full plane.  This is exact because windowing,
    equalization and z-resampling act on each pixel on its own, so they
    commute with a pixel gather.  Memory is O(input + tapped grid): the
    grid is about (2*size/h)**2 of a plane per z-resampled slice.  The
    float64 combine runs over chunks of z-resampled slices of about 2**18
    grid pixels, each written into the float32 output.
    """
    d, h, w = image.dims
    size = _stage("resize_slices", _check_resize, h, w, size)
    y0, y1, fy = bilinear_taps(h, size)
    x0, x1, fx = bilinear_taps(w, size)
    rows, ry = np.unique(np.concatenate([y0, y1]), return_inverse=True)
    cols, cx = np.unique(np.concatenate([x0, x1]), return_inverse=True)
    vox, spacing = image.voxels, image.spacing
    grid = _stage("hu_window", hu_window, CtVolume(vox[:, rows[:, None], cols], spacing))
    step = max(1, (1 << 18) // (h * w))  # slabs of whole slices, about one 512x512 plane
    slabs = (hu_window(CtVolume(vox[k : k + step], spacing)) for k in range(0, d, step))
    grid = _stage("hist_equalize", hist_equalize, grid, of=slabs)
    z = _stage("resample_z", resample_z, grid)
    del grid
    out = np.empty((z.dims[0], size, size), dtype=np.float32)
    step = max(1, (1 << 18) // (rows.size * cols.size))
    for k in range(0, z.dims[0], step):
        out[k : k + step] = _bilinear_combine(
            z.voxels[k : k + step], ry[:size], ry[size:], fy, cx[:size], cx[size:], fx)
    return CtVolume(out, _resized_spacing(z.spacing, h, w, size))


def preprocess_case(
    image: CtVolume,
    mask: LabelVolume,
    case_id: str = "case",
    *,
    size: int,
) -> list[SlicePair]:
    """Full training chain: window, equalize, resample z, crop to the
    labeled organ range (plus margin), resize, emit one pair per slice.

    The organ range is read first, from one foreground flag per source
    slice, z-resampled as a (d, 1, 1) mask, so it is the range of the
    z-resampled full-resolution mask and an empty mask fails before any
    image pass.  The image then takes ``preprocess_volume``'s chain.  The
    mask is resized in-plane before it is z-resampled: no array of the
    mask's size is made.  Each pair's image and mask are views of those
    two volumes over the range.
    """
    if image.dims != mask.dims:
        raise ShapeError(f"image dims {image.dims} do not match mask dims {mask.dims}")
    if image.spacing != mask.spacing:
        raise ShapeError(f"image spacing {image.spacing} != mask spacing {mask.spacing}")
    fg = np.array([plane.any() for plane in mask.voxels])[:, None, None]
    flags = _stage("resample_z", resample_z, LabelVolume(fg, mask.spacing), "nearest")
    lo, hi = _stage("crop_liver_range", crop_liver_range, flags)
    v = preprocess_volume(image, size).voxels
    m = _stage("resample_z", resample_z, resize_slices(mask, size), "nearest").voxels
    return [SlicePair(v[i], m[i], case_id, i) for i in range(lo, hi + 1)]
