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
    """Clamp Hounsfield values to HU_WINDOW = [lo, hi] and map affinely onto [0,1]."""
    lo, hi = HU_WINDOW
    # one slice at a time: the float64 arithmetic stays slice-sized
    out = np.empty(v.voxels.shape, dtype=np.float32)
    for k, plane in enumerate(v.voxels):
        # clip with float bounds already returns float64 for integer planes
        out[k] = (np.clip(plane, lo, hi).astype(np.float64, copy=False) - lo) / (hi - lo)
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
    cdf = (np.cumsum(hist, dtype=np.float64) / hist.sum()).astype(np.float32)
    out = np.empty(v.dims, dtype=np.float32)
    for k, plane in enumerate(v.voxels):
        out[k] = cdf[_bin_index(plane)]
    return CtVolume(out, v.spacing)


def _resampled_z(d: int, spacing) -> tuple[np.ndarray, tuple[float, float, float]]:
    """Source coordinate, in slices, of each z-resampled slice, and the new spacing."""
    if d < 2:
        raise InputError(f"z-resampling needs at least 2 slices, got {d}")
    sz, sy, sx = spacing
    target = TARGET_SLICE_SPACING_MM
    pos = np.arange(int(np.floor((d - 1) * sz / target)) + 1, dtype=np.float64) * target / sz
    return pos, (target, sy, sx)


def _nearest_slice(pos: np.ndarray, d: int) -> np.ndarray:
    """Source slice nearest each coordinate; ties round up."""
    return np.minimum(np.floor(pos + 0.5).astype(np.intp), d - 1)


def resample_z(v: CtVolume | LabelVolume, kind: str = "linear"):
    """Resample the slice axis to target = TARGET_SLICE_SPACING_MM.

    New depth is floor((d-1)*sz/target)+1; output slice i sits at physical
    depth i*target.  Images interpolate linearly between neighbor slices,
    masks take the nearest slice (ties round up).
    """
    d = v.dims[0]
    pos, spacing = _resampled_z(d, v.spacing)
    if kind not in ("linear", "nearest"):
        raise ParameterError(f"kind must be linear or nearest, got {kind!r}")
    if kind == "nearest":
        return type(v)(v.voxels[_nearest_slice(pos, d)], spacing)
    i0 = np.floor(pos).astype(np.intp)
    i1 = np.minimum(i0 + 1, d - 1)
    w = pos - i0
    vox = v.voxels
    # one output slice at a time: float64 temporaries stay slice-sized
    out = np.empty((pos.size,) + vox.shape[1:], dtype=np.float32)
    for k in range(pos.size):
        out[k] = vox[i0[k]].astype(np.float64) * (1.0 - w[k]) + vox[i1[k]].astype(np.float64) * w[k]
    return CtVolume(out, spacing)


def crop_liver_range(v: CtVolume, m: LabelVolume) -> tuple[CtVolume, LabelVolume, tuple[int, int]]:
    """Keep CROP_MARGIN_SLICES slices either side of the labeled range, clamped.

    Only the slice counts must agree: the image may already be resized
    in-plane while the mask keeps the grid its range is read from.
    """
    if v.dims[0] != m.dims[0]:
        raise ShapeError(f"image dims {v.dims} and mask dims {m.dims} differ in slice count")
    nonzero = np.flatnonzero(m.voxels.any(axis=(1, 2)))
    if nonzero.size == 0:
        raise InputError("mask has no foreground slices; cannot locate the organ range")
    lo = max(0, int(nonzero[0]) - CROP_MARGIN_SLICES)
    hi = min(v.dims[0] - 1, int(nonzero[-1]) + CROP_MARGIN_SLICES)
    return (
        CtVolume(v.voxels[lo : hi + 1].copy(), v.spacing),
        LabelVolume(m.voxels[lo : hi + 1].copy(), m.spacing),
        (lo, hi),
    )


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


def _nearest_taps(src: int, dst: int) -> np.ndarray:
    """The nearer of each destination index's two bilinear taps, the upper one on a tie."""
    i0, i1, f = bilinear_taps(src, dst)
    return np.where(f < 0.5, i0, i1)


def resize_plane_nearest(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor resize: each output pixel takes the nearer of its
    two bilinear taps, the upper one on a tie."""
    h, w = img.shape[-2], img.shape[-1]
    return img[..., _nearest_taps(h, out_h)[:, None], _nearest_taps(w, out_w)[None, :]]


def _check_plane(h: int, w: int) -> None:
    if h < 2 or w < 2:
        raise InputError(f"in-plane resize needs at least 2x2 slices, got {h}x{w}")


def _resized_spacing(spacing, h: int, w: int, size: int) -> tuple[float, float, float]:
    sz, sy, sx = spacing
    return (sz, sy * h / size, sx * w / size)


def resize_slices(v: CtVolume | LabelVolume, size: int):
    """Resample every slice to size x size (bilinear images, nearest masks)."""
    h, w = v.dims[1], v.dims[2]
    _check_plane(h, w)
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
    _stage("resize_slices", _check_plane, h, w)
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

    The image takes ``preprocess_volume``'s chain and is cropped after its
    resize.  The organ range is read from one foreground flag per source
    slice, gathered by resample_z's nearest-slice index, so it is the
    range of the z-resampled full-resolution mask.  The mask is gathered
    once, at the kept slices' nearest source slices, rows and columns:
    no array of the mask's size is made.
    """
    if image.dims != mask.dims:
        raise ShapeError(f"image dims {image.dims} do not match mask dims {mask.dims}")
    if image.spacing != mask.spacing:
        raise ShapeError(f"image spacing {image.spacing} != mask spacing {mask.spacing}")
    v = preprocess_volume(image, size)
    d, h, w = mask.dims
    pos, spacing = _stage("resample_z", _resampled_z, d, mask.spacing)
    zi = _nearest_slice(pos, d)
    flags = LabelVolume(np.array([plane.any() for plane in mask.voxels])[zi, None, None], spacing)
    v, _, (lo, _) = _stage("crop_liver_range", crop_liver_range, v, flags)
    m = mask.voxels[zi[lo : lo + v.dims[0], None, None], _nearest_taps(h, size)[:, None],
                    _nearest_taps(w, size)]
    return [
        SlicePair(
            image=v.voxels[i],
            mask=m[i],
            case_id=case_id,
            slice_index=lo + i,
        )
        for i in range(v.dims[0])
    ]
